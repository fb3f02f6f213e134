package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
)

// Result is the structured outcome of one experiment driver. Every
// figure and table produces a Result: data first, with Render as one
// view over it, so the same run can feed the text report, the -json
// flag and the experiment service's HTTP payloads. ID returns the
// registry id the result regenerates ("fig6", "table3", ...).
//
// Results marshal to a stable JSON schema: exported fields only, no
// maps with non-string keys, deterministic byte-for-byte output for a
// deterministic run (guarded by the json determinism tests).
type Result interface {
	ID() string
	Render(w io.Writer)
}

// SchemaVersion tags every marshaled payload so clients can detect
// schema changes. Bump it whenever a result struct changes shape.
// Version 2: Options gained the fleet lifetime knobs.
const SchemaVersion = 2

// Payload is the envelope every marshaled result ships in: which
// experiment produced it, under which (normalized) options, and the
// result data itself.
type Payload struct {
	Schema     int     `json:"schema"`
	Experiment string  `json:"experiment"`
	Options    Options `json:"options"`
	Data       Result  `json:"data"`
}

// NewPayload wraps a result and the options that produced it.
func NewPayload(r Result, o Options) Payload {
	return Payload{Schema: SchemaVersion, Experiment: r.ID(), Options: o.normalized(), Data: r}
}

// marshalScratch is the pair of buffers Marshal reuses across calls:
// the compact encoding and its indented form.
type marshalScratch struct {
	compact bytes.Buffer
	enc     *json.Encoder // writes into compact
	indent  []byte
}

var marshalScratches = sync.Pool{New: func() any {
	s := new(marshalScratch)
	s.enc = json.NewEncoder(&s.compact)
	return s
}}

// Marshal renders the payload as stable, indented JSON, byte-identical
// to json.MarshalIndent(p, "", "  ") but indented in one pass without
// the standard library's validating scanner. The output is
// deterministic: marshaling the same result twice yields identical
// bytes. Its capacity equals its length, so a cache that charges
// cap(payload) counts only the bytes it serves; the encoding and
// indenting run in pooled buffers, so that copy is the only one each
// call allocates.
func (p Payload) Marshal() ([]byte, error) {
	s := marshalScratches.Get().(*marshalScratch)
	defer marshalScratches.Put(s)
	s.compact.Reset()
	// An Encoder escapes HTML like json.Marshal and ends the value with
	// a newline, which the indenting pass drops.
	if err := s.enc.Encode(p); err != nil {
		return nil, err
	}
	compact := s.compact.Bytes()
	s.indent = AppendIndent(s.indent[:0], compact[:len(compact)-1])
	return append(make([]byte, 0, len(s.indent)), s.indent...), nil
}

// AppendIndent appends src, compact JSON as json.Marshal writes it, to
// dst with two spaces of indent per level, laid out as json.Indent does:
// one element per line, ": " after keys, and empty objects and arrays
// kept as {} and []. src is trusted, not validated: json.Marshal's
// output is valid and has no whitespace outside strings.
func AppendIndent(dst, src []byte) []byte {
	depth := 0
	opened := false // the previous byte opened an object or array
	for i := 0; i < len(src); i++ {
		c := src[i]
		if opened {
			opened = false
			if c == '}' || c == ']' { // empty: {} or []
				depth--
				dst = append(dst, c)
				continue
			}
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '{', '[':
			dst = append(dst, c)
			depth++
			opened = true
		case '}', ']':
			depth--
			dst = append(appendNewline(dst, depth), c)
		case ',':
			dst = appendNewline(append(dst, ','), depth)
		case ':':
			dst = append(dst, ':', ' ')
		case '"':
			j := i + 1
			for src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		default: // a number or literal runs to the next delimiter
			j := i + 1
			for j < len(src) && src[j] != ',' && src[j] != '}' && src[j] != ']' {
				j++
			}
			dst = append(dst, src[i:j]...)
			i = j - 1
		}
	}
	return dst
}

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// MarshalCompact renders the payload on a single line, for NDJSON
// streams (`penelope run -json`). Same determinism as Marshal.
func (p Payload) MarshalCompact() ([]byte, error) {
	return json.Marshal(p)
}

// The experiment ids, one per registry entry. Each result type names
// the experiment it regenerates; the ids double as the service's cache
// key component.

// ID returns "table1".
func (Table1Result) ID() string { return "table1" }

// ID returns "table2".
func (Table2Result) ID() string { return "table2" }

// ID returns "fig1".
func (Fig1Result) ID() string { return "fig1" }

// ID returns "fig4".
func (Fig4Result) ID() string { return "fig4" }

// ID returns "fig5".
func (Fig5Result) ID() string { return "fig5" }

// ID returns "fig6".
func (Fig6Result) ID() string { return "fig6" }

// ID returns "fig8".
func (Fig8Result) ID() string { return "fig8" }

// ID returns "mru".
func (MRUResult) ID() string { return "mru" }

// ID returns "table3".
func (Table3Result) ID() string { return "table3" }

// ID returns "efficiency".
func (EfficiencyStudyResult) ID() string { return "efficiency" }

// ID returns "bpred".
func (BpredResult) ID() string { return "bpred" }

// ID returns "latch".
func (LatchResult) ID() string { return "latch" }

// ID returns "vmin".
func (VminResult) ID() string { return "vmin" }

// ID returns "lifetime".
func (LifetimeResult) ID() string { return "lifetime" }

// ID returns "yield".
func (YieldResult) ID() string { return "yield" }
