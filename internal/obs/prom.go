package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4), families sorted by name,
// histogram buckets cumulative with a trailing +Inf.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sorted() {
		writeHeader(bw, f)
		switch f.kind {
		case kindCounter:
			v := uint64(0)
			if f.counter != nil {
				v = f.counter.Value()
			} else if f.counterFn != nil {
				v = f.counterFn()
			}
			bw.WriteString(f.name)
			writeConstLabels(bw, f.labels)
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatUint(v, 10))
			bw.WriteByte('\n')
		case kindGauge:
			if f.cells != nil {
				for _, c := range f.cells {
					bw.WriteString(f.name)
					writeLabels(bw, f.cellLabel, c.Value, "")
					bw.WriteByte(' ')
					bw.WriteString(formatFloat(c.Read()))
					bw.WriteByte('\n')
				}
				continue
			}
			v := 0.0
			if f.gauge != nil {
				v = f.gauge.Value()
			} else if f.gaugeFn != nil {
				v = f.gaugeFn()
			}
			bw.WriteString(f.name)
			writeConstLabels(bw, f.labels)
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(v))
			bw.WriteByte('\n')
		case kindHistogram:
			if f.hist != nil {
				writeHistogram(bw, f.name, "", "", f.hist.Snapshot())
			} else if f.vec != nil {
				values, snaps := f.vec.snapshot()
				for i, lv := range values {
					writeHistogram(bw, f.name, f.vec.label, lv, snaps[i])
				}
			}
		}
	}
	return bw.Flush()
}

// writeHeader emits the # HELP and # TYPE comment lines.
func writeHeader(bw *bufio.Writer, f *family) {
	if f.help != "" {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteByte('\n')
	}
	bw.WriteString("# TYPE ")
	bw.WriteString(f.name)
	switch f.kind {
	case kindCounter:
		bw.WriteString(" counter\n")
	case kindGauge:
		bw.WriteString(" gauge\n")
	case kindHistogram:
		bw.WriteString(" histogram\n")
	}
}

// writeHistogram emits cumulative _bucket lines, then _sum and _count.
// label/labelValue are empty for plain histograms.
func writeHistogram(bw *bufio.Writer, name, label, labelValue string, s HistogramSnapshot) {
	cum := uint64(0)
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		writeBucket(bw, name, label, labelValue, formatFloat(bound), cum)
	}
	writeBucket(bw, name, label, labelValue, "+Inf", s.Count)

	bw.WriteString(name)
	bw.WriteString("_sum")
	writeLabels(bw, label, labelValue, "")
	bw.WriteByte(' ')
	bw.WriteString(formatFloat(s.Sum))
	bw.WriteByte('\n')

	bw.WriteString(name)
	bw.WriteString("_count")
	writeLabels(bw, label, labelValue, "")
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(s.Count, 10))
	bw.WriteByte('\n')
}

func writeBucket(bw *bufio.Writer, name, label, labelValue, le string, cum uint64) {
	bw.WriteString(name)
	bw.WriteString("_bucket")
	writeLabels(bw, label, labelValue, le)
	bw.WriteByte(' ')
	bw.WriteString(strconv.FormatUint(cum, 10))
	bw.WriteByte('\n')
}

// writeLabels writes a {label="value",le="bound"} block, omitting empty
// parts; writes nothing when both are absent.
func writeLabels(bw *bufio.Writer, label, labelValue, le string) {
	if label == "" && le == "" {
		return
	}
	bw.WriteByte('{')
	if label != "" {
		bw.WriteString(label)
		bw.WriteString(`="`)
		bw.WriteString(escapeLabel(labelValue))
		bw.WriteByte('"')
		if le != "" {
			bw.WriteByte(',')
		}
	}
	if le != "" {
		bw.WriteString(`le="`)
		bw.WriteString(le)
		bw.WriteByte('"')
	}
	bw.WriteByte('}')
}

// writeConstLabels renders a {name="value",...} block for a family's
// constant labels (penelope_build_info); values get full exposition
// escaping.
func writeConstLabels(bw *bufio.Writer, labels []Label) {
	if len(labels) == 0 {
		return
	}
	bw.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(l.Name)
		bw.WriteString(`="`)
		bw.WriteString(escapeLabel(l.Value))
		bw.WriteByte('"')
	}
	bw.WriteByte('}')
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest round-trip representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
