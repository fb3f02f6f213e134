package trace

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestRecordReplayEquivalence is the oracle test of the record/replay
// subsystem: for every one of the ten suites, a Cursor over the packed
// Recording must yield the deep-equal uop sequence the generator
// synthesizes. Uop is a comparable struct, so == is a full-field check.
func TestRecordReplayEquivalence(t *testing.T) {
	const length = 3000
	for id := SuiteID(0); id < NumSuites; id++ {
		id := id
		t.Run(SuiteByID(id).Name, func(t *testing.T) {
			gen := NewTrace(id, 0, length)
			cur := Record(id, 0, length).Cursor()
			for i := 0; ; i++ {
				gu, gok := gen.NextUop()
				ru, rok := cur.NextUop()
				if gok != rok {
					t.Fatalf("uop %d: generator ok=%v, replay ok=%v", i, gok, rok)
				}
				if !gok {
					break
				}
				if *ru != *gu {
					t.Fatalf("uop %d differs:\nreplay    %+v\ngenerator %+v", i, *ru, *gu)
				}
			}
			if cur.pos != length || cur.Len() != length {
				t.Errorf("cursor pos/len = %d/%d, want %d", cur.pos, cur.Len(), length)
			}
		})
	}
}

// TestCursorResetMidStream rewinds a cursor halfway through a replay and
// requires the second replay to match a fresh one bit for bit.
func TestCursorResetMidStream(t *testing.T) {
	rec := Record(Multimedia, 2, 600)
	cur := rec.Cursor()
	for i := 0; i < 250; i++ {
		if _, ok := cur.NextUop(); !ok {
			t.Fatalf("stream ended early at %d", i)
		}
	}
	if cur.pos != 250 {
		t.Fatalf("pos = %d, want 250", cur.pos)
	}
	cur.Reset()
	if cur.pos != 0 {
		t.Fatalf("pos after Reset = %d, want 0", cur.pos)
	}
	fresh := rec.Cursor()
	for i := 0; ; i++ {
		a, aok := cur.NextUop()
		b, bok := fresh.NextUop()
		if aok != bok {
			t.Fatalf("uop %d: reset cursor ok=%v, fresh ok=%v", i, aok, bok)
		}
		if !aok {
			break
		}
		if *a != *b {
			t.Fatalf("uop %d differs after mid-stream Reset", i)
		}
	}
}

// TestConcurrentCursors replays one shared recording from many forked
// cursors at once (run under -race in CI): each must see the identical
// sequence with no cross-talk through the shared buffer.
func TestConcurrentCursors(t *testing.T) {
	const length = 1500
	rec := Record(SpecINT2000, 1, length)
	want := make([]Uop, 0, length)
	ref := rec.Cursor()
	for {
		u, ok := ref.NextUop()
		if !ok {
			break
		}
		want = append(want, *u)
	}

	root := rec.Cursor()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := root.Fork()
			for i := 0; ; i++ {
				u, ok := cur.NextUop()
				if !ok {
					if i != length {
						errs <- "stream ended early"
					}
					return
				}
				if *u != want[i] {
					errs <- "concurrent replay diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPackedFieldRoundTrip drives the pack/unpack pair directly with
// edge-case uops: 80-bit FP extension bits at their extremes, the full
// 16-bit immediate range, every boolean flag and every flags bit.
func TestPackedFieldRoundTrip(t *testing.T) {
	edges := []Uop{
		{Class: ClassFPMul, Dst: 7, Src1: 7, Src2: 0, TOS: NumFPRegs - 1,
			SrcVal1: ^uint64(0), SrcVal2: 1, DstVal: 1 << 63,
			SrcExt1: 0xFFFF, SrcExt2: 0x8000, DstExt: 0x7FFF},
		{Class: ClassALU, Dst: NumIntRegs - 1, Src1: 0, Src2: -1,
			HasImm: true, Imm: 0xFFFF, Flags: FlagZF | FlagSF | FlagCF | FlagOF | FlagPF | FlagAF,
			Shift1: true, Shift2: true, Opcode: 0xFFF},
		{Class: ClassBranch, Dst: -1, Src1: 3, Src2: 5,
			Taken: true, Mispredict: true, FetchBubble: 255},
		{Class: ClassStore, Dst: -1, Src1: 1, Src2: 2,
			Addr: ^uint64(0), MOBid: 63},
		{Class: ClassLoad, Dst: 0, Src1: -1, Src2: -1, Imm: 0},
	}
	r := newRecording("edges/0", len(edges))
	for i := range edges {
		r.append(&edges[i])
	}
	cur := r.Cursor()
	for i := range edges {
		u, ok := cur.NextUop()
		if !ok {
			t.Fatalf("uop %d missing", i)
		}
		if *u != edges[i] {
			t.Fatalf("uop %d round-trip mismatch:\ngot  %+v\nwant %+v", i, *u, edges[i])
		}
	}
	if _, ok := cur.NextUop(); ok {
		t.Fatal("cursor must end after recorded uops")
	}
}

// TestRecordingOverflowPanics: a field outside its packed width must
// fail loudly at record time, never truncate silently.
func TestRecordingOverflowPanics(t *testing.T) {
	cases := map[string]Uop{
		"imm":  {Imm: 1 << 16, HasImm: true},
		"dst":  {Dst: 127},
		"mob":  {MOBid: 64},
		"tos":  {TOS: NumFPRegs},
		"src1": {Src1: -2},
	}
	for name, u := range cases {
		u := u
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("overflowing uop did not panic")
				}
			}()
			newRecording("overflow/0", 1).append(&u)
		})
	}
}

func TestRecordingMetadata(t *testing.T) {
	rec := Record(Server, 12, 200)
	if rec.name != "server/12" {
		t.Errorf("Name = %s, want server/12", rec.name)
	}
	if rec.Len() != 200 {
		t.Errorf("Len = %d, want 200", rec.Len())
	}
	if rec.Bytes() != 200*51 {
		t.Errorf("Bytes = %d, want %d", rec.Bytes(), 200*51)
	}
	if rec.Cursor().Name() != "server/12" {
		t.Error("cursor name mismatch")
	}
}

// TestPrefixMatchesRecord is the oracle of prefix views: for every
// suite, at sampled indices and random lengths L ≤ L' (1 and L'
// included), the length-L Prefix of the length-L' recording deep-equals
// the trace recorded at length L.
func TestPrefixMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for id := SuiteID(0); id < NumSuites; id++ {
		count := SuiteByID(id).Count
		for _, idx := range []int{0, rng.Intn(count), count - 1} {
			long := 1 + rng.Intn(2500)
			r := Record(id, idx, long)
			for _, n := range []int{1, long, 1 + rng.Intn(long), 1 + rng.Intn(long)} {
				if v, want := r.Prefix(n), Record(id, idx, n); !reflect.DeepEqual(v, want) {
					t.Fatalf("%s: prefix %d of %d differs from the recording at %d", r.name, n, long, n)
				}
			}
		}
	}
}

// TestPrefixSharesColumns checks that a view copies nothing: every
// column aliases the full recording's, capped at the view's length so
// nothing can grow into the rest. The full length is the recording
// itself, and lengths outside [0, Len()] panic.
func TestPrefixSharesColumns(t *testing.T) {
	r := Record(Kernels, 3, 800)
	v := r.Prefix(300)
	if v.Len() != 300 || v.Bytes() != 300*51 || v.name != r.name {
		t.Fatalf("view metadata %s/%d uops/%d bytes", v.name, v.Len(), v.Bytes())
	}
	rv, vv := reflect.ValueOf(r).Elem(), reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).Kind() != reflect.Slice {
			continue
		}
		name := rv.Type().Field(i).Name
		if rv.Field(i).Pointer() != vv.Field(i).Pointer() {
			t.Errorf("column %s is a copy", name)
		}
		if vv.Field(i).Len() != 300 || vv.Field(i).Cap() != 300 {
			t.Errorf("column %s has len %d cap %d, want 300", name, vv.Field(i).Len(), vv.Field(i).Cap())
		}
	}
	if r.Prefix(r.Len()) != r {
		t.Error("the full-length prefix is not the recording itself")
	}
	if r.Prefix(0).Len() != 0 {
		t.Error("empty prefix is not empty")
	}
	for _, n := range []int{-1, r.Len() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Prefix(%d) of %d uops did not panic", n, r.Len())
				}
			}()
			r.Prefix(n)
		}()
	}
}

// TestNewBankFromViews builds banks from sources that hand out longer
// recordings than asked for and requires each to deep-equal the bank
// NewBank records at that length.
func TestNewBankFromViews(t *testing.T) {
	for _, c := range []struct{ length, stride, extra int }{{200, 60, 0}, {257, 90, 1}, {64, 531, 1000}} {
		longer := func(id SuiteID, idx, length int) *Recording { return Record(id, idx, length+c.extra+idx%3) }
		if got, want := NewBankFrom(c.length, c.stride, longer), NewBank(c.length, c.stride); !reflect.DeepEqual(got, want) {
			t.Errorf("bank of views at length %d stride %d differs from NewBank", c.length, c.stride)
		}
	}
}

// TestBankMatchesSampleTraces: the bank must hold exactly the traces
// SampleTraces selects, and a bank at a multiple of the stride (the
// subsets the lighter studies sample) must hold the matching subset,
// each recording identical to the full bank's.
func TestBankMatchesSampleTraces(t *testing.T) {
	const length, stride = 200, 60
	b := NewBank(length, stride)
	want := SampleTraces(length, stride)
	if len(b.recs) != len(want) {
		t.Fatalf("bank holds %d recordings, SampleTraces gives %d", len(b.recs), len(want))
	}
	byName := make(map[string]*Recording)
	for i, rec := range b.recs {
		if rec.name != want[i].Name() {
			t.Errorf("recording %d = %s, want %s", i, rec.name, want[i].Name())
		}
		byName[rec.name] = rec
	}
	sub := NewBankFrom(length, stride*4, Record).Sources()
	wantSub := SampleTraces(length, stride*4)
	if len(sub) != len(wantSub) {
		t.Fatalf("bank at stride %d gives %d sources, want %d", stride*4, len(sub), len(wantSub))
	}
	for i, s := range sub {
		if s.Name() != wantSub[i].Name() {
			t.Errorf("sampled source %d = %s, want %s", i, s.Name(), wantSub[i].Name())
		}
		if !reflect.DeepEqual(s.(*Cursor).rec, byName[s.Name()]) {
			t.Errorf("sampled source %d does not replay the full bank's recording of %s", i, s.Name())
		}
	}
	if got := recordedBytes(b); got != len(want)*length*51 {
		t.Errorf("bank records %d bytes, want %d", got, len(want)*length*51)
	}
}

// recordedBytes sums the packed payload of a bank's recordings.
func recordedBytes(b *Bank) int {
	n := 0
	for _, r := range b.recs {
		n += r.Bytes()
	}
	return n
}

// TestBankBytesMatchesBank checks the size a caller can compute before
// recording against the bank NewBank actually builds, across strides
// that divide the 531-trace workload evenly and unevenly.
func TestBankBytesMatchesBank(t *testing.T) {
	for _, c := range []struct{ length, stride int }{{1, 1}, {300, 60}, {257, 90}, {64, 531}, {10, 1000}} {
		if got, want := BankBytes(c.length, c.stride), recordedBytes(NewBank(c.length, c.stride)); got != want {
			t.Errorf("BankBytes(%d, %d) = %d, bank holds %d", c.length, c.stride, got, want)
		}
	}
	if got := BankBytes(math.MaxInt/2, 1); got != math.MaxInt {
		t.Errorf("oversized bank = %d, want saturation at MaxInt", got)
	}
}

// TestOperandStreamFromRecordings checks the adder operand path over
// replay cursors matches the generator-backed stream sample for sample.
func TestOperandStreamFromRecordings(t *testing.T) {
	gen := NewOperandStream([]Source{NewTrace(Kernels, 0, 300), NewTrace(Office, 1, 300)})
	rep := NewOperandStream([]Source{Record(Kernels, 0, 300).Cursor(), Record(Office, 1, 300).Cursor()})
	for i := 0; i < 3000; i++ {
		ga, gb, gc := gen.NextOperands()
		ra, rb, rc := rep.NextOperands()
		if ga != ra || gb != rb || gc != rc {
			t.Fatalf("operand sample %d differs: gen (%#x,%#x,%v) replay (%#x,%#x,%v)",
				i, ga, gb, gc, ra, rb, rc)
		}
	}
}

// TestOperandStreamPanicsWithoutALU: a source set with no ALU/Mul uops
// must panic with a bounded scan instead of spinning forever.
func TestOperandStreamPanicsWithoutALU(t *testing.T) {
	r := newRecording("stores/0", 2)
	r.append(&Uop{Class: ClassStore, Dst: -1, Src1: 0, Src2: 1, Addr: 64})
	r.append(&Uop{Class: ClassBranch, Dst: -1, Src1: 2, Src2: 3, Taken: true})
	s := NewOperandStream([]Source{r.Cursor()})
	defer func() {
		msg, ok := recover().(string)
		if !ok {
			t.Fatal("operand stream without ALU uops did not panic")
		}
		if !strings.Contains(msg, "ALU/Mul") {
			t.Errorf("panic message %q should name the missing uop class", msg)
		}
	}()
	s.NextOperands()
}
