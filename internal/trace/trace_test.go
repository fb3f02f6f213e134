package trace

import (
	"testing"
)

func TestTable1Counts(t *testing.T) {
	if got := TotalTraces(); got != 531 {
		t.Fatalf("TotalTraces = %d, want 531 (Table 1)", got)
	}
	wants := map[string]int{
		"encoder": 62, "specfp2000": 41, "specint2000": 33, "kernels": 53,
		"multimedia": 85, "office": 75, "productivity": 45, "server": 55,
		"workstation": 49, "spec2006": 33,
	}
	if len(Suites()) != int(NumSuites) {
		t.Fatalf("got %d suites, want %d", len(Suites()), NumSuites)
	}
	for _, s := range Suites() {
		if want, ok := wants[s.Name]; !ok || s.Count != want {
			t.Errorf("suite %s count = %d, want %d", s.Name, s.Count, want)
		}
	}
}

func TestSuiteLookups(t *testing.T) {
	s := SuiteByID(Server)
	if s.Name != "server" || s.Description != "TPC-C" {
		t.Errorf("SuiteByID(Server) = %+v", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("SuiteByID(-1) did not panic")
		}
	}()
	SuiteByID(-1)
}

func TestTraceDeterminism(t *testing.T) {
	a := NewTrace(Multimedia, 3, 500)
	b := NewTrace(Multimedia, 3, 500)
	for i := 0; i < 500; i++ {
		ua, oka := a.NextUop()
		ub, okb := b.NextUop()
		if oka != okb || oka && *ua != *ub {
			t.Fatalf("uop %d differs between identical traces", i)
		}
	}
	if _, ok := a.NextUop(); ok {
		t.Fatal("trace must end after Length uops")
	}
	// Reset replays identically.
	a.Reset()
	b.Reset()
	for i := 0; i < 100; i++ {
		ua, _ := a.NextUop()
		ub, _ := b.NextUop()
		if *ua != *ub {
			t.Fatalf("replay diverged at uop %d", i)
		}
	}
}

func TestTracesDifferAcrossIndices(t *testing.T) {
	a := NewTrace(Office, 0, 200)
	b := NewTrace(Office, 1, 200)
	same := 0
	for i := 0; i < 200; i++ {
		ua, _ := a.NextUop()
		ub, _ := b.NextUop()
		if *ua == *ub {
			same++
		}
	}
	if same > 100 {
		t.Errorf("traces 0 and 1 share %d/200 uops; should differ", same)
	}
}

func TestNewTraceValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewTrace(Office, -1, 10) },
		func() { NewTrace(Office, 75, 10) }, // office has 75 traces: 0..74
		func() { NewTrace(Office, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestInstructionMixTracksProfile(t *testing.T) {
	tr := NewTrace(SpecINT2000, 0, 20000)
	counts := map[Class]int{}
	for {
		u, ok := tr.NextUop()
		if !ok {
			break
		}
		counts[u.Class]++
	}
	total := float64(tr.Length)
	loadFrac := float64(counts[ClassLoad]) / total
	if loadFrac < 0.15 || loadFrac > 0.40 {
		t.Errorf("load fraction = %.3f, expected near profile (~0.26)", loadFrac)
	}
	if counts[ClassFPAdd]+counts[ClassFPMul] > int(total)/20 {
		t.Errorf("specint2000 should have almost no FP uops, got %d",
			counts[ClassFPAdd]+counts[ClassFPMul])
	}
	if counts[ClassBranch] == 0 || counts[ClassStore] == 0 {
		t.Error("mix missing branches or stores")
	}
}

func TestIntegerValueBias(t *testing.T) {
	// §1.1: per-bit zero bias of integer data should be high — between
	// roughly 65% and 90% across all 32 bits.
	tr := NewTrace(SpecINT2000, 1, 30000)
	zero := make([]int, 32)
	n := 0
	for {
		u, ok := tr.NextUop()
		if !ok {
			break
		}
		if u.Dst < 0 || u.Class.IsFP() {
			continue
		}
		n++
		for b := 0; b < 32; b++ {
			if u.DstVal&(1<<uint(b)) == 0 {
				zero[b]++
			}
		}
	}
	if n == 0 {
		t.Fatal("no integer results generated")
	}
	for b := 0; b < 32; b++ {
		bias := float64(zero[b]) / float64(n)
		if bias < 0.55 || bias > 0.99 {
			t.Errorf("bit %d zero bias = %.3f, want in [0.55, 0.99]", b, bias)
		}
	}
}

func TestFlagsMostlyZero(t *testing.T) {
	// §4.5: flags show almost 100% bias. ZF/OF/AF must be rare.
	tr := NewTrace(Multimedia, 0, 20000)
	var zf, of, n int
	for {
		u, ok := tr.NextUop()
		if !ok {
			break
		}
		if u.Class != ClassALU && u.Class != ClassMul {
			continue
		}
		n++
		if u.Flags&FlagZF != 0 {
			zf++
		}
		if u.Flags&FlagOF != 0 {
			of++
		}
	}
	if n == 0 {
		t.Fatal("no ALU uops")
	}
	if frac := float64(zf) / float64(n); frac > 0.45 {
		t.Errorf("ZF set fraction = %.3f, should be well below half", frac)
	}
	if frac := float64(of) / float64(n); frac > 0.05 {
		t.Errorf("OF set fraction = %.3f, should be rare", frac)
	}
}

func TestMOBRoundRobin(t *testing.T) {
	tr := NewTrace(Server, 0, 5000)
	seen := map[int]int{}
	prev := -1
	for {
		u, ok := tr.NextUop()
		if !ok {
			break
		}
		if !u.Class.IsMem() {
			continue
		}
		if u.MOBid < 0 || u.MOBid > 63 {
			t.Fatalf("MOB id %d out of 6-bit range", u.MOBid)
		}
		if prev >= 0 && u.MOBid != (prev+1)%64 {
			t.Fatalf("MOB ids not round-robin: %d after %d", u.MOBid, prev)
		}
		prev = u.MOBid
		seen[u.MOBid]++
	}
	if len(seen) != 64 {
		t.Errorf("only %d MOB slots used, want all 64 (self-balanced field)", len(seen))
	}
}

func TestAddressesWithinWorkingSet(t *testing.T) {
	tr := NewTrace(Office, 2, 10000)
	lines := map[uint64]bool{}
	for {
		u, ok := tr.NextUop()
		if !ok {
			break
		}
		if u.Class.IsMem() {
			lines[u.Addr>>6] = true
		}
	}
	if len(lines) == 0 {
		t.Fatal("no memory accesses")
	}
	// Office has a small working set; the distinct-line count must stay
	// bounded (streaming adds a linear component).
	if len(lines) > 4000 {
		t.Errorf("office trace touched %d lines; working set should be small", len(lines))
	}
}

func TestServerTouchesManyPages(t *testing.T) {
	small := pagesTouched(t, NewTrace(Office, 0, 20000))
	big := pagesTouched(t, NewTrace(Server, 0, 20000))
	if big <= small {
		t.Errorf("server pages (%d) should exceed office pages (%d)", big, small)
	}
	// The server page working set should be in the neighbourhood of a
	// 128-entry DTLB so the smaller 64/32-entry configurations of
	// Table 3 feel pressure.
	if big < 30 {
		t.Errorf("server should pressure small DTLBs, touched only %d pages", big)
	}
}

func pagesTouched(t *testing.T, tr *Trace) int {
	t.Helper()
	pages := map[uint64]bool{}
	for {
		u, ok := tr.NextUop()
		if !ok {
			break
		}
		if u.Class.IsMem() {
			pages[u.Addr>>12] = true
		}
	}
	return len(pages)
}

func TestOpcodeTwelveBits(t *testing.T) {
	tr := NewTrace(Encoder, 0, 2000)
	for {
		u, ok := tr.NextUop()
		if !ok {
			break
		}
		if u.Opcode >= 1<<12 {
			t.Fatalf("opcode %#x exceeds 12 bits", u.Opcode)
		}
	}
}

func TestSampleTraces(t *testing.T) {
	all := SampleTraces(100, 1)
	if len(all) != 531 {
		t.Errorf("stride 1 = %d traces, want 531", len(all))
	}
	some := SampleTraces(100, 10)
	if len(some) < 50 || len(some) > 60 {
		t.Errorf("stride 10 = %d traces, want ~53", len(some))
	}
	defer func() {
		if recover() == nil {
			t.Error("stride 0 did not panic")
		}
	}()
	SampleTraces(100, 0)
}

func TestOperandStream(t *testing.T) {
	s := NewOperandStream([]Source{NewTrace(Kernels, 0, 300)})
	cinSet, n := 0, 2000
	for i := 0; i < n; i++ {
		a, b, cin := s.NextOperands()
		_ = a
		_ = b
		if cin {
			cinSet++
		}
	}
	// Carry-in must be "0" more than 90% of the time (§1.1).
	if frac := float64(cinSet) / float64(n); frac > 0.10 {
		t.Errorf("carry-in set fraction = %.3f, want < 0.10", frac)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty stream did not panic")
		}
	}()
	NewOperandStream(nil)
}

func TestTraceName(t *testing.T) {
	if got := NewTrace(Server, 12, 10).Name(); got != "server/12" {
		t.Errorf("Name = %q", got)
	}
}

func TestClassHelpers(t *testing.T) {
	if !ClassLoad.IsMem() || ClassALU.IsMem() {
		t.Error("IsMem wrong")
	}
	if !ClassFPAdd.IsFP() || ClassMul.IsFP() {
		t.Error("IsFP wrong")
	}
	if ClassALU.String() != "alu" || Class(99).String() == "" {
		t.Error("String wrong")
	}
	maxPort := 0
	for c := Class(0); c < numClasses; c++ {
		if c.Latency() < 1 || c.Latency() > 31 {
			t.Errorf("%v latency %d outside 5-bit field", c, c.Latency())
		}
		if c.Port() < 0 || c.Port() > 4 || c.Port() >= NumIssuePorts {
			t.Errorf("%v port %d outside 0..%d", c, c.Port(), NumIssuePorts-1)
		}
		maxPort = max(maxPort, c.Port())
	}
	if maxPort != NumIssuePorts-1 {
		t.Errorf("highest port %d, want NumIssuePorts-1 = %d", maxPort, NumIssuePorts-1)
	}
}
