package experiments

import (
	"reflect"
	"testing"

	"penelope/internal/trace"
)

// replayOptions keeps the golden comparisons fast while still covering
// several traces from several suites.
func replayOptions() Options {
	return Options{TraceLength: 2000, TraceStride: 90}
}

// generatorSources builds the same workload subset the bank records, but
// backed by the synthesizing generator — the oracle side of the golden
// comparisons.
func generatorSources(o Options) []trace.Source {
	o = o.normalized()
	return trace.Sources(trace.SampleTraces(o.TraceLength, o.TraceStride))
}

// TestFig6ReplayGolden is the Figure 6 golden comparison: the driver
// over the shared recording bank must report every statistic — per-bit
// series, worst cases, free fractions, port availabilities —
// bit-identical to the same driver over generator-backed traces.
func TestFig6ReplayGolden(t *testing.T) {
	o := replayOptions()
	banked := Fig6(o)
	golden := fig6(generatorSources(o))
	if !reflect.DeepEqual(banked, golden) {
		t.Errorf("Fig6 over recordings differs from generator path:\n%+v\nvs\n%+v", banked, golden)
	}
}

// TestFig8ReplayGolden is the Figure 8 golden comparison: profile,
// plan, baseline and protected reports must all be bit-identical
// between the recorded and generator paths.
func TestFig8ReplayGolden(t *testing.T) {
	o := replayOptions()
	banked := Fig8(o)
	golden := fig8(generatorSources(o))
	if !reflect.DeepEqual(banked.Baseline, golden.Baseline) {
		t.Errorf("Fig8 baseline report differs between recorded and generator paths")
	}
	if !reflect.DeepEqual(banked.Protected, golden.Protected) {
		t.Errorf("Fig8 protected report differs between recorded and generator paths")
	}
	if !reflect.DeepEqual(banked.Plan, golden.Plan) {
		t.Errorf("Fig8 plan differs between recorded and generator paths")
	}
	if banked.WorstBaseline != golden.WorstBaseline || banked.WorstProtected != golden.WorstProtected {
		t.Errorf("Fig8 worst biases differ: recorded (%v, %v) vs generator (%v, %v)",
			banked.WorstBaseline, banked.WorstProtected, golden.WorstBaseline, golden.WorstProtected)
	}
}

// TestBankReusedAcrossDrivers pins the record-once property: once a
// bank is built, further banks and cursors for the same Options replay
// the memoized recordings and record nothing again.
func TestBankReusedAcrossDrivers(t *testing.T) {
	o := replayOptions()
	a := o.bank()
	made := recordings.Stats().Misses
	b := o.bank()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("bank() built two different banks for identical Options")
	}
	recs := a.Sources()
	if len(recs) == 0 {
		t.Fatal("bank is empty")
	}
	srcA := o.sources()
	srcB := o.sampleSources(1)
	if len(srcA) != len(recs) || len(srcB) != len(recs) {
		t.Fatalf("source counts %d/%d, want %d", len(srcA), len(srcB), len(recs))
	}
	for i := range recs {
		_, okA := srcA[i].(*trace.Cursor)
		_, okB := srcB[i].(*trace.Cursor)
		if !okA || !okB {
			t.Fatalf("source %d is not a replay cursor", i)
		}
		// Fresh cursors deep-equal exactly when they replay equal
		// recordings.
		if !reflect.DeepEqual(srcA[i], recs[i]) || !reflect.DeepEqual(srcB[i], recs[i]) {
			t.Errorf("source %d does not replay the bank's recording", i)
		}
	}
	if n := recordings.Stats().Misses - made; n != 0 {
		t.Errorf("%d traces recorded again for identical Options", n)
	}
}
