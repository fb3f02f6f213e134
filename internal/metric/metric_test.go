package metric

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// TestPaperEfficiencyNumbers reproduces every NBTIefficiency value quoted
// in §4.2–§4.7 of the paper under eq. 1's folded-guardband grouping.
func TestPaperEfficiencyNumbers(t *testing.T) {
	tests := []struct {
		name                  string
		delay, guardband, tdp float64
		want                  float64
	}{
		{"baseline full guardband", 1.0, 0.20, 1.0, 1.73},
		{"periodic inversion", 1.10, 0.02, 1.0, 1.41},
		{"adder round-robin inputs", 1.0, 0.074, 1.0, 1.24},
		{"register file ISV", 1.0, 0.036, 1.01, 1.12},
		{"scheduler ALL1/K/ISV", 1.0, 0.067, 1.02, 1.24},
		{"DL0 LineFixed50%", 1.0053, 0.02, 1.01, 1.09},
		{"Penelope processor", 1.007, 0.074, 1.01, 1.28},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Efficiency(tc.delay, tc.guardband, tc.tdp)
			if !almostEqual(got, tc.want, 0.006) {
				t.Errorf("Efficiency(%v, %v, %v) = %.3f, want %.3f",
					tc.delay, tc.guardband, tc.tdp, got, tc.want)
			}
		})
	}
}

func TestBaselineAndPeriodicInversionBlocks(t *testing.T) {
	b := Baseline()
	if got := b.Efficiency(); !almostEqual(got, 1.728, 1e-9) {
		t.Errorf("baseline efficiency = %v, want 1.728", got)
	}
	pi := PeriodicInversion()
	if got := pi.Efficiency(); !almostEqual(got, 1.41, 0.005) {
		t.Errorf("periodic inversion efficiency = %v, want ~1.41", got)
	}
	if pi.Efficiency() >= b.Efficiency() {
		t.Error("periodic inversion must beat paying the full guardband")
	}
}

func TestEfficiencyExp(t *testing.T) {
	if got := EfficiencyExp(2, 0, 1, 3); !almostEqual(got, 8, 1e-12) {
		t.Errorf("EfficiencyExp cubic = %v, want 8", got)
	}
	if got := EfficiencyExp(2, 0, 1, 1); !almostEqual(got, 2, 1e-12) {
		t.Errorf("EfficiencyExp linear = %v, want 2", got)
	}
	if got := EfficiencyExp(1, 0.2, 1, 3); !almostEqual(got, 1.728, 1e-9) {
		t.Errorf("EfficiencyExp folds guardband: got %v, want 1.728", got)
	}
}

func TestBlockDelay(t *testing.T) {
	b := Block{CPIFactor: 1.007, CycleTimeFactor: 1.1}
	if got := b.Delay(); !almostEqual(got, 1.1077, 1e-9) {
		t.Errorf("Delay = %v, want 1.1077", got)
	}
}

// TestProcessorCombination reproduces §4.7: five equally weighted blocks,
// combined CPI 1.007, no cycle-time impact, max guardband 7.4%, mean TDP
// 1.01 — whole-processor NBTIefficiency 1.28.
func TestProcessorCombination(t *testing.T) {
	blocks := []Block{
		{Name: "adder", CPIFactor: 1, CycleTimeFactor: 1, Guardband: 0.074, TDPFactor: 1.00},
		{Name: "regfile", CPIFactor: 1, CycleTimeFactor: 1, Guardband: 0.036, TDPFactor: 1.01},
		{Name: "scheduler", CPIFactor: 1, CycleTimeFactor: 1, Guardband: 0.067, TDPFactor: 1.02},
		{Name: "DL0", CPIFactor: 1.005, CycleTimeFactor: 1, Guardband: 0.02, TDPFactor: 1.01},
		{Name: "DTLB", CPIFactor: 1.002, CycleTimeFactor: 1, Guardband: 0.02, TDPFactor: 1.01},
	}
	s := Processor(1.007, blocks)
	if !almostEqual(s.Delay, 1.007, 1e-12) {
		t.Errorf("Delay = %v, want 1.007", s.Delay)
	}
	if !almostEqual(s.TDP, 1.01, 1e-9) {
		t.Errorf("TDP = %v, want 1.01", s.TDP)
	}
	if !almostEqual(s.Guardband, 0.074, 1e-12) {
		t.Errorf("Guardband = %v, want 0.074 (max)", s.Guardband)
	}
	if got := s.Efficiency(); !almostEqual(got, 1.28, 0.005) {
		t.Errorf("processor efficiency = %.3f, want 1.28", got)
	}
	// Penelope must beat both the baseline and periodic inversion.
	if got := s.Efficiency(); got >= Baseline().Efficiency() || got >= PeriodicInversion().Efficiency() {
		t.Errorf("Penelope (%.3f) should beat baseline (1.73) and inversion (1.41)", got)
	}
}

func TestProcessorMaxCycleTime(t *testing.T) {
	blocks := []Block{
		{CPIFactor: 1, CycleTimeFactor: 1.0, TDPFactor: 1},
		{CPIFactor: 1, CycleTimeFactor: 1.1, TDPFactor: 1},
	}
	s := Processor(1.0, blocks)
	if !almostEqual(s.Delay, 1.1, 1e-12) {
		t.Errorf("Delay = %v, want max cycle time 1.1", s.Delay)
	}
}

func TestProcessorEmpty(t *testing.T) {
	s := Processor(1.0, nil)
	if s.Delay != 1 || s.TDP != 1 || s.Guardband != 0 {
		t.Errorf("empty processor summary = %+v", s)
	}
}

func TestCompareSorts(t *testing.T) {
	cs := Compare([]Block{Baseline(), PeriodicInversion()})
	if len(cs) != 2 {
		t.Fatalf("Compare returned %d entries", len(cs))
	}
	if cs[0].Efficiency > cs[1].Efficiency {
		t.Error("Compare must sort best-first")
	}
	if cs[0].Name != "periodic inversion" {
		t.Errorf("best technique = %q, want periodic inversion", cs[0].Name)
	}
}

func TestFormatTable(t *testing.T) {
	s := FormatTable(Compare([]Block{Baseline()}))
	if !strings.Contains(s, "baseline") || !strings.Contains(s, "20.0%") {
		t.Errorf("table missing expected cells:\n%s", s)
	}
}

func TestEfficiencyPropertyMonotone(t *testing.T) {
	// Property: efficiency increases with each cost factor.
	f := func(dRaw, gRaw, tRaw uint8) bool {
		d := 1 + float64(dRaw)/255
		g := float64(gRaw) / 255 * 0.2
		tdp := 1 + float64(tRaw)/255
		base := Efficiency(d, g, tdp)
		return Efficiency(d+0.01, g, tdp) > base &&
			Efficiency(d, g+0.01, tdp) > base &&
			Efficiency(d, g, tdp+0.01) > base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEfficiencyPropertyGuardbandEquivalence(t *testing.T) {
	// Property: a guardband g is exactly as costly as stretching delay by
	// (1+g) — that is what "folding" means.
	f := func(dRaw, gRaw uint8) bool {
		d := 1 + float64(dRaw)/255
		g := float64(gRaw) / 255 * 0.2
		return almostEqual(Efficiency(d, g, 1), Efficiency(d*(1+g), 0, 1), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
