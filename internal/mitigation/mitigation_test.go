package mitigation

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// predictBias returns the overall zero bias a bit will settle at under
// the plan, given its occupancy and busy-time zero bias: the analytic
// model the plan tests check ClassifyBit against.
func predictBias(p BitPlan, occupancy, busyZeroBias float64) float64 {
	free := 1 - occupancy
	busy := occupancy * busyZeroBias
	switch p.Technique {
	case TechALL1:
		return busy // free time holds "1": contributes no zero time
	case TechALL0:
		return busy + free
	case TechALL1K:
		return busy + free*(1-p.K)
	case TechALL0K:
		return busy + free*p.K
	case TechISV:
		// Half the overall time holds inverted contents: perfect
		// balance when occupancy ≤ 50%.
		if occupancy <= 0.5 {
			return 0.5
		}
		return busy + free*(1-busyZeroBias)
	case TechSelfBalanced, TechUncovered, TechNone:
		return busyZeroBias
	default:
		panic("mitigation: unknown technique")
	}
}

func TestTechniqueString(t *testing.T) {
	if TechALL1K.String() != "ALL1-K%" || TechISV.String() != "ISV" {
		t.Error("technique names wrong")
	}
	if Technique(99).String() == "" {
		t.Error("unknown technique should render")
	}
}

// TestClassifyFigure3 walks the branches of the Figure 3 casuistic.
func TestClassifyFigure3(t *testing.T) {
	tests := []struct {
		name      string
		occupancy float64
		bias0     float64
		want      Technique
	}{
		// occupancy·bias0 > 0.5: even all-ones idle can't balance.
		{"ALL1 branch", 0.9, 0.9, TechALL1},
		// occupancy·bias1 > 0.5.
		{"ALL0 branch", 0.9, 0.1, TechALL0},
		// busy-biased to 0 but balanceable (occupancy·bias0 < 50%).
		{"ALL1-K branch", 0.75, 0.65, TechALL1K},
		// busy-biased to 1 but balanceable.
		{"ALL0-K branch", 0.75, 0.35, TechALL0K},
		// Free more than half the time.
		{"ISV branch", 0.4, 0.9, TechISV},
		{"ISV branch high bias1", 0.3, 0.05, TechISV},
		// Already balanced: nothing to do.
		{"self-balanced", 0.8, 0.51, TechSelfBalanced},
		// Always busy and imbalanced: can't repair.
		{"uncovered valid bit", 1.0, 0.9, TechUncovered},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := ClassifyBit(tc.occupancy, tc.bias0)
			if got.Technique != tc.want {
				t.Errorf("ClassifyBit(%v, %v) = %v, want %v",
					tc.occupancy, tc.bias0, got.Technique, tc.want)
			}
		})
	}
}

// TestClassifyPaperExample checks §3.2 situation II: "if a given bit cell
// is busy 75% of the time and holds a 0 67% of the time ... we can store
// a 1 during idle time for perfect balancing". The example sits exactly
// on the 50%-of-total-time boundary (0.75·0.667 ≈ 0.50), so we test just
// inside it, where the classifier must pick ALL1-K% with K ≈ 1.
func TestClassifyPaperExample(t *testing.T) {
	p := ClassifyBit(0.75, 0.66)
	if p.Technique != TechALL1K {
		t.Fatalf("technique = %v, want ALL1-K%%", p.Technique)
	}
	// busy zero time = 0.75·0.66 ≈ 0.495: idle must hold "1" almost
	// always.
	if p.K < 0.95 {
		t.Errorf("K = %v, want ≈ 1 (hold 1 during nearly all idle time)", p.K)
	}
	if got := predictBias(p, 0.75, 0.66); !almostEqual(got, 0.5, 0.01) {
		t.Errorf("predicted bias = %v, want 0.5", got)
	}
}

func TestClassifyValidatesInput(t *testing.T) {
	for _, f := range []func(){
		func() { ClassifyBit(-0.1, 0.5) },
		func() { ClassifyBit(0.5, 1.1) },
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

func TestSolveKPerfectBalance(t *testing.T) {
	// Property: whenever ALL1-K%/ALL0-K% is chosen, the predicted bias
	// is exactly 0.5.
	f := func(occRaw, biasRaw uint8) bool {
		occ := 0.5 + float64(occRaw)/255*0.49 // (0.5, 0.99]
		bias := float64(biasRaw) / 255
		p := ClassifyBit(occ, bias)
		if p.Technique != TechALL1K && p.Technique != TechALL0K {
			return true
		}
		return almostEqual(predictBias(p, occ, bias), 0.5, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPredictBiasISV(t *testing.T) {
	if got := predictBias(BitPlan{Technique: TechISV}, 0.4, 0.9); got != 0.5 {
		t.Errorf("ISV predicted bias = %v, want 0.5", got)
	}
}

func TestPredictBiasImprovesWorstCase(t *testing.T) {
	// Property: for any repairable bit, the technique chosen by Figure 3
	// never worsens the distance from perfect balance.
	f := func(occRaw, biasRaw uint8) bool {
		occ := float64(occRaw) / 255 * 0.99
		bias := float64(biasRaw) / 255
		p := ClassifyBit(occ, bias)
		before := math.Abs(bias - 0.5)
		after := math.Abs(predictBias(p, occ, bias) - 0.5)
		return after <= before+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRINVSamplingPeriod(t *testing.T) {
	r := NewRINV(8, 100)
	if !r.Offer(0x0F, 0) {
		t.Fatal("first offer must be accepted")
	}
	if got := r.Value(); got != 0xF0 {
		t.Fatalf("RINV value = %#x, want inverted 0xF0", got)
	}
	if r.Offer(0xFF, 50) {
		t.Fatal("offer within period must be rejected")
	}
	if !r.Offer(0xFF, 100) {
		t.Fatal("offer at period boundary must be accepted")
	}
	if got := r.Value(); got != 0x00 {
		t.Fatalf("RINV value = %#x, want 0x00", got)
	}
}

func TestRINVMasksWidth(t *testing.T) {
	r := NewRINV(4, 0)
	r.Offer(0x00, 0)
	if got := r.Value(); got != 0x0F {
		t.Errorf("4-bit RINV value = %#x, want 0x0F", got)
	}
	r64 := NewRINV(64, 0)
	r64.Offer(0, 0)
	if got := r64.Value(); got != ^uint64(0) {
		t.Errorf("64-bit RINV value = %#x", got)
	}
	for _, bad := range []int{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRINV(%d) did not panic", bad)
				}
			}()
			NewRINV(bad, 0)
		}()
	}
}

func TestDutyCounter(t *testing.T) {
	c := NewDutyCounter(20, 0.75)
	high := 0
	for i := 0; i < 200; i++ {
		if c.Tick() {
			high++
		}
	}
	if got := float64(high) / 200; !almostEqual(got, 0.75, 1e-9) {
		t.Errorf("realized duty = %v, want 0.75", got)
	}
	if got := duty(c); !almostEqual(got, 0.75, 1e-9) {
		t.Errorf("high/period = %v", got)
	}
}

// duty returns the counter's realized duty cycle (high/period).
func duty(c *DutyCounter) float64 { return float64(c.high) / float64(c.period) }

func TestDutyCounterPaperKs(t *testing.T) {
	// §4.5 uses K = 50, 60, 75, 95% with counters of up to 5 bits.
	for _, k := range []float64{0.50, 0.60, 0.75, 0.95} {
		c := NewDutyCounter(20, k)
		if got := duty(c); !almostEqual(got, k, 0.025) {
			t.Errorf("K=%v realized as %v", k, got)
		}
	}
}

func TestDutyCounterPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewDutyCounter(1, 0.5) },
		func() { NewDutyCounter(64, 0.5) },
		func() { NewDutyCounter(8, -0.1) },
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
