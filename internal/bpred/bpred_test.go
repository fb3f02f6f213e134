package bpred

import (
	"math/rand"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Entries: 0},
		{Entries: 100},                  // not a power of two
		{Entries: 64, InvertRatio: 1.5}, // ratio out of range
		{Entries: 64, InvertRatio: 0.5, RotatePeriod: 0}, // no rotation
	}
	for _, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %+v should be invalid", cfg)
		}
	}
	if (Config{Entries: 64}).Validate() != nil {
		t.Error("plain predictor should validate")
	}
	defer func() {
		if recover() == nil {
			t.Error("New with bad config did not panic")
		}
	}()
	New(Config{})
}

func TestLearnsStableBranch(t *testing.T) {
	p := New(Config{Entries: 64})
	// An always-taken branch must be predicted correctly after training.
	var correct int
	for i := 0; i < 100; i++ {
		if p.Predict(0x400, true) {
			correct++
		}
	}
	if correct < 99 {
		t.Errorf("always-taken branch predicted %d/100", correct)
	}
	// An always-not-taken branch trains within a couple of predictions.
	for i := 0; i < 5; i++ {
		p.Predict(0x800, false)
	}
	if !p.Predict(0x800, false) {
		t.Error("not-taken branch still mispredicted after training")
	}
}

func TestAccuracyOnBiasedStream(t *testing.T) {
	p := New(Config{Entries: 256})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		pc := uint64(rng.Intn(64)) * 4
		taken := rng.Float64() < 0.9 // strongly biased branches
		p.Predict(pc, taken)
	}
	p.Finish()
	if acc := p.Accuracy(); acc < 0.85 {
		t.Errorf("accuracy = %.3f on 90%%-biased stream, want > 0.85", acc)
	}
}

func TestBaselineCounterBiasIsSkewed(t *testing.T) {
	// Saturated-taken counters hold "11" nearly always: both bits wear
	// one-sided.
	p := New(Config{Entries: 64})
	for i := 0; i < 20000; i++ {
		p.Predict(uint64(i%64)*4, true)
	}
	p.Finish()
	if got := p.WorstCellBias(); got < 0.9 {
		t.Errorf("baseline worst cell bias = %.3f, want near 1", got)
	}
}

func TestInversionBalancesCounters(t *testing.T) {
	run := func(ratio float64) (float64, float64) {
		cfg := Config{Entries: 64, InvertRatio: ratio, RotatePeriod: 16}
		if ratio == 0 {
			cfg = Config{Entries: 64}
		}
		p := New(cfg)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 60000; i++ {
			pc := uint64(rng.Intn(64)) * 4
			p.Predict(pc, rng.Float64() < 0.85)
		}
		p.Finish()
		return p.WorstCellBias(), p.Accuracy()
	}
	baseBias, baseAcc := run(0)
	invBias, invAcc := run(0.5)
	if invBias >= baseBias {
		t.Errorf("inversion must reduce worst bias: %.3f -> %.3f", baseBias, invBias)
	}
	if invBias > 0.70 {
		t.Errorf("inverted predictor worst bias = %.3f, want near 0.5", invBias)
	}
	// Accuracy cost must be modest — invalidated counters retrain.
	if baseAcc-invAcc > 0.05 {
		t.Errorf("inversion cost %.3f accuracy (%.3f -> %.3f), too much",
			baseAcc-invAcc, baseAcc, invAcc)
	}
}

func TestRotationCoversAllEntries(t *testing.T) {
	p := New(Config{Entries: 16, InvertRatio: 0.25, RotatePeriod: 4})
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		p.Predict(uint64(i%16)*4, true)
		seen[p.invStart] = true
	}
	if len(seen) != 16 {
		t.Errorf("rotation visited %d/16 window positions", len(seen))
	}
}

func TestCellBiasesShape(t *testing.T) {
	p := New(Config{Entries: 32})
	p.Predict(0, true)
	p.Finish()
	if got := len(p.bias.Biases()); got != 2 {
		t.Errorf("cell bias count = %d, want 2", got)
	}
	if p.predictions != 1 {
		t.Error("prediction count wrong")
	}
	if (&Predictor{}).Accuracy() != 0 {
		t.Error("zero-value accuracy should be 0")
	}
}
