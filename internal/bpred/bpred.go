// Package bpred models a bimodal branch predictor as the second
// cache-like NBTI case study: §3.2.1 names "caches, branch predictor,
// etc." as the structures whose entries can be invalidated and inverted
// at will because stale contents only cost re-training, never
// correctness.
//
// The predictor is a table of 2-bit saturating counters. Real branch
// behaviour is biased — most counters sit saturated at strongly-taken —
// so counter cells wear unevenly (the high bit of a saturated-taken
// counter holds "1" almost always, stressing the complementary PMOS).
// The inversion mechanism keeps a fraction of the counters invalidated
// with inverted contents, rotating round-robin so every cell spends
// comparable time in each state; an invalidated counter predicts the
// static default until re-trained, which costs a small amount of
// accuracy instead of performance-critical capacity.
package bpred

import (
	"fmt"

	"penelope/internal/stats"
)

// Counter states of the 2-bit saturating counter.
const (
	StronglyNotTaken = 0
	WeaklyTaken      = 2 // 1 is weakly not-taken
	StronglyTaken    = 3
)

// Config describes a bimodal predictor.
type Config struct {
	// Entries is the counter-table size; must be a power of two.
	Entries int
	// InvertRatio is the fraction of counters kept invalid-and-inverted
	// (0 disables the mechanism).
	InvertRatio float64
	// RotatePeriod is how many predictions pass between rotations of
	// the inverted window.
	RotatePeriod uint64
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Entries <= 0 || c.Entries&(c.Entries-1) != 0:
		return fmt.Errorf("bpred: entries must be a positive power of two")
	case c.InvertRatio < 0 || c.InvertRatio > 1:
		return fmt.Errorf("bpred: invert ratio must be in [0,1]")
	case c.InvertRatio > 0 && c.RotatePeriod == 0:
		return fmt.Errorf("bpred: inversion needs a rotate period")
	default:
		return nil
	}
}

// Predictor is a bimodal predictor with optional NBTI inversion.
type Predictor struct {
	cfg      Config
	counters []uint8
	inverted []bool // counter currently holds inverted repair contents

	bias *stats.BitBias // aggregated 2-bit cell bias

	predictions uint64
	hits        uint64
	lastRotate  uint64
	invStart    int // start of the inverted window
	invCount    int
	lastTouch   []uint64
}

// New builds a predictor; counters start weakly taken (the usual reset
// state).
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &Predictor{
		cfg:       cfg,
		counters:  make([]uint8, cfg.Entries),
		inverted:  make([]bool, cfg.Entries),
		bias:      stats.NewBitBias(2),
		lastTouch: make([]uint64, cfg.Entries),
	}
	for i := range p.counters {
		p.counters[i] = WeaklyTaken
	}
	p.invCount = int(float64(cfg.Entries) * cfg.InvertRatio)
	p.applyInversionWindow()
	return p
}

// applyInversionWindow marks [invStart, invStart+invCount) as inverted:
// their contents are replaced by the bitwise complement and they predict
// the default until re-trained.
func (p *Predictor) applyInversionWindow() {
	for i := 0; i < p.invCount; i++ {
		idx := (p.invStart + i) % p.cfg.Entries
		if !p.inverted[idx] {
			p.flush(idx)
			p.counters[idx] = ^p.counters[idx] & 0x3
			p.inverted[idx] = true
		}
	}
}

// rotate advances the inverted window by one slot, restoring the slot
// that leaves the window to the reset state.
func (p *Predictor) rotate() {
	leaving := p.invStart
	p.flush(leaving)
	p.inverted[leaving] = false
	p.counters[leaving] = WeaklyTaken // retrains from default
	p.invStart = (p.invStart + 1) % p.cfg.Entries
	entering := (p.invStart + p.invCount - 1) % p.cfg.Entries
	if p.invCount > 0 && !p.inverted[entering] {
		p.flush(entering)
		p.counters[entering] = ^p.counters[entering] & 0x3
		p.inverted[entering] = true
	}
}

// flush accumulates the bias interval of counter idx up to the current
// prediction count.
func (p *Predictor) flush(idx int) {
	dt := p.predictions - p.lastTouch[idx]
	if dt > 0 {
		v := uint64(p.counters[idx])
		if p.inverted[idx] {
			p.bias.ObserveFree(v, dt)
		} else {
			p.bias.Observe(v, dt)
		}
		p.lastTouch[idx] = p.predictions
	}
}

// Predict consumes one branch (pc, taken outcome), returns whether the
// prediction was correct, and trains the counter.
func (p *Predictor) Predict(pc uint64, taken bool) bool {
	idx := int((pc >> 2) & uint64(p.cfg.Entries-1))
	p.predictions++
	if p.cfg.InvertRatio > 0 && p.predictions-p.lastRotate >= p.cfg.RotatePeriod {
		p.lastRotate = p.predictions
		p.rotate()
	}

	if p.inverted[idx] {
		// Invalidated entry: static default prediction (taken, as most
		// branches are). The cell keeps its inverted repair contents —
		// that is the whole point — and re-enters service re-trained
		// when the rotating window moves past it.
		correct := taken
		if correct {
			p.hits++
		}
		return correct
	}

	predictTaken := p.counters[idx] >= WeaklyTaken
	correct := predictTaken == taken
	if correct {
		p.hits++
	}
	// 2-bit saturating update.
	p.flush(idx)
	c := p.counters[idx]
	if taken && c < StronglyTaken {
		p.counters[idx] = c + 1
	} else if !taken && c > StronglyNotTaken {
		p.counters[idx] = c - 1
	}
	return correct
}

// Finish closes bias accounting.
func (p *Predictor) Finish() {
	for i := range p.counters {
		p.flush(i)
	}
}

// Accuracy returns the fraction of correct predictions.
func (p *Predictor) Accuracy() float64 {
	if p.predictions == 0 {
		return 0
	}
	return float64(p.hits) / float64(p.predictions)
}

// WorstCellBias returns the worst cell stress across the two counter
// bits.
func (p *Predictor) WorstCellBias() float64 { return p.bias.WorstCellBias() }
