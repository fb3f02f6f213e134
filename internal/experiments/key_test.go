package experiments

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"penelope/internal/trace"
)

// TestOptionsKeyCanonical checks that every Options value that runs the
// same workload maps to the same cache key: zero fields normalize to
// the defaults, and JSON field order is irrelevant.
func TestOptionsKeyCanonical(t *testing.T) {
	def := DefaultOptions()
	same := []Options{
		{},
		{TraceLength: def.TraceLength},
		{TraceStride: def.TraceStride},
		{TraceLength: def.TraceLength, TraceStride: def.TraceStride},
		{TraceLength: -1, TraceStride: -7},
	}
	for _, o := range same {
		if got, want := o.Key(), def.Key(); got != want {
			t.Errorf("Options%+v.Key() = %q, want %q", o, got, want)
		}
	}

	// Permuted JSON bodies decode to the same key.
	var a, b Options
	if err := json.Unmarshal([]byte(`{"trace_length":8000,"trace_stride":24}`), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"trace_stride":24,"trace_length":8000}`), &b); err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("permuted JSON keys differ: %q vs %q", a.Key(), b.Key())
	}

	// Distinct workloads get distinct keys.
	if a.Key() == def.Key() {
		t.Error("distinct options share a key")
	}
	if (Options{TraceLength: 8000, TraceStride: 12}).Key() == (Options{TraceLength: 12, TraceStride: 8000}).Key() {
		t.Error("length/stride must not be interchangeable in the key")
	}
}

// TestBankMemoizationSharesKey checks that banks draw on the
// per-process recordings memo through the canonical form: an explicit
// and a zero-valued spelling of the same workload record nothing new,
// and a longer length gets a bank of its own length.
func TestBankMemoizationSharesKey(t *testing.T) {
	// sameBank builds b's bank again from o and reports whether it is
	// equal and recorded nothing.
	sameBank := func(b *trace.Bank, o Options) bool {
		made := recordings.Stats().Misses
		return reflect.DeepEqual(b, o.bank()) && recordings.Stats().Misses == made
	}
	// Stride 531 keeps this cheap: a single recorded trace.
	if !sameBank((Options{TraceLength: 900, TraceStride: 531}).bank(), Options{TraceLength: 900, TraceStride: 531}) {
		t.Error("equal options must share the memoized recordings")
	}
	// A negative stride normalizes to the default before building, so it
	// shares the default-stride recordings for the same length.
	if !sameBank((Options{TraceLength: 900, TraceStride: DefaultOptions().TraceStride}).bank(), Options{TraceLength: 900, TraceStride: -3}) {
		t.Error("normalized-equivalent options must share the memoized recordings")
	}
	if b := (Options{TraceLength: 901, TraceStride: 531}).bank(); b.Length != 901 || b.Sources()[0].Len() != 901 {
		t.Error("distinct options must not share a bank")
	}
	// The default bank's recordings live in the same memo, so they must
	// fit beside a round of sim-miss recordings or every default-option
	// job re-records them.
	d := DefaultOptions()
	if b := trace.BankBytes(d.TraceLength, d.TraceStride); b > recordingBudget/2 {
		t.Errorf("default bank is %d MiB, more than half the %d MiB recordings budget", b>>20, recordingBudget>>20)
	}
}

// TestOptionsCheckLimits checks the request limits against the bank
// size trace.BankBytes computes, the population ceiling and the
// chip-epoch work ceiling: the defaults and the limits themselves are
// admitted, one step past any is refused.
func TestOptionsCheckLimits(t *testing.T) {
	// Stride 531 records one trace, so the largest admitted length is
	// the limit divided by the packed bytes per uop.
	maxLen := MaxBankBytes / trace.BankBytes(1, 531)
	// A million chips in daily epochs: the largest admitted schedule is
	// the work limit's epochs at that population.
	maxDays := MaxChipEpochs / MaxPopulation
	for _, o := range []Options{
		{},
		DefaultOptions(),
		{TraceLength: maxLen, TraceStride: 531},
		{Population: MaxPopulation},
		{Population: MaxPopulation, Years: float64(maxDays) / 365.25, EpochDays: 1},
		{Population: MaxPopulation, Years: float64(maxDays) / 365.25, AttackYears: 5, EpochDays: 1},
		{TraceLength: -1, Population: -1},
	} {
		if err := o.Check(); err != nil {
			t.Errorf("Options%+v refused: %v", o, err)
		}
	}
	for _, o := range []Options{
		{TraceLength: maxLen + 1, TraceStride: 531},
		{TraceLength: 1 << 40},
		{TraceLength: math.MaxInt, TraceStride: 1},
		{Population: MaxPopulation + 1},
		{Population: 100_000_000_000},
		{Population: MaxPopulation, Years: float64(maxDays+1) / 365.25, EpochDays: 1},
		{Population: MaxPopulation, Years: 2800, EpochDays: 1},
		{Population: 1, Years: 1e300},
	} {
		if err := o.Check(); err == nil {
			t.Errorf("Options%+v admitted", o)
		}
	}
}
