package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"penelope/internal/mitigation"
	"penelope/internal/trace"
)

func TestTotalBits(t *testing.T) {
	if got := TotalBits(); got != 144 {
		t.Errorf("TotalBits = %d, want 144 (Table 2)", got)
	}
	if len(Specs()) != int(NumFields) {
		t.Error("Specs length mismatch")
	}
	if Spec(FieldOpcode).Plot {
		t.Error("opcode must be excluded from Figure 8")
	}
	if !Spec(FieldSRC1Data).DataField || Spec(FieldValid).DataField {
		t.Error("data-field marking wrong")
	}
	if FieldLatency.String() != "latency" || FieldID(99).String() == "" {
		t.Error("field names wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Spec(99) did not panic")
		}
	}()
	Spec(FieldID(99))
}

func TestConfigValidate(t *testing.T) {
	if (Config{Entries: 0, AllocPorts: 1}).Validate() == nil {
		t.Error("zero entries should be invalid")
	}
	if (Config{Entries: 32, AllocPorts: 0}).Validate() == nil {
		t.Error("zero ports should be invalid")
	}
	defer func() {
		if recover() == nil {
			t.Error("New with bad config did not panic")
		}
	}()
	New(Config{})
}

// freeSlots is a FIFO free list standing in for the scheduler's owner
// (the pipeline core keeps the real one): pop returns the oldest free
// slot, push returns a released one to the back.
type freeSlots []int

func newFreeSlots(n int) *freeSlots {
	q := make(freeSlots, n)
	for i := range q {
		q[i] = i
	}
	return &q
}

func (q *freeSlots) pop() (int, bool) {
	if len(*q) == 0 {
		return -1, false
	}
	slot := (*q)[0]
	*q = (*q)[1:]
	return slot, true
}

func (q *freeSlots) push(slot int) { *q = append(*q, slot) }

func TestDispatchIssueReleaseLifecycle(t *testing.T) {
	s := New(Config{Entries: 2, AllocPorts: 4})
	d := Dispatch{Latency: 3, Port: 2, Src1Data: 0xABCD}
	s.Dispatch(0, &d, 1)
	s.MarkReady(0, true, true, 2)
	s.Issue(0, 3)
	s.Release(0, 5)
	// The released slot takes a dispatch again; with both slots busy, a
	// third dispatch into either is a bug in the owner's free list.
	s.Dispatch(0, &d, 6)
	s.Dispatch(1, &d, 6)
	for slot := 0; slot < 2; slot++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dispatch into busy slot %d did not panic", slot)
				}
			}()
			s.Dispatch(slot, &d, 6)
		}()
	}
	s.Finish(10)
	if r := s.Report(); r.Dispatches != 3 {
		t.Fatalf("dispatches = %d, want 3", r.Dispatches)
	}
}

func TestLifecyclePanics(t *testing.T) {
	s := New(Config{Entries: 2, AllocPorts: 4})
	slot := 0
	s.Dispatch(slot, &Dispatch{}, 1)
	s.Issue(slot, 2)
	for _, f := range []func(){
		func() { s.Issue(slot, 3) },               // double issue
		func() { s.MarkReady(1, true, false, 3) }, // free slot
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
	s.Release(slot, 4)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	s.Release(slot, 5)
}

// driveScheduler runs a synthetic pipeline over the scheduler: dispatch
// from a trace, issue after a queue delay, release shortly after,
// targeting the paper's ~63% occupancy.
func driveScheduler(s *Scheduler, tr *trace.Trace, cycles uint64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	type inflight struct {
		slot          int
		issueAt, done uint64
	}
	var live []inflight
	free := newFreeSlots(s.Config().Entries)
	tags := 0
	for cyc := uint64(0); cyc < cycles; cyc++ {
		// Retire matured entries.
		keep := live[:0]
		for _, fl := range live {
			switch {
			case fl.done <= cyc:
				s.Release(fl.slot, cyc)
				free.push(fl.slot)
			default:
				if fl.issueAt == cyc {
					s.MarkReady(fl.slot, true, true, cyc)
					s.Issue(fl.slot, cyc)
				}
				keep = append(keep, fl)
			}
		}
		live = keep
		// Dispatch up to 2 uops per cycle; waiting times are tuned so
		// occupancy lands near the paper's 63%.
		for n := 0; n < 2; n++ {
			if rng.Float64() > 0.50 {
				continue
			}
			u, ok := tr.NextUop()
			if !ok {
				tr.Reset()
				u, _ = tr.NextUop()
			}
			d := FromUop(u, tags%128, (tags+7)%128, (tags+13)%128, rng.Float64() < 0.5, rng.Float64() < 0.5)
			tags++
			slot, ok := free.pop()
			if !ok {
				break
			}
			s.Dispatch(slot, &d, cyc)
			wait := uint64(6 + rng.Intn(27))
			live = append(live, inflight{slot: slot, issueAt: cyc + wait, done: cyc + wait + 2})
		}
	}
	s.Finish(cycles)
}

func newTestScheduler(plan *Plan) *Scheduler {
	return New(Config{Entries: 32, AllocPorts: 4, RINVPeriod: 64, Plan: plan})
}

func TestBaselineSchedulerBias(t *testing.T) {
	s := newTestScheduler(nil)
	driveScheduler(s, trace.NewTrace(trace.Multimedia, 1, 40000), 30000, 1)
	r := s.Report()
	// §4.5: occupancy around 63%, some flags/shift bits near 100% bias.
	if r.EntryOccupancy < 0.40 || r.EntryOccupancy > 0.85 {
		t.Errorf("entry occupancy = %.2f, want moderate-high (~0.63)", r.EntryOccupancy)
	}
	if r.DataOccupancy >= r.EntryOccupancy {
		t.Error("data fields release at issue; their occupancy must be lower")
	}
	if got := r.WorstBias(); got < 0.90 {
		t.Errorf("baseline worst bias = %.3f, want near 1.0", got)
	}
	shift := r.Fields[FieldShift1]
	if shift.Biases[0] < 0.90 {
		t.Errorf("shift1 zero bias = %.3f, want near 1 (rare partial-register uops)", shift.Biases[0])
	}
	if len(r.BitSeries()) != TotalBits()-Spec(FieldOpcode).Bits {
		t.Errorf("BitSeries length = %d", len(r.BitSeries()))
	}
	if r.String() == "" {
		t.Error("report should render")
	}
}

func TestBuildPlanMatchesPaperClassification(t *testing.T) {
	s := newTestScheduler(nil)
	driveScheduler(s, trace.NewTrace(trace.Multimedia, 2, 40000), 30000, 2)
	base := s.Report()
	plan := BuildPlan(base)

	// §4.5's classification: flags, shift1, shift2 and the top latency
	// bits are ALL1 (stored zeros nearly all busy time, occupancy·bias
	// > 50%); SRC data and immediate are ISV (free > 50%); tags and MOB
	// id are self-balanced; the valid bit is uncovered.
	for _, f := range []FieldID{FieldShift1, FieldShift2} {
		if got := plan.Technique(f); got != mitigation.TechALL1 {
			t.Errorf("%v technique = %v, want ALL1", f, got)
		}
	}
	for _, f := range []FieldID{FieldSRC1Data, FieldSRC2Data, FieldImm} {
		if got := plan.Technique(f); got != mitigation.TechISV {
			t.Errorf("%v technique = %v, want ISV", f, got)
		}
	}
	for _, f := range []FieldID{FieldDSTTag, FieldSRC1Tag, FieldSRC2Tag, FieldMOBid} {
		got := plan.Technique(f)
		if got != mitigation.TechSelfBalanced {
			t.Errorf("%v technique = %v, want self-balanced", f, got)
		}
	}
	if got := plan.Technique(FieldValid); got != mitigation.TechUncovered {
		t.Errorf("valid technique = %v, want uncovered", got)
	}
	// Flags: the high flag bits (OF/PF/AF rare) must be ALL1.
	flagsPlan := plan.Fields[FieldFlags]
	if flagsPlan[3].Technique != mitigation.TechALL1 {
		t.Errorf("flags bit OF technique = %v, want ALL1", flagsPlan[3].Technique)
	}
}

// TestProtectedSchedulerBias reproduces Figure 8 / §4.5: applying the
// techniques pulls the worst bias from ~100% down to the valid-bit /
// ALL1 level (paper: 63.2%), with most bits near 50%.
func TestProtectedSchedulerBias(t *testing.T) {
	// Profile on one trace...
	prof := newTestScheduler(nil)
	driveScheduler(prof, trace.NewTrace(trace.Multimedia, 3, 40000), 30000, 3)
	plan := BuildPlan(prof.Report())

	// ...evaluate on another (the paper profiles on 100 traces, runs on
	// the remaining 431).
	s := newTestScheduler(plan)
	driveScheduler(s, trace.NewTrace(trace.Multimedia, 4, 40000), 30000, 4)
	r := s.Report()

	if r.RepairWrites == 0 {
		t.Fatal("no repair writes happened")
	}
	worst := r.WorstBias()
	if worst > 0.80 {
		t.Errorf("protected worst bias = %.3f, want well below baseline (~0.63 in paper)", worst)
	}
	// Data fields must balance near 50%.
	for _, f := range []FieldID{FieldSRC1Data, FieldSRC2Data, FieldImm} {
		if b := r.Fields[f].WorstBias; b > 0.60 {
			t.Errorf("%v worst bias = %.3f, want ≈ 0.5 under ISV", f, b)
		}
	}
	// The valid bit remains at its occupancy-driven bias.
	validBias := r.Fields[FieldValid].WorstBias
	if validBias < 0.52 {
		t.Errorf("valid bit bias = %.3f; it cannot be repaired", validBias)
	}
}

func TestPortAvailabilityReported(t *testing.T) {
	s := newTestScheduler(nil)
	driveScheduler(s, trace.NewTrace(trace.Office, 0, 30000), 20000, 5)
	r := s.Report()
	if r.PortAvailability <= 0 || r.PortAvailability > 1 {
		t.Errorf("port availability = %v", r.PortAvailability)
	}
	if r.Dispatches == 0 {
		t.Error("no dispatches recorded")
	}
}

// TestResetMatchesFresh requires a reset scheduler — baseline, planned
// from a profile, and with a random per-bit plan that ticks K% duty
// counters — to account a workload exactly as a fresh one does.
func TestResetMatchesFresh(t *testing.T) {
	profile := newTestScheduler(nil)
	driveScheduler(profile, trace.NewTrace(trace.Multimedia, 2, 8000), 6000, 3)
	plans := []*Plan{nil, BuildPlan(profile.Report()), randomPlan(rand.New(rand.NewSource(8)), 6)}
	for i, plan := range plans {
		s := newTestScheduler(plan)
		driveScheduler(s, trace.NewTrace(trace.Server, 1, 8000), 6000, 5)
		want := s.Report()
		s.Reset()
		driveScheduler(s, trace.NewTrace(trace.Server, 1, 8000), 6000, 5)
		if got := s.Report(); !reflect.DeepEqual(got, want) {
			t.Errorf("plan %d: reset scheduler reports\n%+v\nwant\n%+v", i, got, want)
		}
	}
}
