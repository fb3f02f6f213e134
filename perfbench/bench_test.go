package main

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"penelope/internal/store/vfs"
)

// testSize is a list size that fills every round of every workload.
const testSize = 400

func TestSameSeedSameList(t *testing.T) {
	for _, w := range workloads {
		a, b := w.jobs(7, testSize), w.jobs(7, testSize)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two lists from seed 7 differ", w.name)
		}
		if len(a)%rounds != 0 || len(a) == 0 {
			t.Errorf("%s: %d jobs do not split into %d rounds", w.name, len(a), rounds)
		}
	}
}

func TestOtherSeedSameClassCounts(t *testing.T) {
	for _, w := range workloads {
		a, b := w.jobs(1, testSize), w.jobs(2, testSize)
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 give the same list", w.name)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d jobs", w.name, len(a), len(b))
		}
		per := len(a) / rounds
		for k := 0; k < rounds; k++ {
			ra, rb := a[k*per:(k+1)*per], b[k*per:(k+1)*per]
			if !reflect.DeepEqual(classCounts(ra), classCounts(rb)) {
				t.Errorf("%s round %d: class counts %v vs %v", w.name, k, classCounts(ra), classCounts(rb))
			}
		}
	}
}

// The sim-miss rounds also carry the same strides, so the same amount
// of pipeline work, whatever the seed.
func TestSimMissRoundsBalanceStrides(t *testing.T) {
	list := simMissJobs(3, testSize)
	per := len(list) / rounds
	for k := 0; k < rounds; k++ {
		strides := map[int]int{}
		for _, r := range list[k*per : (k+1)*per] {
			strides[r.Options.TraceStride]++
		}
		for _, s := range simStrides {
			if strides[s] != per/len(simStrides) {
				t.Errorf("round %d: stride %d appears %d times, want %d", k, s, strides[s], per/len(simStrides))
			}
		}
	}
}

func TestMissKeysDistinct(t *testing.T) {
	for _, name := range []string{"sim-miss", "fleet-miss"} {
		w, _ := lookupWorkload(name)
		list := append(w.jobs(5, testSize), w.warm(5)...)
		if d := distinct(list); len(d) != len(list) {
			t.Errorf("%s: %d distinct keys among %d requests (warm-up included)", name, len(d), len(list))
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 down to 1
	}
	if got := tail(xs); got != 90 {
		t.Errorf("tail of 1..100 = %v, want 90 (ten samples beyond it)", got)
	}
	for _, c := range []struct {
		n    int
		idx  int
		pctl float64
	}{{400, 389, 97.5}, {11, 0, 100 * 1 / 11.0}, {10, 9, 100}, {1, 0, 100}} {
		if got := tailIndex(c.n); got != c.idx {
			t.Errorf("tailIndex(%d) = %d, want %d", c.n, got, c.idx)
		}
		if got := tailPercentile(c.n); got != c.pctl {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.pctl)
		}
	}
}

// Every golden passes the output check as committed, and fails it with
// any single byte changed.
func TestOutputCheckRejectsOneByteCorruption(t *testing.T) {
	for _, id := range goldenIDs {
		golden, err := os.ReadFile(filepath.Join("..", "internal", "experiments", "testdata", id+"_golden.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkGolden("..", id, golden); err != nil {
			t.Fatalf("%s: committed golden fails the check: %v", id, err)
		}
		// Positions inside the data section, where a changed digit still
		// parses; lifetime and yield are also checked in the envelope.
		positions := []int{len(golden) / 2, len(golden) * 3 / 4, len(golden) - 10}
		if id == "lifetime" || id == "yield" {
			positions = append(positions, 0, 20)
		}
		for _, pos := range positions {
			bad := slices.Clone(golden)
			if bad[pos] >= '0' && bad[pos] <= '8' {
				bad[pos]++
			} else {
				bad[pos] ^= 0x20
			}
			if err := checkGolden("..", id, bad); err == nil {
				t.Errorf("%s: byte %d changed (%q -> %q) passes the output check", id, pos, golden[pos], bad[pos])
			}
		}
	}
}

func TestCheckPayloadRejectsWrongRequest(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "internal", "experiments", "testdata", "lifetime_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	ok := request{"lifetime", goldenOptions()}
	if err := checkPayload(ok, golden); err != nil {
		t.Fatalf("golden fails checkPayload: %v", err)
	}
	other := goldenOptions()
	other.FleetSeed = 9
	for _, r := range []request{{"yield", goldenOptions()}, {"lifetime", other}} {
		if checkPayload(r, golden) == nil {
			t.Errorf("lifetime golden accepted for request %+v", r)
		}
	}
	if checkPayload(ok, golden[:len(golden)-1]) == nil {
		t.Error("truncated payload accepted")
	}
}

// Repeated atomic writes of one checkpoint are each counted, although
// inotify merges identical unread events.
func TestCheckpointWatchCountsRewrites(t *testing.T) {
	dir := t.TempDir()
	ckpts := filepath.Join(dir, "checkpoints")
	if err := os.MkdirAll(ckpts, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := watchCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := vfs.WriteAtomic(vfs.OS{}, filepath.Join(ckpts, "00ff.ckpt"), []byte("state")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := vfs.WriteAtomic(vfs.OS{}, filepath.Join(ckpts, "00ff.job"), []byte("record")); err != nil {
		t.Fatal(err)
	}
	if got := w.close(); got != 7 {
		t.Errorf("counted %d checkpoints, want 7", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// Client window [0,100]: submit [0,10] holding server admit [2,4],
	// a sleep [10,50] during which the server runs [12,45], a poll
	// [50,60], then nothing until fetch [70,100].
	o := outcome{start: 0, end: 100, spans: []span{
		{Name: "job", Start: 0, End: 100},
		{Name: "submit", Parent: "job", Start: 0, End: 10},
		{Name: "server.admit", Parent: "job", Start: 2, End: 4},
		{Name: "poll-sleep", Parent: "job", Start: 10, End: 50},
		{Name: "server.run", Parent: "job", Start: 12, End: 45},
		{Name: "poll", Parent: "job", Start: 50, End: 60},
		{Name: "fetch", Parent: "job", Start: 70, End: 100},
	}}
	self, gaps := selfTimes([]outcome{o})
	want := map[string]int64{"submit": 8, "server.admit": 2, "poll-sleep": 7, "server.run": 33, "poll": 10, "fetch": 30}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if !reflect.DeepEqual(gaps, []int64{10}) {
		t.Errorf("gaps %v, want [10]", gaps)
	}
}

// classCounts counts the jobs of each experiment in a list.
func classCounts(list []request) map[string]int {
	c := map[string]int{}
	for _, r := range list {
		c[r.Experiment]++
	}
	return c
}
