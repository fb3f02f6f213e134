package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"penelope/internal/experiments"
	"penelope/internal/service"
)

// request is one POST /v1/jobs body.
type request struct {
	Experiment string              `json:"experiment"`
	Options    experiments.Options `json:"options"`
}

// canonical is the options the server keys, runs and reports the
// request under.
func (r request) canonical() experiments.Options {
	spec, _ := experiments.Lookup(r.Experiment)
	return spec.CanonicalOptions(r.Options)
}

// key is the content address the server files the result under.
func (r request) key() string { return service.ResultKey(r.Experiment, r.canonical()) }

func (r request) body() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // two plain fields: cannot fail
	}
	return b
}

// rounds splits every job list into this many consecutive rounds with
// the same class counts; the clients finish one round before starting
// the next, and throughput, median and tail latency are medians over
// rounds, so a burst of host noise moves one round, not the run.
const rounds = 5

// workload is one traffic mix. Every list is fixed by the seed and the
// run length: the same seed gives the same requests in the same order,
// and another seed changes the keys and the order but not how many jobs
// of each class run in each round, so the work per run does not move
// with the seed.
type workload struct {
	name string
	// perSecond sizes the job list: perSecond jobs per second of
	// -seconds. fleet-miss and hit-read use about what the server
	// completes on a 2-core host; sim-miss uses less, because every grid
	// point's trace bank stays resident in the server (~1 MB per job).
	perSecond int
	// jobs returns the measured list: rounds rounds of roundJobs(n)
	// jobs each, n being the requested size.
	jobs func(seed uint64, n int) []request
	// warm returns the requests submitted and awaited during set-up.
	warm func(seed uint64) []request
	// hits marks a workload whose every job must be a cache hit; the
	// others must miss on every job.
	hits bool
}

var workloads = []workload{
	{name: "sim-miss", perSecond: 16, jobs: simMissJobs, warm: simMissWarm},
	{name: "fleet-miss", perSecond: 75, jobs: fleetMissJobs, warm: fleetMissWarm},
	{name: "hit-read", perSecond: 4000, jobs: hitReadJobs, warm: hitReadKeys, hits: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have sim-miss, fleet-miss, hit-read)", name)
}

func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// roundJobs rounds a requested list size down to whole rounds of whole
// class groups of size unit (at least one group per round), and returns
// the jobs per round.
func roundJobs(n, unit int) int {
	return max(n/rounds/unit, 1) * unit
}

// shuffleRounds shuffles each round of the list in place.
func shuffleRounds(r *rand.Rand, list []request) {
	per := len(list) / rounds
	for k := 0; k < rounds; k++ {
		part := list[k*per : (k+1)*per]
		r.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
}

// simStrides and simBaseLength shape the sim-miss grid. Each grid point
// (length, stride) is its own trace bank of ceil(531/stride) traces.
// Lengths are simBaseLength+i for the i-th point and strides cycle
// through simStrides, so every run replays the same multiset of lengths
// and every round the same strides; the seed only changes which length
// meets which stride and the order. Lengths are unique, so every point,
// and every key, is new to the server.
var simStrides = []int{40, 50, 60, 70}

const simBaseLength = 1600

// simMissJobs submits each grid point once as fig6 and once as fig8, in
// the same round (the second job of a point reuses its bank).
func simMissJobs(seed uint64, n int) []request {
	r := rng(seed, 1)
	per := roundJobs(n, 2*len(simStrides))
	points := rounds * per / 2
	lengths := r.Perm(points)
	list := make([]request, 0, 2*points)
	for i := 0; i < points; i++ {
		o := experiments.Options{
			TraceLength: simBaseLength + lengths[i],
			TraceStride: simStrides[i%len(simStrides)],
		}
		list = append(list, request{"fig6", o}, request{"fig8", o})
	}
	shuffleRounds(r, list)
	return list
}

// simMissWarm runs one fig6 and one fig8 job on a point below the grid,
// so lazy start-up work is done before timing and no measured key is
// touched.
func simMissWarm(uint64) []request {
	o := experiments.Options{TraceLength: simBaseLength - 1, TraceStride: simStrides[0]}
	return []request{{"fig6", o}, {"fig8", o}}
}

// fleetPopulation is the fleet-miss chip population.
const fleetPopulation = 500

// fleetSeedBase spreads runs with different seeds over disjoint
// fleet_seed ranges; the warm-up job takes the base itself.
func fleetSeedBase(seed uint64) uint64 { return 1 + (seed%1_000_000)*1_000_000 }

func fleetOptions(fleetSeed uint64) experiments.Options {
	o := experiments.DefaultOptions()
	o.Population = fleetPopulation
	o.FleetSeed = fleetSeed
	return o
}

// fleetMissJobs returns lifetime jobs with distinct fleet seeds on the
// default trace workload, in seeded order.
func fleetMissJobs(seed uint64, n int) []request {
	base := fleetSeedBase(seed)
	list := make([]request, rounds*roundJobs(n, 1))
	for i := range list {
		list[i] = request{"lifetime", fleetOptions(base + 1 + uint64(i))}
	}
	shuffleRounds(rng(seed, 2), list)
	return list
}

// fleetMissWarm measures the duty profile (memoized per trace workload
// in the server) with one lifetime job whose seed is outside the list.
func fleetMissWarm(seed uint64) []request {
	return []request{{"lifetime", fleetOptions(fleetSeedBase(seed))}}
}

// goldenOptions are the options the committed payload goldens under
// internal/experiments/testdata were made with.
func goldenOptions() experiments.Options {
	return experiments.Options{TraceLength: 2000, TraceStride: 90, Population: 600}
}

// goldenIDs are the experiments with committed goldens.
var goldenIDs = []string{"fig6", "fig8", "lifetime", "yield"}

// hitReadKeys is the fixed hit-read key set: the four golden-option
// payloads (fig6/fig8 a few KB, lifetime/yield tens of KB) and four
// options-free payloads of a few hundred bytes to a few KB.
func hitReadKeys(uint64) []request {
	var keys []request
	for _, id := range goldenIDs {
		keys = append(keys, request{id, goldenOptions()})
	}
	for _, id := range []string{"table1", "table2", "fig1", "fig4"} {
		keys = append(keys, request{id, experiments.Options{}})
	}
	return keys
}

// hitReadJobs resubmits every key equally often in every round, in
// seeded order.
func hitReadJobs(seed uint64, n int) []request {
	keys := hitReadKeys(seed)
	list := make([]request, rounds*roundJobs(n, len(keys)))
	for i := range list {
		list[i] = keys[i%len(keys)]
	}
	shuffleRounds(rng(seed, 3), list)
	return list
}

// tailIndex is the index, in an ascending sort of n samples (one
// round's latencies), of the
// highest-percentile sample that has at least ten samples beyond it;
// tailPercentile is that percentile. With fewer than 11 samples the
// maximum is the tail.
func tailIndex(n int) int {
	if n <= 10 {
		return n - 1
	}
	return n - 11
}

func tailPercentile(n int) float64 {
	if n <= 10 {
		return 100
	}
	return 100 * float64(n-10) / float64(n)
}
