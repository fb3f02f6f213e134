package tsdb

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"penelope/internal/obs"
)

var t0 = time.UnixMilli(1_700_000_000_000)

func memDB(t *testing.T, reg *obs.Registry, interval time.Duration) *DB {
	t.Helper()
	db, err := Open(Config{Registry: reg, Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestCounterRateQuery(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("jobs_total", "jobs")
	db := memDB(t, reg, time.Second)
	// 2 jobs per second for 30s.
	for i := 0; i < 30; i++ {
		c.Add(2)
		db.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	res, err := db.Query(Query{Name: "jobs_total", From: t0, To: t0.Add(29 * time.Second), Step: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "counter" || res.Agg != "rate" {
		t.Fatalf("kind/agg = %s/%s, want counter/rate", res.Kind, res.Agg)
	}
	pts := res.Series[0].Points
	if len(pts) < 4 {
		t.Fatalf("got %d rate points, want ≥ 4: %+v", len(pts), pts)
	}
	for _, p := range pts {
		if p.V != 2 {
			t.Fatalf("steady 2/s counter rated %v at %d: %+v", p.V, p.T, pts)
		}
	}

	inc, err := db.Query(Query{Name: "jobs_total", From: t0, To: t0.Add(29 * time.Second), Step: 10 * time.Second, Agg: "increase"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range inc.Series[0].Points {
		if p.V != 20 {
			t.Fatalf("10s increase = %v, want 20", p.V)
		}
	}
}

func TestGaugeAggregations(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("depth", "queue depth")
	db := memDB(t, reg, time.Second)
	for i := 0; i < 10; i++ {
		g.Set(float64(i)) // 0..9
		db.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	end := t0.Add(9 * time.Second)
	for agg, want := range map[string]float64{"last": 9, "min": 1, "max": 9, "avg": 5} {
		res, err := db.Query(Query{Name: "depth", From: t0, To: end, Step: 9 * time.Second, Agg: agg})
		if err != nil {
			t.Fatal(err)
		}
		pts := res.Series[0].Points
		if len(pts) == 0 {
			t.Fatalf("%s: no points", agg)
		}
		got := pts[len(pts)-1].V
		if got != want {
			t.Fatalf("%s over (t0, t0+9s] = %v, want %v", agg, got, want)
		}
	}
}

func TestUnknownSeries(t *testing.T) {
	db := memDB(t, obs.NewRegistry(), time.Second)
	_, err := db.Query(Query{Name: "nope", From: t0, To: t0.Add(time.Second), Step: time.Second})
	if err == nil || !strings.Contains(err.Error(), "no such series") {
		t.Fatalf("query of unknown series: %v", err)
	}
}

// TestQueryRejectsOverflowingRange pins the overflow guard: a bound
// whose unix milliseconds overflow int64 used to wrap the point count
// negative past the 100000-point check and panic in makeslice. Such
// ranges are errors; the widest accepted ranges evaluate normally.
func TestQueryRejectsOverflowingRange(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("jobs_total", "jobs")
	db := memDB(t, reg, time.Second)
	const edge = (1 << 61) / 1000 // first rejected unix second
	for _, q := range []Query{
		{From: time.Unix(0, 0), To: time.Unix(9_300_000_000_000_000, 0), Step: time.Second},
		{From: time.Unix(0, 0), To: time.Unix(math.MaxInt64/2, 0), Step: time.Hour},
		{From: time.Unix(-edge, 0), To: time.Unix(0, 0), Step: time.Second},
		{From: time.Unix(0, 0), To: time.Unix(edge, 0), Step: time.Duration(math.MaxInt64)},
	} {
		q.Name = "jobs_total"
		if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("query %v..%v: err = %v, want out of range", q.From.Unix(), q.To.Unix(), err)
		}
	}
	// The widest accepted span counts its points exactly.
	wide := Query{Name: "jobs_total", From: time.Unix(1-edge, 0), To: time.Unix(edge-1, 0), Step: time.Duration(math.MaxInt64)}
	if _, err := db.Query(wide); err == nil || !strings.Contains(err.Error(), "yields 500001 points") {
		t.Errorf("widest range: err = %v, want 500001 points", err)
	}
	near := Query{Name: "jobs_total", From: time.Unix(edge-10, 0), To: time.Unix(edge-1, 0), Step: time.Second}
	res, err := db.Query(near)
	if err != nil {
		t.Fatal(err)
	}
	if res.FromMs != (edge-10)*1000 || res.ToMs != (edge-1)*1000 {
		t.Fatalf("range next to the edge = [%d, %d] ms", res.FromMs, res.ToMs)
	}
}

// TestDownsampleTiersBracket samples a pseudo-random gauge stream and
// checks every closed tier-1 and tier-2 aggregate against the raw
// stream: min/max/sum/cnt must match the raw points in the window
// exactly, so the window mean always sits inside [min, max].
func TestDownsampleTiersBracket(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("sig", "")
	db := memDB(t, reg, time.Second)
	seed := uint64(42)
	type sample struct {
		t int64
		v float64
	}
	var all []sample
	for i := 0; i < 1000; i++ {
		v := float64(splitmix(&seed)%10_000)/13.0 - 300
		g.Set(v)
		now := t0.Add(time.Duration(i) * time.Second)
		db.Sample(now)
		all = append(all, sample{t: now.UnixMilli(), v: v})
	}
	s := db.series["sig"]
	checkTier := func(name string, r *obs.Ring[aggPoint], winMs int64) {
		if r.Len() == 0 {
			t.Fatalf("%s: no aggregates", name)
		}
		for i := 0; i < r.Len(); i++ {
			a := r.At(i)
			var (
				mn, mx, sum float64
				cnt         uint32
			)
			for _, p := range all {
				if p.t < a.t || p.t >= a.t+winMs {
					continue
				}
				if cnt == 0 {
					mn, mx = p.v, p.v
				} else {
					mn = math.Min(mn, p.v)
					mx = math.Max(mx, p.v)
				}
				sum += p.v
				cnt++
			}
			if cnt != a.cnt || mn != a.min || mx != a.max || sum != a.sum {
				t.Fatalf("%s window @%d: agg{min %v max %v sum %v cnt %d}, raw{%v %v %v %d}",
					name, a.t, a.min, a.max, a.sum, a.cnt, mn, mx, sum, cnt)
			}
			mean := a.sum / float64(a.cnt)
			if mean < a.min || mean > a.max {
				t.Fatalf("%s window @%d: mean %v outside [%v, %v]", name, a.t, mean, a.min, a.max)
			}
		}
	}
	checkTier("tier1", &s.t1, db.win1Ms)
	checkTier("tier2", &s.t2, db.win2Ms)
}

// TestTierFallback: a query whose range predates the raw ring must be
// served from an aggregate tier rather than returning nothing.
func TestTierFallback(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("old", "")
	db, err := Open(Config{Registry: reg, Interval: time.Second, rawPoints: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 400; i++ { // raw ring keeps only the last 32
		g.Set(float64(i))
		db.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	res, err := db.Query(Query{Name: "old", From: t0, To: t0.Add(100 * time.Second), Step: 20 * time.Second, Agg: "max"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series[0].Points) == 0 {
		t.Fatal("query over aged-out range returned no points; tier fallback broken")
	}
}

func TestHistogramQuantileQuery(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat_seconds", "", []float64{0.1, 1, 10})
	db := memDB(t, reg, time.Second)
	for i := 0; i < 20; i++ {
		h.Observe(0.5) // all mass in (0.1, 1]
		db.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	res, err := db.Query(Query{Name: "lat_seconds", From: t0, To: t0.Add(19 * time.Second), Step: 5 * time.Second, Quantile: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg != "quantile" || res.Quantile != 0.99 {
		t.Fatalf("agg/quantile = %s/%v", res.Agg, res.Quantile)
	}
	pts := res.Series[0].Points
	if len(pts) == 0 {
		t.Fatal("no quantile points")
	}
	for _, p := range pts {
		if p.V <= 0.1 || p.V > 1 {
			t.Fatalf("p99 = %v at %d, want inside the (0.1, 1] bucket", p.V, p.T)
		}
	}

	rate, err := db.Query(Query{Name: "lat_seconds", From: t0, To: t0.Add(19 * time.Second), Step: 5 * time.Second, Agg: "rate"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rate.Series[0].Points {
		if p.V != 1 {
			t.Fatalf("1-observation/s histogram rated %v", p.V)
		}
	}
	avg, err := db.Query(Query{Name: "lat_seconds", From: t0, To: t0.Add(19 * time.Second), Step: 5 * time.Second, Agg: "avg"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range avg.Series[0].Points {
		if p.V != 0.5 {
			t.Fatalf("avg = %v, want 0.5", p.V)
		}
	}
}

func TestHistogramVecCells(t *testing.T) {
	reg := obs.NewRegistry()
	v := reg.HistogramVec("http_seconds", "", "route", []float64{1, 2})
	db := memDB(t, reg, time.Second)
	for i := 0; i < 5; i++ {
		v.With("/a").Observe(0.5)
		v.With("/b").Observe(1.5)
		db.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	res, err := db.Query(Query{Name: "http_seconds", From: t0, To: t0.Add(4 * time.Second), Step: 2 * time.Second, Agg: "rate"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 || res.Series[0].Value != "/a" || res.Series[1].Value != "/b" {
		t.Fatalf("vec query returned %+v, want cells /a and /b", res.Series)
	}
	one, err := db.Query(Query{Name: "http_seconds", Label: "/b", From: t0, To: t0.Add(4 * time.Second), Step: 2 * time.Second, Agg: "rate"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Series) != 1 || one.Series[0].Value != "/b" {
		t.Fatalf("label-filtered query returned %+v", one.Series)
	}
}

// TestGaugeVecCells checks each cell of a gauge vec samples into its
// own series and queries like a histogram vec's cells: all of them, or
// the one a label names.
func TestGaugeVecCells(t *testing.T) {
	reg := obs.NewRegistry()
	a, b := 0.0, 0.0
	reg.GaugeFuncVec("held_bytes", "", "holder",
		obs.GaugeCell{Value: "a", Read: func() float64 { return a }},
		obs.GaugeCell{Value: "b", Read: func() float64 { return b }})
	db := memDB(t, reg, time.Second)
	for i := 0; i < 5; i++ {
		a, b = float64(i), float64(10*i)
		db.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	q := Query{Name: "held_bytes", From: t0, To: t0.Add(4 * time.Second), Step: 2 * time.Second}
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "gauge" || len(res.Series) != 2 || res.Series[0].Value != "a" || res.Series[1].Value != "b" {
		t.Fatalf("gauge vec query returned %+v, want cells a and b", res)
	}
	for i, s := range res.Series {
		last := s.Points[len(s.Points)-1]
		if want := []float64{4, 40}[i]; last.V != want {
			t.Errorf("cell %s: last point %v, want %v", s.Value, last.V, want)
		}
	}
	q.Label = "b"
	one, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Series) != 1 || one.Series[0].Value != "b" {
		t.Fatalf("label-filtered query returned %+v", one.Series)
	}
	names := db.Names()
	if len(names) != 1 || names[0].Label != "holder" || len(names[0].Values) != 2 {
		t.Fatalf("Names = %+v", names)
	}
}

func TestNamesListing(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("b_total", "help b")
	reg.HistogramVec("a_seconds", "", "route", []float64{1, 2}).With("/x").Observe(1)
	db := memDB(t, reg, time.Second)
	names := db.Names()
	if len(names) != 2 || names[0].Name != "a_seconds" || names[1].Name != "b_total" {
		t.Fatalf("Names = %+v", names)
	}
	if names[0].Kind != "histogram" || names[0].Label != "route" ||
		len(names[0].Values) != 1 || names[0].Values[0] != "/x" || len(names[0].Bounds) != 2 {
		t.Fatalf("histogram meta = %+v", names[0])
	}
	if names[1].Kind != "counter" || names[1].Help != "help b" {
		t.Fatalf("counter meta = %+v", names[1])
	}
}

// TestPersistRestartByteIdentical is the acceptance-criteria invariant:
// sample, flush, kill; a rebooted DB over the same directory answers
// the same range query with byte-identical JSON.
func TestPersistRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	clock := func() time.Time { return t0 }
	mkReg := func() (*obs.Registry, *obs.Counter, *obs.Histogram) {
		reg := obs.NewRegistry()
		return reg, reg.Counter("jobs_total", "jobs"), reg.Histogram("lat_seconds", "", []float64{0.1, 1, 10})
	}
	reg, c, h := mkReg()
	db, err := Open(Config{Registry: reg, Interval: time.Second, Dir: dir, flushEvery: 7, clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(7)
	for i := 0; i < 25; i++ {
		c.Add(splitmix(&seed) % 5)
		h.Observe(float64(splitmix(&seed)%200) / 100.0)
		db.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	db.Close() // flushes the tail

	run := func(db *DB) [][]byte {
		t.Helper()
		var outs [][]byte
		for _, q := range []Query{
			{Name: "jobs_total", From: t0, To: t0.Add(24 * time.Second), Step: 4 * time.Second},
			{Name: "lat_seconds", From: t0, To: t0.Add(24 * time.Second), Step: 6 * time.Second, Quantile: 0.95},
		} {
			res, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, b)
		}
		return outs
	}
	// Reopen over the same directory with a fresh (zeroed) registry: the
	// answers must come from the loaded blocks alone.
	reg2, _, _ := mkReg()
	db2, err := Open(Config{Registry: reg2, Interval: time.Second, Dir: dir, clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	reg3, c3, h3 := mkReg()
	db3, err := Open(Config{Registry: reg3, Interval: time.Second, Dir: t.TempDir(), flushEvery: 7, clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	seed = 7
	for i := 0; i < 25; i++ {
		c3.Add(splitmix(&seed) % 5)
		h3.Observe(float64(splitmix(&seed)%200) / 100.0)
		db3.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	want, got := run(db3), run(db2)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("query %d diverged after restart:\nlive:     %s\nrestored: %s", i, want[i], got[i])
		}
	}
	if st := db2.Stats(); st.BlocksLoaded == 0 || st.BlocksQuarantined != 0 {
		t.Fatalf("restart stats = %+v, want loaded blocks and no quarantine", st)
	}
}

func TestQuarantineCorruptBlock(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c := reg.Counter("x_total", "")
	db, err := Open(Config{Registry: reg, Interval: time.Second, Dir: dir, flushEvery: 5, clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // two flushes of five samples
		c.Inc()
		db.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	db.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), blockSuffix) {
			blocks = append(blocks, e.Name())
		}
	}
	if len(blocks) != 2 {
		t.Fatalf("have %d blocks, want 2: %v", len(blocks), blocks)
	}
	// Flip one payload byte in the newest block.
	victim := filepath.Join(dir, blocks[1])
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(blockMagic)+8+2] ^= 0xff
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Config{Registry: obs.NewRegistry(), Interval: time.Second, Dir: dir, clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	st := db2.Stats()
	if st.BlocksLoaded != 1 || st.BlocksQuarantined != 1 {
		t.Fatalf("stats after corrupt reopen = %+v, want 1 loaded / 1 quarantined", st)
	}
	if _, err := os.Stat(victim + quarantineSx); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		t.Fatalf("corrupt block still under its final name: %v", err)
	}
}

func TestRetentionExpiresAtBoot(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c := reg.Counter("x_total", "")
	db, err := Open(Config{Registry: reg, Interval: time.Second, Dir: dir, flushEvery: 5, clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Inc()
		db.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	db.Close()
	// Reboot far past retention: everything but the newest block expires.
	future := t0.Add(400 * time.Hour)
	db2, err := Open(Config{Registry: obs.NewRegistry(), Interval: time.Second, Dir: dir, Retention: time.Hour, clock: func() time.Time { return future }})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st := db2.Stats(); st.Blocks != 1 || st.BlocksDeleted == 0 {
		t.Fatalf("post-retention stats = %+v, want 1 surviving block", st)
	}
}

func TestScrubQuarantinesBitRot(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c := reg.Counter("x_total", "")
	db, err := Open(Config{Registry: reg, Interval: time.Second, Dir: dir, flushEvery: 3, ScrubInterval: time.Minute, clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 6; i++ {
		c.Inc()
		db.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	ents, _ := os.ReadDir(dir)
	var victim string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), blockSuffix) {
			victim = filepath.Join(dir, e.Name())
			break
		}
	}
	if victim == "" {
		t.Fatal("no block to corrupt")
	}
	data, _ := os.ReadFile(victim)
	data[len(data)-1] ^= 0xff // break the checksum
	os.WriteFile(victim, data, 0o644)
	// Next sample past the scrub interval triggers the pass.
	c.Inc()
	db.Sample(t0.Add(2 * time.Minute))
	st := db.Stats()
	if st.ScrubPasses == 0 || st.BlocksQuarantined != 1 {
		t.Fatalf("scrub stats = %+v, want a pass and 1 quarantined block", st)
	}
}

func TestHistoryReductions(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("req_total", "")
	g := reg.Gauge("gb", "")
	db := memDB(t, reg, time.Second)
	for i := 0; i < 10; i++ {
		c.Add(3)
		g.Set(float64(i) * 2) // slope 2/s
		db.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	now := t0.Add(9 * time.Second)
	if inc, ok := db.Increase("req_total", 20*time.Second, now); !ok || inc != 27 {
		t.Fatalf("Increase = %v, %v; want 27 over 9 deltas of 3", inc, ok)
	}
	if avg, ok := db.Avg("gb", 20*time.Second, now); !ok || avg != 9 {
		t.Fatalf("Avg = %v, %v; want 9 (mean of 0..18)", avg, ok)
	}
	slope, ok := db.Slope("gb", 20*time.Second, now)
	if !ok || math.Abs(slope-2) > 1e-9 {
		t.Fatalf("Slope = %v, %v; want 2.0/s", slope, ok)
	}
	if _, ok := db.Increase("missing", time.Minute, now); ok {
		t.Fatal("Increase on a missing series reported ok")
	}
}

// TestSampleSteadyStateAllocs pins the sampler's hot path at zero heap
// allocations once bindings are resolved and every tier is full. A
// small rawPoints fills the 100x tier after 200×rawPoints samples; the
// count is then taken over 200 samples in one run, so a single
// allocation shows instead of rounding away.
func TestSampleSteadyStateAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("a_total", "")
	g := reg.Gauge("b_gauge", "")
	h := reg.Histogram("c_seconds", "", []float64{0.1, 1, 10})
	v := reg.HistogramVec("d_seconds", "", "route", []float64{0.1, 1})
	v.With("/x").Observe(0.5)
	v.With("/y").Observe(2)
	reg.GaugeFuncVec("e_bytes", "", "holder",
		obs.GaugeCell{Value: "p", Read: g.Value}, obs.GaugeCell{Value: "q", Read: g.Value})
	const rawPoints = 4
	db, err := Open(Config{Registry: reg, Interval: time.Second, rawPoints: rawPoints})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	now := t0
	step := func() {
		c.Inc()
		g.Set(1)
		h.Observe(0.2)
		now = now.Add(time.Second)
		db.Sample(now)
	}
	for i := 0; i <= 200*rawPoints; i++ {
		step()
	}
	for _, s := range db.order {
		if !s.raw.Full() || !s.t1.Full() || !s.t2.Full() {
			t.Fatalf("%s: tiers not full after warm-up (raw %d, t1 %d, t2 %d)", s.name, s.raw.Len(), s.t1.Len(), s.t2.Len())
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 200; i++ {
			step()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Sample allocated %v times over 200 samples, want 0", allocs)
	}
}

// TestFreshHistoryHoldsWhatItSampled samples a registry of over a
// thousand flat series once and requires the history to cost what it
// holds: under 2 MB of live heap, where rings allocated at full
// capacity (57.6 KB per series at the default rawPoints) would hold
// about 60 MB.
func TestFreshHistoryHoldsWhatItSampled(t *testing.T) {
	reg := obs.NewRegistry()
	v := reg.HistogramVec("req_seconds", "", "route", obs.LatencyBuckets())
	for i := 0; i < 36; i++ {
		v.With("/r" + itoa(i)).Observe(float64(i) * 1e-4)
	}
	db := memDB(t, reg, 10*time.Second)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db.Sample(t0)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := db.Stats().Series; n < 1000 {
		t.Fatalf("registry flattened to %d series, want >= 1000", n)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > 2<<20 {
		t.Fatalf("first sample of %d series grew the heap by %.1f MB, want < 2 MB",
			db.Stats().Series, float64(growth)/(1<<20))
	}
	runtime.KeepAlive(db)
}
