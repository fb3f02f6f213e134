package obs

import (
	"regexp"
	"strings"
	"testing"
)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("penelope_jobs_done_total", "Jobs finished successfully.")
	c.Add(3)
	g := r.Gauge("penelope_queue_depth", "Jobs waiting in the queue.")
	g.Set(2)
	h := r.Histogram("penelope_job_seconds", "Job latency.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(5)
	r.CounterFunc("penelope_fn_total", "", func() uint64 { return 7 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# TYPE penelope_fn_total counter
penelope_fn_total 7
# HELP penelope_job_seconds Job latency.
# TYPE penelope_job_seconds histogram
penelope_job_seconds_bucket{le="0.5"} 1
penelope_job_seconds_bucket{le="1"} 2
penelope_job_seconds_bucket{le="+Inf"} 3
penelope_job_seconds_sum 6
penelope_job_seconds_count 3
# HELP penelope_jobs_done_total Jobs finished successfully.
# TYPE penelope_jobs_done_total counter
penelope_jobs_done_total 3
# HELP penelope_queue_depth Jobs waiting in the queue.
# TYPE penelope_queue_depth gauge
penelope_queue_depth 2
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("penelope_run_seconds", "Per-experiment run time.", "experiment", []float64{1})
	v.With("fig4").Observe(0.5)
	v.With(`we"ird\lab` + "\nel").Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, line := range []string{
		`penelope_run_seconds_bucket{experiment="fig4",le="1"} 1`,
		`penelope_run_seconds_bucket{experiment="fig4",le="+Inf"} 1`,
		`penelope_run_seconds_sum{experiment="fig4"} 0.5`,
		`penelope_run_seconds_count{experiment="fig4"} 1`,
		`penelope_run_seconds_bucket{experiment="we\"ird\\lab\nel",le="+Inf"} 1`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Fatalf("missing line %q in:\n%s", line, got)
		}
	}
}

// TestGaugeFuncVec checks a gauge vec renders one line per cell in
// label-value order, each read at exposition time, and that Families
// hands a sampler the same cells.
func TestGaugeFuncVec(t *testing.T) {
	r := NewRegistry()
	held := 3.0
	r.GaugeFuncVec("penelope_resident_bytes", "Held bytes.", "holder",
		GaugeCell{Value: "results", Read: func() float64 { return held }},
		GaugeCell{Value: "recordings", Read: func() float64 { return 2 * held }})
	held = 5
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP penelope_resident_bytes Held bytes.
# TYPE penelope_resident_bytes gauge
penelope_resident_bytes{holder="recordings"} 10
penelope_resident_bytes{holder="results"} 5
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	r.Families(func(f FamilyInfo) {
		if f.Kind != KindGauge || f.VecLabel != "holder" || f.ReadGauge != nil || len(f.GaugeCells) != 2 ||
			f.GaugeCells[0].Value != "recordings" || f.GaugeCells[1].Read() != 5 {
			t.Fatalf("gauge vec family = %+v", f)
		}
	})
	for name, register := range map[string]func(){
		"no cells": func() { r.GaugeFuncVec("a_bytes", "", "holder") },
		"bad label": func() {
			r.GaugeFuncVec("b_bytes", "", "bad-label", GaugeCell{Value: "x", Read: func() float64 { return 0 }})
		},
		"duplicate value": func() { r.GaugeFuncVec("c_bytes", "", "holder", GaugeCell{Value: "x"}, GaugeCell{Value: "x"}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			register()
		}()
	}
}

// expositionLine matches the subset of the text format this package
// emits: metric lines with optional labels and a numeric value.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
		`(\+Inf|-?[0-9.eE+-]+)$`)

// ValidateExposition checks every line of a text exposition against
// the format grammar (the service smoke re-checks this over HTTP).
func ValidateExposition(t *testing.T, text string) {
	t.Helper()
	if !strings.HasSuffix(text, "\n") {
		t.Fatal("exposition must end with a newline")
	}
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("line %d not valid exposition: %q", i+1, line)
		}
	}
}

func TestExpositionGrammar(t *testing.T) {
	r := NewRegistry()
	r.Counter("penelope_a_total", "a").Inc()
	r.Gauge("penelope_b", "b").Set(-1.5e-3)
	r.Histogram("penelope_c_seconds", "c", LatencyBuckets()).Observe(0.01)
	v := r.HistogramVec("penelope_d_bytes", "d", "route", ByteBuckets())
	v.With("GET /v1/jobs/{id}").Observe(300)
	RegisterRuntimeMetrics(r)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	ValidateExposition(t, sb.String())
}
