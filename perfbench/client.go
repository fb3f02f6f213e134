package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: the host's two cores, one
// connection each.
const clients = 2

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// jobView is the part of a job snapshot the client reads.
type jobView struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	ResultKey string `json:"result_key"`
	CacheHit  bool   `json:"cache_hit"`
	Error     string `json:"error"`
}

// span is one timed segment of a job: the root "job" span (submit sent
// to result read), its client children (submit, poll-sleep, poll,
// fetch) and the server's own spans read back from the job trace
// (server.admit, server.queue-wait, server.run, server.store-write,
// server.done). Times are wall-clock Unix nanoseconds, which the client
// and the server on one host share.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// outcome is one job as the client saw it.
type outcome struct {
	start, end int64 // submit sent, result body read (Unix ns)
	err        string
	cacheHit   bool
	polls      int
	key        string
	payload    []byte
	spans      []span
}

func (o outcome) latencyMS() float64 { return float64(o.end-o.start) / 1e6 }

// pollSleep is the wait before the k-th status poll: 1ms, growing by
// half each poll up to 4ms, so short jobs are seen promptly and long
// ones do not flood the server with polls.
func pollSleep(k int) time.Duration {
	d := time.Millisecond
	for i := 0; i < k && d < 4*time.Millisecond; i++ {
		d += d / 2
	}
	return min(d, 4*time.Millisecond)
}

// runPhase drives the list through the server from `clients` closed-loop
// clients, each taking the next unstarted job when its previous one has
// returned its result. It returns the outcomes in list order and the
// wall time from the first submit to the last result. With refs set
// (hit-read), each payload is compared to the reference payload of its
// key as it arrives and dropped; otherwise outcomes keep their payloads
// for the output check.
func runPhase(s *server, list []request, traced bool, refs map[string][]byte) ([]outcome, time.Duration) {
	bodies := make([][]byte, len(list))
	for i, r := range list {
		bodies[i] = r.body()
	}
	out := make([]outcome, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				o := runJob(s, i, bodies[i], traced)
				if refs != nil && o.err == "" {
					if !bytes.Equal(o.payload, refs[o.key]) {
						o.err = "payload differs from the set-up payload of key " + o.key
					}
					o.payload = nil
				}
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// runJob submits one job, polls it to completion and fetches its result.
func runJob(s *server, idx int, body []byte, traced bool) outcome {
	var o outcome
	rec := func(name string, t0 time.Time) {
		if traced {
			o.spans = append(o.spans, span{Name: name, Job: idx, Parent: "job", Start: t0.UnixNano(), End: time.Now().UnixNano()})
		}
	}
	t0 := time.Now()
	o.start = t0.UnixNano()
	var job jobView
	code, raw, err := do(s.client, http.MethodPost, s.base+"/v1/jobs", body)
	rec("submit", t0)
	switch {
	case err != nil:
		o.err = err.Error()
		return o
	case code != http.StatusAccepted:
		o.err = fmt.Sprintf("submit: HTTP %d: %s", code, bytes.TrimSpace(raw))
		return o
	}
	if err := json.Unmarshal(raw, &job); err != nil {
		o.err = "submit: " + err.Error()
		return o
	}
	o.key = job.ResultKey
	for k := 0; job.State == "queued" || job.State == "running"; k++ {
		t := time.Now()
		time.Sleep(pollSleep(k))
		rec("poll-sleep", t)
		t = time.Now()
		code, raw, err = do(s.client, http.MethodGet, s.base+"/v1/jobs/"+job.ID, nil)
		rec("poll", t)
		o.polls++
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll: HTTP %d", code)
		}
		if err == nil {
			err = json.Unmarshal(raw, &job)
		}
		if err != nil {
			o.err = err.Error()
			return o
		}
	}
	o.cacheHit = job.CacheHit
	if job.State != "done" {
		o.err = fmt.Sprintf("job %s %s: %s", job.ID, job.State, job.Error)
		return o
	}
	t := time.Now()
	code, raw, err = do(s.client, http.MethodGet, s.base+"/v1/results/"+job.ResultKey, nil)
	rec("fetch", t)
	o.end = time.Now().UnixNano()
	switch {
	case err != nil:
		o.err = err.Error()
		return o
	case code != http.StatusOK:
		o.err = fmt.Sprintf("fetch: HTTP %d", code)
		return o
	}
	o.payload = raw
	if traced {
		o.spans = append(o.spans, span{Name: "job", Job: idx, Start: o.start, End: o.end})
		// Outside the timed window: read the server's spans for the job.
		serverSpans, err := jobTrace(s, idx, job.ID)
		if err != nil {
			o.err = err.Error()
			return o
		}
		o.spans = append(o.spans, serverSpans...)
	}
	return o
}

// jobTrace reads GET /v1/jobs/{id}/trace as absolute-time spans.
func jobTrace(s *server, idx int, id string) ([]span, error) {
	code, raw, err := do(s.client, http.MethodGet, s.base+"/v1/jobs/"+id+"/trace", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d", code)
	}
	var tr struct {
		Start time.Time `json:"start"`
		Spans []struct {
			Name       string `json:"name"`
			StartNS    int64  `json:"start_ns"`
			DurationNS int64  `json:"duration_ns"`
		} `json:"spans"`
	}
	if err == nil {
		err = json.Unmarshal(raw, &tr)
	}
	if err != nil {
		return nil, fmt.Errorf("trace of %s: %w", id, err)
	}
	base := tr.Start.UnixNano()
	spans := make([]span, 0, len(tr.Spans))
	for _, sp := range tr.Spans {
		spans = append(spans, span{Name: "server." + sp.Name, Job: idx, Parent: "job",
			Start: base + sp.StartNS, End: base + sp.StartNS + sp.DurationNS})
	}
	return spans, nil
}

// do sends one request and reads the whole response body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}
