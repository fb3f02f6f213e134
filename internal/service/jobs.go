// Package service turns the experiment drivers into a long-running,
// queryable system: a job model over the registry, a bounded worker
// pool that executes jobs through the shared recording-bank machinery,
// a content-addressed result memo with in-flight deduplication, and an
// HTTP JSON API on top. cmd/penelope exposes it as `penelope serve`.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"unsafe"

	"penelope/internal/experiments"
	"penelope/internal/obs"
)

// ResultKey content-addresses one experiment request: the SHA-256 of
// the experiment id and the canonicalized Options. Every request that
// would run the same simulation — permuted JSON fields, zeroed or
// defaulted options — maps to the same key, so overlapping sweeps
// deduplicate against each other and against past runs.
func ResultKey(experiment string, o experiments.Options) string {
	sum := sha256.Sum256([]byte(experiment + "|" + o.Key()))
	return hex.EncodeToString(sum[:16])
}

// JobState is the lifecycle of a job: queued → running → done|failed.
// Jobs that attach to a cached or in-flight result skip running and
// complete when the result does.
type JobState string

// The job states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Job is one experiment request: {experiment, Options} → result. The
// result itself lives in the result memo or the store under ResultKey;
// the job records the request's lifecycle and where to fetch it.
type Job struct {
	ID         string              `json:"id"`
	Experiment string              `json:"experiment"`
	Options    experiments.Options `json:"options"`
	// Client is the submitting client id (X-Client-Id header or the
	// request's "client" field); fair scheduling and rate limiting key
	// on it. Empty submissions share the "anonymous" client.
	Client string `json:"client,omitempty"`
	// ResultKey is the content address of the result; fetch it at
	// /v1/results/{key} once the job is done.
	ResultKey string   `json:"result_key"`
	State     JobState `json:"state"`
	// CacheHit reports that the job did not trigger its own simulation:
	// the result was already cached (in memory or on disk) or already
	// being computed.
	CacheHit bool `json:"cache_hit"`
	// source is where a job that found its result complete found it.
	source jobSource
	Error  string `json:"error,omitempty"`
	// SweepID groups the jobs of one sweep submission; their completions
	// stream as "point" events on /v1/sweeps/{id}/events.
	SweepID string `json:"sweep_id,omitempty"`

	// trace holds the job's phase marks: when it was admitted, entered
	// the queue, ran, wrote the store and finished. Everything else the
	// trace reports is read from the job's own fields. Guarded by s.mu,
	// like the fields a trace's attributes come from.
	trace obs.Trace
}

// jobSource is where a job that found its result complete found it:
// the source attribute of its trace's admit span.
type jobSource uint8

// The job sources; a job that ran, followed a leader or failed has
// none.
const (
	sourceNone  jobSource = iota
	sourceCache           // resident in the result memo
	sourceStore           // read through the disk store
)

var sourceNames = [...]string{sourceCache: "cache", sourceStore: "store"}

// traceSnapshot renders the job's trace with the attributes its spans
// report, all read from the job: experiment, client, key and source on
// admit; state, error and cache_hit on done. finish sets the terminal
// fields and opens the done span under s.mu, so a caller holding s.mu
// sees the two agree. Caller holds s.mu.
func (job *Job) traceSnapshot() obs.TraceSnapshot {
	snap := job.trace.Snapshot(job.ID, "job")
	for i := range snap.Spans {
		sp := &snap.Spans[i]
		switch sp.Name {
		case "admit":
			sp.Attrs = map[string]string{"experiment": job.Experiment, "client": job.Client, "key": job.ResultKey}
			if job.source != sourceNone {
				sp.Attrs["source"] = sourceNames[job.source]
			}
		case "done":
			sp.Attrs = map[string]string{"state": string(job.State)}
			if job.Error != "" {
				sp.Attrs["error"] = job.Error
			}
			if job.CacheHit {
				sp.Attrs["cache_hit"] = "true"
			}
		}
	}
	return snap
}

// charge is the heap a finished job holds while the finished-job FIFO
// keeps it: the job with its trace, the trace's spans, and the strings
// it may hold alone (ID, client, error). The experiment id is the
// registry's copy, the result key the result memo entry's, and a
// sweep's jobs share its ID. Caller holds s.mu.
func (job *Job) charge() int64 {
	strs := len(job.ID) + len(job.Client) + len(job.Error)
	return int64(unsafe.Sizeof(*job)) + int64(strs) + job.trace.Bytes()
}
