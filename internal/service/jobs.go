// Package service turns the experiment drivers into a long-running,
// queryable system: a job model over the registry, a bounded worker
// pool that executes jobs through the shared recording-bank machinery,
// a content-addressed result memo with in-flight deduplication, and an
// HTTP JSON API on top. cmd/penelope exposes it as `penelope serve`.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

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
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error,omitempty"`
	// SweepID groups the jobs of one sweep submission; their completions
	// stream as "point" events on /v1/sweeps/{id}/events.
	SweepID string `json:"sweep_id,omitempty"`

	// Unexported observability state: invisible to the JSON API and to
	// snapshot copies' consumers. trace is set once in submit before the
	// job is shared, so later reads need no lock; the Trace itself is
	// internally synchronized.
	trace       *obs.Trace
	submittedAt time.Time // when submit registered the job
	enqueuedAt  time.Time // when the leader entered the fair pool
}
