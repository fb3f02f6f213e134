package store

import (
	"strconv"
	"time"

	"penelope/internal/obs"
)

// Instruments is the store's optional observability bundle: operation
// latency and size histograms plus one-shot spans per put/get/scrub. A
// nil *Instruments (the default) makes every hook a no-op, so stores
// built without it — tests, the crash matrix, benchmarks — pay nothing.
type Instruments struct {
	PutSeconds   *obs.Histogram
	GetSeconds   *obs.Histogram
	ScrubSeconds *obs.Histogram
	PutBytes     *obs.Histogram
	GetBytes     *obs.Histogram
	Tracer       *obs.Tracer
}

// NewInstruments registers the store's metric families on reg and
// returns the bundle. Traces are recorded under components "store"
// (put/get) and "scrub" so high-volume I/O spans never evict the much
// rarer scrub history.
func NewInstruments(reg *obs.Registry, tracer *obs.Tracer) *Instruments {
	return &Instruments{
		PutSeconds: reg.Histogram("penelope_store_put_seconds",
			"Latency of durable result writes (frame, fsync, rename, dir fsync).", nil),
		GetSeconds: reg.Histogram("penelope_store_get_seconds",
			"Latency of verified result reads.", nil),
		ScrubSeconds: reg.Histogram("penelope_store_scrub_seconds",
			"Duration of full scrub passes.", nil),
		PutBytes: reg.Histogram("penelope_store_put_bytes",
			"Payload size of result writes.", obs.ByteBuckets()),
		GetBytes: reg.Histogram("penelope_store_get_bytes",
			"Payload size of result reads served from disk.", obs.ByteBuckets()),
		Tracer: tracer,
	}
}

// observePut records one Put outcome.
func (in *Instruments) observePut(key string, start time.Time, n int, err error) {
	if in == nil {
		return
	}
	d := time.Since(start)
	in.PutSeconds.ObserveDuration(d)
	in.PutBytes.Observe(float64(n))
	attrs := []string{"key", key, "bytes", strconv.Itoa(n)}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	in.Tracer.Record("store", "put", start, d, attrs...)
}

// observeGet records one Get that reached disk (index hits only; pure
// index misses are already counted by Stats and never touch I/O).
func (in *Instruments) observeGet(key string, start time.Time, n int, ok bool) {
	if in == nil {
		return
	}
	d := time.Since(start)
	in.GetSeconds.ObserveDuration(d)
	if !ok {
		in.Tracer.Record("store", "get", start, d, "key", key, "error", "verification failed")
		return
	}
	in.GetBytes.Observe(float64(n))
	in.Tracer.Record("store", "get", start, d, "key", key, "bytes", strconv.Itoa(n))
}

// observeScrub records one scrub pass.
func (in *Instruments) observeScrub(start time.Time, rep ScrubReport) {
	if in == nil {
		return
	}
	d := time.Since(start)
	in.ScrubSeconds.ObserveDuration(d)
	in.Tracer.Record("scrub", "scrub", start, d,
		"checked", strconv.Itoa(rep.Checked),
		"corrupt", strconv.Itoa(rep.Corrupt),
		"expired", strconv.Itoa(rep.Expired))
}
