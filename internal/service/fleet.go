package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"penelope/internal/fleetops"
)

// sweepTopic names the bus topic carrying a sweep's point events.
func sweepTopic(id string) string { return "sweep/" + id }

// RegisterFleet admits a population into the continuous scheduler —
// the programmatic form of POST /v1/fleets, used by the CLI's
// -fleet-config boot path.
func (s *Server) RegisterFleet(reg fleetops.Registration) (fleetops.Status, error) {
	return s.sched.Register(reg)
}

// handleFleetRegister admits POST /v1/fleets: one registration, charged
// one admission token like a job submission.
func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	var reg fleetops.Registration
	if err := decodeStrict(r, &reg); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, errShuttingDown)
		return
	}
	client := clientID(r, "")
	if ok, wait := s.admitClient(client, 1); !ok {
		setRetryAfter(w, wait)
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("client %q over rate limit (%.3g/s)", client, s.cfg.Rate))
		return
	}
	st, err := s.sched.Register(reg)
	switch {
	case errors.Is(err, fleetops.ErrExists):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, fleetops.ErrPersist):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusCreated, st)
	}
}

func (s *Server) handleFleetList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"fleets": s.sched.List()})
}

func (s *Server) handleFleetGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	st, ok := s.sched.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown fleet %q", name))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleFleetDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.sched.Deregister(name); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deregistered", "name": name})
}

func (s *Server) handleFleetEvents(w http.ResponseWriter, r *http.Request) {
	s.streamFleet(w, r, false)
}

func (s *Server) handleFleetEventsNDJSON(w http.ResponseWriter, r *http.Request) {
	s.streamFleet(w, r, true)
}

func (s *Server) streamFleet(w http.ResponseWriter, r *http.Request, ndjson bool) {
	name := r.PathValue("name")
	topic := fleetops.FleetTopic(name)
	// A fleet streams while registered; after deregistration the topic
	// is dropped and the stream 404s rather than idling forever.
	if !s.bus.HasTopic(topic) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown fleet %q", name))
		return
	}
	s.streamEvents(w, r, topic, ndjson)
}

func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	s.streamSweep(w, r, false)
}

func (s *Server) handleSweepEventsNDJSON(w http.ResponseWriter, r *http.Request) {
	s.streamSweep(w, r, true)
}

func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, ndjson bool) {
	id := r.PathValue("id")
	topic := sweepTopic(id)
	if !s.bus.HasTopic(topic) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown sweep %q", id))
		return
	}
	s.streamEvents(w, r, topic, ndjson)
}

// streamHeartbeat spaces SSE keepalive comments so idle streams survive
// proxies with read timeouts.
const streamHeartbeat = 15 * time.Second

// streamEvents serves one topic as SSE or NDJSON. Resume: the
// Last-Event-ID header (or ?after=seq) replays the history ring past
// that sequence number before live delivery. ?max=N ends the response
// after N events — the hook that lets curl-based smoke tests read a
// bounded stream. The subscriber buffer is bounded; a slow client drops
// events (counted in /metrics) rather than slowing the epoch loop.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, topic string, ndjson bool) {
	var after uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			after = n
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad after %q", v))
			return
		}
		after = n
	}
	max := 0
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad max %q", v))
			return
		}
		max = n
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	// Subscribe before committing the response: SubscribeExisting fails
	// when a concurrent Deregister/expiry dropped the topic between the
	// handler's HasTopic check and here, so the losing stream 404s
	// instead of attaching to a resurrected ghost topic and idling
	// forever.
	sub, ok := s.bus.SubscribeExisting(topic, after, 64)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown stream topic %q", topic))
		return
	}
	defer sub.Close()
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	heartbeat := time.NewTicker(streamHeartbeat)
	defer heartbeat.Stop()
	sent := 0
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				// Topic dropped (fleet deregistered): end the stream.
				return
			}
			if err := writeStreamEvent(w, ev, ndjson); err != nil {
				return
			}
			flusher.Flush()
			sent++
			if max > 0 && sent >= max {
				return
			}
		case <-heartbeat.C:
			if !ndjson {
				if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
					return
				}
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		}
	}
}

// writeStreamEvent renders one event: an NDJSON line, or an SSE frame
// with the sequence number as the resumable event id.
func writeStreamEvent(w http.ResponseWriter, ev fleetops.Event, ndjson bool) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if ndjson {
		_, err = fmt.Fprintf(w, "%s\n", payload)
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, payload)
	return err
}
