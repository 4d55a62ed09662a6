package server

// SSE streaming: each client's handler reads the query's publications at
// the client's own cadence. It wakes every interval, writes the latest
// publication if it is newer than the one it wrote last, and writes the
// terminal publication — as the terminal event, ending the stream — the
// moment the query finishes. A publication encodes its frame once, however
// many clients write it, and publications only move forward, so a
// connection never steps back.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// writeEvent writes one SSE event and flushes it.
func writeEvent(w http.ResponseWriter, fl http.Flusher, event string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	fl.Flush()
}

// handleStream is GET /queries/{id}/stream: per-operator progress frames
// as server-sent events at the client's chosen ?interval_ms= cadence,
// floored at the server's StreamTick, and always the terminal frame.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(w, r)
	if h == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, APIError{Code: CodeBadRequest, Message: "streaming unsupported by this connection"})
		return
	}
	interval := s.cfg.StreamTick
	if v := r.URL.Query().Get("interval_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			writeErr(w, http.StatusBadRequest, APIError{Code: CodeBadRequest, Message: "interval_ms must be a non-negative integer"})
			return
		}
		interval = max(interval, time.Duration(ms)*time.Millisecond)
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	s.obs.Gauge("server/sse_clients").Add(1)
	defer s.obs.Gauge("server/sse_clients").Add(-1)

	// The first frame goes out at once, so clients render without waiting
	// a tick; a client of a finished query gets the terminal frame alone.
	var last *publication
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for p := h.pub.Load(); ; {
		if p.Snapshot.State.Terminal() {
			writeEvent(w, fl, "terminal", p.frameJSON())
			return
		}
		if p != last {
			writeEvent(w, fl, "progress", p.frameJSON())
			last = p
		}
		select {
		case <-r.Context().Done():
			return
		case <-h.terminal:
			// Interval gating does not apply: cancellation and completion
			// always reach the client.
		case <-tick.C:
		}
		p = h.pub.Load()
	}
}
