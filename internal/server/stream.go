package server

// SSE fan-out with per-query coalescing: no matter how many clients
// stream one query, the hosted query's fanout goroutine takes exactly one
// snapshot per StreamTick and pushes it to every subscriber whose chosen
// interval has elapsed. Slow readers never stall the poll cadence — each
// subscriber channel is latest-wins, so a stalled client simply skips
// intermediate frames. The terminal frame is always delivered, and a
// connection never sees a progress frame older than one it already wrote.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// subscriber is one streaming client's mailbox.
type subscriber struct {
	ch       chan sseEvent
	interval time.Duration
	last     time.Time // last delivery instant (zero: deliver immediately)
}

// sseEvent is one server-sent event ready for the wire.
type sseEvent struct {
	event string // "progress" or "terminal"
	atUS  int64  // a progress frame's virtual time (FrameJSON.AtUS)
	data  []byte
}

// fanout is the subscriber set of one hosted query.
type fanout struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
}

func newFanout() *fanout { return &fanout{subs: make(map[*subscriber]struct{})} }

// empty reports whether any client is streaming (checked each tick so an
// unobserved query costs no snapshots).
func (f *fanout) empty() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs) == 0
}

// subscribe registers a client at its chosen interval. ok is false once
// the fan-out closed (query terminal): the caller renders the terminal
// frame itself instead of waiting on a dead channel.
func (f *fanout) subscribe(interval time.Duration) (s *subscriber, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, false
	}
	// Capacity 2: one progress frame in flight plus room for the terminal
	// frame; latest-wins replacement keeps the mailbox fresh.
	s = &subscriber{ch: make(chan sseEvent, 2), interval: interval}
	f.subs[s] = struct{}{}
	return s, true
}

// unsubscribe detaches a client; idempotent (close may already have
// removed it).
func (f *fanout) unsubscribe(s *subscriber) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.subs, s)
}

// broadcast pushes one frame to every subscriber whose interval elapsed,
// latest-wins per mailbox.
func (f *fanout) broadcast(frame FrameJSON, now time.Time) {
	data, err := json.Marshal(frame)
	if err != nil {
		return
	}
	ev := sseEvent{event: "progress", atUS: frame.AtUS, data: data}
	f.mu.Lock()
	defer f.mu.Unlock()
	for s := range f.subs {
		if !s.last.IsZero() && now.Sub(s.last) < s.interval {
			continue
		}
		s.last = now
		push(s.ch, ev)
	}
}

// close broadcasts the terminal frame to every subscriber — interval
// gating does not apply; cancellation and completion always reach the
// client — then closes every mailbox and refuses new subscribers.
func (f *fanout) close(frame FrameJSON) {
	data, err := json.Marshal(frame)
	if err != nil {
		data = []byte(`{"terminal":true}`)
	}
	ev := sseEvent{event: "terminal", data: data}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for s := range f.subs {
		push(s.ch, ev)
		close(s.ch)
		delete(f.subs, s)
	}
}

// push is a latest-wins, never-blocking send: if the mailbox is full, the
// oldest pending frame is dropped to make room.
func push(ch chan sseEvent, ev sseEvent) {
	for {
		select {
		case ch <- ev:
			return
		default:
			select {
			case <-ch:
			default:
			}
		}
	}
}

// writeEvent writes one SSE event and flushes it.
func writeEvent(w http.ResponseWriter, fl http.Flusher, ev sseEvent) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.event, ev.data)
	fl.Flush()
}

// handleStream is GET /queries/{id}/stream: per-operator progress frames
// as server-sent events at the client's chosen ?interval_ms= cadence
// (floored at the server's shared tick — clients cannot drive polls faster
// than the coalesced cadence).
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
		if d := time.Duration(ms) * time.Millisecond; d > interval {
			interval = d
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	sub, live := h.fan.subscribe(interval)
	if !live {
		// Already terminal: deliver the one frame a late client needs.
		f := h.frame()
		f.Terminal = true
		data, _ := json.Marshal(f)
		writeEvent(w, fl, sseEvent{event: "terminal", data: data})
		return
	}
	s.obs.Gauge("server/sse_clients").Add(1)
	defer s.obs.Gauge("server/sse_clients").Add(-1)
	defer h.fan.unsubscribe(sub)

	// Immediate first frame so clients render without waiting a tick. The
	// fan-out may have snapshotted a frame before this one and deliver it
	// after: lastAt keeps the connection from stepping back to it.
	f := h.frame()
	first, _ := json.Marshal(f)
	writeEvent(w, fl, sseEvent{event: "progress", data: first})
	lastAt := f.AtUS

	for {
		select {
		case <-r.Context().Done():
			// Client went away: detach without disturbing the shared poll
			// cadence the remaining clients ride on.
			return
		case ev, open := <-sub.ch:
			if !open {
				return
			}
			if ev.event == "terminal" {
				writeEvent(w, fl, ev)
				return
			}
			if ev.atUS < lastAt {
				continue
			}
			lastAt = ev.atUS
			writeEvent(w, fl, ev)
		}
	}
}
