package lqs

import (
	"fmt"
	"sync"

	"lqs/internal/engine/exec"
	"lqs/internal/sim"
)

// QueryID identifies a query launched through a QueryRegistry.
type QueryID int64

// QueryInfo is one registry row: the live status of a launched query, the
// shape a "sys.dm_exec_requests"-style listing would render.
type QueryInfo struct {
	ID          QueryID
	Name        string
	State       exec.QueryState
	Progress    float64
	Rows        int64
	VirtualTime sim.Duration
	Err         error
}

type registryEntry struct {
	id      QueryID
	name    string
	session *Session
	done    chan struct{}

	// rows and err are written by the runner goroutine before done closes;
	// reads must either hold the registry lock with State terminal, or
	// follow <-done.
	rows int64
	err  error
}

// QueryRegistry tracks concurrently executing queries. Launch runs each
// query on its own goroutine against its own virtual clock; List, Poll, and
// Cancel are safe from any goroutine while queries run — the analog of a
// DBA session watching and killing requests while they execute.
type QueryRegistry struct {
	mu      sync.Mutex
	nextID  QueryID
	entries map[QueryID]*registryEntry
	order   []QueryID
}

// NewQueryRegistry returns an empty registry.
func NewQueryRegistry() *QueryRegistry {
	return &QueryRegistry{entries: make(map[QueryID]*registryEntry)}
}

// Launch starts stepping the session's query on a new goroutine and returns
// its registry ID. The session is marked shared, so its Snapshot path
// synchronizes with the executor; the caller must not call Step or Monitor
// on it afterwards — the registry owns the stepping loop.
func (r *QueryRegistry) Launch(name string, s *Session) QueryID {
	s.shared = true
	r.mu.Lock()
	r.nextID++
	e := &registryEntry{id: r.nextID, name: name, session: s, done: make(chan struct{})}
	r.entries[e.id] = e
	r.order = append(r.order, e.id)
	r.mu.Unlock()
	go func() {
		more := true
		var err error
		for more && err == nil {
			more, err = s.Step(256)
		}
		e.rows = s.Query.RowsReturned()
		e.err = err
		close(e.done)
	}()
	return e.id
}

// Poll returns the live status of one query. It is safe while the query
// runs: progress and row counts come from a lock-synchronized snapshot.
func (r *QueryRegistry) Poll(id QueryID) (QueryInfo, error) {
	r.mu.Lock()
	e := r.entries[id]
	r.mu.Unlock()
	if e == nil {
		return QueryInfo{}, fmt.Errorf("lqs: no query with id %d", id)
	}
	return e.info(), nil
}

// List returns the status of every launched query, in launch order.
func (r *QueryRegistry) List() []QueryInfo {
	r.mu.Lock()
	ids := append([]QueryID(nil), r.order...)
	entries := make([]*registryEntry, len(ids))
	for i, id := range ids {
		entries[i] = r.entries[id]
	}
	r.mu.Unlock()
	out := make([]QueryInfo, len(entries))
	for i, e := range entries {
		out[i] = e.info()
	}
	return out
}

// Cancel requests cooperative cancellation of a running query. The query
// reaches CANCELLED at its next charge boundary; Wait observes the result.
func (r *QueryRegistry) Cancel(id QueryID, reason string) error {
	r.mu.Lock()
	e := r.entries[id]
	r.mu.Unlock()
	if e == nil {
		return fmt.Errorf("lqs: no query with id %d", id)
	}
	e.session.Cancel(reason)
	return nil
}

// Wait blocks until the query reaches a terminal state and returns its
// result row count and terminal error (nil if it succeeded).
func (r *QueryRegistry) Wait(id QueryID) (int64, error) {
	r.mu.Lock()
	e := r.entries[id]
	r.mu.Unlock()
	if e == nil {
		return 0, fmt.Errorf("lqs: no query with id %d", id)
	}
	<-e.done
	return e.rows, e.err
}

func (e *registryEntry) info() QueryInfo {
	snap := e.session.Snapshot()
	return QueryInfo{
		ID:          e.id,
		Name:        e.name,
		State:       snap.State,
		Progress:    snap.Progress,
		Rows:        snap.Rows,
		VirtualTime: snap.At,
		Err:         snap.Err,
	}
}
