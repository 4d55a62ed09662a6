package exec

import (
	"fmt"

	"lqs/internal/sim"
)

// ErrorKind classifies why a query terminated abnormally. The paper's
// motivating workflow (§1, §2.3.1) is a DBA watching live progress to spot
// and kill runaway executions; each kind below is one of the terminal
// outcomes that workflow produces.
type ErrorKind int

const (
	// KindInternal is an operator panic converted to an error at the
	// Query.Step recovery boundary: an engine bug, not a runtime condition.
	KindInternal ErrorKind = iota
	// KindCancelled is an explicit Query.Cancel — the DBA's KILL.
	KindCancelled
	// KindDeadline is the query's virtual-time deadline expiring.
	KindDeadline
	// KindMemory is the simulated memory grant being exceeded by a
	// non-spillable blocking operator.
	KindMemory
	// KindIO is a permanent (retry-exhausted or hard) page-read failure
	// injected by the storage fault harness.
	KindIO
	// KindSpill is a spill-write failure: a blocking operator's external
	// (spilled) phase lost its scratch space mid-merge. Injected by the
	// chaos harness; a real engine surfaces the same condition when tempdb
	// runs out of room under a spilled sort.
	KindSpill
	// KindWorkerCrash is a parallel-zone worker dying mid-batch. The
	// gather's supervision converts it into this typed error on the
	// coordinator, once every worker has run its batch of the round.
	KindWorkerCrash
)

// String names the kind for rendering and logs.
func (k ErrorKind) String() string {
	switch k {
	case KindInternal:
		return "internal error"
	case KindCancelled:
		return "cancelled"
	case KindDeadline:
		return "deadline exceeded"
	case KindMemory:
		return "memory grant exceeded"
	case KindIO:
		return "I/O failure"
	case KindSpill:
		return "spill failure"
	case KindWorkerCrash:
		return "parallel worker crashed"
	}
	return fmt.Sprintf("ErrorKind(%d)", int(k))
}

// QueryError is the typed terminal error of a query execution. NodeID
// identifies the plan node that was executing when the failure surfaced
// (-1 when no operator can be blamed, e.g. cancellation before any work).
type QueryError struct {
	Kind   ErrorKind
	NodeID int
	// At is the virtual time the failure surfaced.
	At sim.Duration
	// Reason is the human-readable detail: the cancel reason, the
	// recovered panic value, the faulted page, ...
	Reason string
}

// Error implements the error interface.
func (e *QueryError) Error() string {
	s := "exec: query " + e.Kind.String()
	if e.NodeID >= 0 {
		s += fmt.Sprintf(" at node %d", e.NodeID)
	}
	if e.Reason != "" {
		s += ": " + e.Reason
	}
	return s
}

// State maps the error to the query's terminal state: cancellation and
// deadline expiry are CANCELLED (the DBA or a policy stopped a healthy
// query); everything else is FAILED.
func (e *QueryError) State() QueryState {
	switch e.Kind {
	case KindCancelled, KindDeadline:
		return StateCancelled
	}
	return StateFailed
}

// QueryState is the lifecycle state of a Query. It is readable concurrently
// with execution (a dashboard reads it while the query steps).
type QueryState int32

const (
	// StatePending: built but not yet stepped; the plan is unopened.
	StatePending QueryState = iota
	// StateRunning: the plan is open and producing rows.
	StateRunning
	// StateSucceeded: ran to completion.
	StateSucceeded
	// StateCancelled: stopped by Cancel or a deadline before completing.
	StateCancelled
	// StateFailed: terminated by an error (operator panic, injected I/O
	// fault, exhausted memory grant).
	StateFailed
)

// Terminal reports whether the state is final.
func (s QueryState) Terminal() bool { return s >= StateSucceeded }

// String names the state as lqsmon renders it.
func (s QueryState) String() string {
	switch s {
	case StatePending:
		return "PENDING"
	case StateRunning:
		return "RUNNING"
	case StateSucceeded:
		return "SUCCEEDED"
	case StateCancelled:
		return "CANCELLED"
	case StateFailed:
		return "FAILED"
	}
	return fmt.Sprintf("QueryState(%d)", int32(s))
}
