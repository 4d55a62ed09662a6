// Package lqs is a from-scratch reproduction of "Operator and Query
// Progress Estimation in Microsoft SQL Server Live Query Statistics"
// (SIGMOD 2016): a client-side progress estimator for running queries,
// together with the full engine substrate it needs — storage, iterator
// execution with DMV-style counters, and optimizer estimates — built on a
// deterministic virtual clock.
//
// This root package is the public facade: it re-exports the pieces a
// downstream user composes —
//
//	db := lqs.NewDatabase(cat, poolPages)   // storage + catalog
//	b  := lqs.NewPlanBuilder(db.Catalog)    // physical plan construction
//	s  := lqs.Start(db, b.TableScan(...), lqs.DefaultOptions())
//	rows, err := s.Monitor(500*time.Microsecond, func(q *lqs.QuerySnapshot) {
//	    fmt.Print(s.Render(q))              // live plan + progress
//	})
//
// Monitor returns a non-nil *exec.QueryError when the query was cancelled
// (s.Cancel, or a virtual-time deadline) or failed (injected I/O faults,
// memory-grant exhaustion, internal errors); operator panics never escape
// the executor. Concurrent queries each run Monitor on a goroutine of
// their own, publishing frames for a dashboard to read; s.Cancel is safe
// from any goroutine (examples/multiquery).
//
// See examples/ for runnable scenarios, internal/progress for the paper's
// techniques (§4.1-§4.7), and internal/experiments for the evaluation
// harness regenerating every figure of Section 5.
package lqs

import (
	"lqs/internal/engine/catalog"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/lqs"
	"lqs/internal/plan"
	"lqs/internal/progress"
)

// Re-exported core types: the data model, schemas, storage and the
// monitoring surface.
type (
	// Row is a tuple of values.
	Row = types.Row

	// Column and Index describe a table's schema.
	Column = catalog.Column
	Index  = catalog.Index

	// Database is the loaded storage layer (heaps, B-trees, columnstores).
	Database = storage.Database

	// Session monitors one executing query; QuerySnapshot is one poll's
	// display state; QueryState is the query's lifecycle state.
	Session       = lqs.Session
	QuerySnapshot = lqs.QuerySnapshot
	QueryState    = exec.QueryState
)

// Query lifecycle states.
const (
	StateRunning   = exec.StateRunning
	StateSucceeded = exec.StateSucceeded
)

// Value constructors.
var (
	Int   = types.Int
	Float = types.Float
)

// Column kinds.
const (
	KindInt   = types.KindInt
	KindFloat = types.KindFloat
)

// NewCatalog creates an empty catalog.
func NewCatalog() *catalog.Catalog { return catalog.NewCatalog() }

// NewTable creates a table schema.
func NewTable(name string, cols ...Column) *catalog.Table { return catalog.NewTable(name, cols...) }

// NewDatabase creates an empty database over a catalog with a buffer pool
// of poolPages pages.
func NewDatabase(cat *catalog.Catalog, poolPages int) *Database {
	return storage.NewDatabase(cat, poolPages)
}

// NewPlanBuilder returns a physical plan builder over the catalog.
func NewPlanBuilder(cat *catalog.Catalog) *plan.Builder { return plan.NewBuilder(cat) }

// DefaultOptions is the shipping Live Query Statistics estimator
// configuration: every Section 4 technique enabled.
func DefaultOptions() progress.Options { return progress.LQSOptions() }

// Start finalizes a plan, attaches optimizer estimates, and returns a
// monitoring session ready to Step/Snapshot/Monitor.
func Start(db *Database, root *plan.Node, o progress.Options) *Session {
	return lqs.Start(db, root, o)
}

// StartDOP is Start with intra-query parallelism: the plan is rewritten
// with exchange operators over its partitionable scans and those zones
// run on dop worker threads. Results and aggregated counters match the
// serial session; dop <= 1 behaves exactly like Start.
func StartDOP(db *Database, root *plan.Node, dop int, o progress.Options) *Session {
	return lqs.StartDOP(db, root, dop, o)
}
