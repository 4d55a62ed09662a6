// Package exec is the execution engine: demand-driven iterator-model
// physical operators (the GetNext model of §3.1.2) instrumented with the
// per-operator counters the paper's DMV exposes. All work is charged to a
// virtual clock through the shared cost model, so experiments are
// deterministic and a "long-running" query costs microseconds of real time.
package exec

import (
	"fmt"
	"sync/atomic"

	"lqs/internal/engine/storage"
	"lqs/internal/engine/types"
	"lqs/internal/opt"
	"lqs/internal/plan"
	"lqs/internal/sim"
	"lqs/internal/trace"
)

// Counters is the per-operator instrumentation, mirroring the columns of
// sys.dm_exec_query_profiles the paper's client polls (§2.1): actual and
// estimated rows, elapsed/CPU time, logical and physical reads, and the
// columnstore segment counts of §4.7.
type Counters struct {
	NodeID int
	// Thread is the DMV thread ordinal this counter set belongs to: 0 for
	// the coordinator (serial) instance of an operator, w+1 for parallel
	// worker w's instance. The DMV emits one profile row per (node,
	// thread), matching sys.dm_exec_query_profiles' shape.
	Thread   int
	Physical plan.PhysicalOp
	Logical  plan.LogicalOp
	EstRows  float64

	// Rows is k_i: the number of rows output so far (GetNext calls that
	// returned a row).
	Rows int64
	// InputRows counts rows consumed by stop-and-go phases (sort input,
	// hash build) — internal instrumentation; the DMV derives input counts
	// from child operators just as the paper's client does.
	InputRows int64
	// Rebinds counts executions of this operator (inner side of nested
	// loops re-opens once per outer row).
	Rebinds int64

	CPUTime sim.Duration
	// IOTime is the virtual time this operator spent on page/segment I/O.
	IOTime sim.Duration
	// OpenedAt is when Open was entered. For operators whose Open
	// recursively opens a deep subtree this long precedes any actual
	// work; FirstActiveAt records the first instant the operator itself
	// charged CPU or I/O — the start of its true active window.
	OpenedAt      sim.Duration
	FirstActiveAt sim.Duration
	FirstActive   bool
	LastActive    sim.Duration
	ClosedAt      sim.Duration
	Opened        bool
	Closed        bool

	LogicalReads  int64
	PhysicalReads int64
	// PagesTotal is the total logical reads a full scan of this operator's
	// input object requires, known when the scan opens; the denominator of
	// the §4.3 I/O-fraction progress estimate.
	PagesTotal int64

	SegmentsProcessed int64
	SegmentsTotal     int64

	// IORetries counts transient page-read faults this operator absorbed:
	// each one is a re-issued physical read plus a backoff charged to the
	// virtual clock by the fault-injection harness.
	IORetries int64

	// MemRows is the operator's current simulated workspace reservation in
	// rows, charged against the query's memory grant.
	MemRows int64

	// InternalDone/InternalTotal expose a blocking operator's internal
	// (neither-input-nor-output) work — e.g. a spilled sort's external
	// merge rows. The real DMV does not expose these; the paper's §7
	// names them as the first future-work item, and the extended
	// estimator option InternalCounters consumes them.
	InternalDone  int64
	InternalTotal int64

	// BufferedRows is the operator's current internal buffer occupancy
	// (exchanges, NL outer batches). The paper notes (§7) this is NOT
	// exposed by the real DMV; the DMV layer here omits it likewise, but
	// tests use it to validate semi-blocking behavior.
	BufferedRows int64
}

// ChargeFault is what an OpChaos injector asks a charge checkpoint to do:
// stall the operator for Stall nanoseconds of virtual time, crash the
// executing thread, or both zero values for "no fault here".
type ChargeFault struct {
	// Stall burns virtual time attributed to the current operator — a slow
	// operator (external interference, scheduler preemption) that makes
	// progress denominators drift without changing any row counts.
	Stall sim.Duration
	// Crash kills the executing thread with a typed KindWorkerCrash panic.
	// On a parallel worker the gather's supervision converts it into a
	// coordinator-side QueryError after releasing every worker goroutine.
	Crash bool
}

// OpChaos is the exec-layer fault injector interface implemented by
// internal/chaos. All methods are called from the single goroutine that
// owns the Ctx (coordinator or one worker), so implementations need no
// locking; Fork derives an independent deterministic injector for a
// parallel worker thread. A nil Ctx.Chaos disables injection at the cost
// of one pointer check per charge.
type OpChaos interface {
	// OnCharge is consulted at every charge checkpoint.
	OnCharge(nodeID int) ChargeFault
	// OnSpillWrite is consulted once per spill-write chunk of a blocking
	// operator's external phase; true fails the spill (KindSpill).
	OnSpillWrite(nodeID int) bool
	// DenyMem is consulted at every workspace reservation; true denies the
	// grant as if the engine revoked it (spillable operators degrade to
	// disk, non-spillable ones abort with KindMemory).
	DenyMem(nodeID int) bool
	// Fork returns the injector for parallel worker thread ordinal t
	// (1-based, 0 = coordinator). Called by the coordinator in gather
	// startup order, so worker fault sequences are seed-deterministic.
	Fork(thread int) OpChaos
}

// Ctx is the per-query execution context: the virtual clock, buffer pool,
// cost model, runtime bitmap registry, the bind row for correlated inner
// subtrees, and the query's lifecycle controls (cancellation, deadline,
// memory grant).
type Ctx struct {
	Clock *sim.Clock
	DB    *storage.Database
	CM    *opt.CostModel

	// Deadline is a virtual-time deadline: execution aborts with a
	// KindDeadline QueryError once the clock reaches it. Zero disables.
	// Set it before the query starts stepping.
	Deadline sim.Duration

	// Trace, when non-nil, receives structured operator lifecycle events
	// (open/close, row batches, spills, degradations, state transitions)
	// stamped with virtual time. Nil disables tracing at zero cost: the
	// only residue in the per-row hot loop is a nil check on the pointer
	// each operator caches at Open (pinned by BenchmarkQueryExecution).
	// Set it before the query starts stepping; the recorder must be backed
	// by the query's own clock.
	Trace *trace.Recorder

	// Chaos, when non-nil, injects exec-layer faults (stalls, crashes,
	// spill failures, memory-grant denials) at the charge checkpoints. Set
	// it before the query starts stepping; parallel workers receive forked
	// injectors from it at gather startup.
	Chaos OpChaos

	// MemGrantRows is the simulated memory grant, in buffered rows, shared
	// by the query's blocking operators. Non-spillable operators (hash
	// build, hash aggregate, top-N) abort with KindMemory when the grant is
	// exceeded; spillable ones (sort, spool) degrade to simulated disk.
	// Zero means unlimited. Set it before the query starts stepping.
	MemGrantRows int64

	// Bind is the current outer row for correlated operators on the inner
	// side of a nested-loops join; seeks evaluate their bounds against it
	// at rewind time.
	Bind types.Row

	// Bitmaps holds runtime bitmap filters keyed by BitmapCreate node ID.
	Bitmaps map[int]*bitmapFilter

	// DOP is the query's degree of parallelism: GatherStreams exchanges
	// over partitionable subtrees run DOP worker threads when it exceeds
	// 1. Set at query construction (NewQueryDOP) — the operator tree is
	// shaped by it.
	DOP int

	// BatchSize is how many rows the batch-native operators (scans, filter,
	// compute scalar, stream aggregate) produce per NextBatch call, with
	// one checkpoint per batch; always at least 1, and 1 is row-at-a-time
	// execution. Set at query construction (NewQueryBatch), which sizes the
	// operators' buffers from it.
	BatchSize int

	// Thread is this context's DMV thread ordinal (0 = coordinator, w+1 =
	// parallel worker w); Part/Parts are the range partition a worker's
	// scans claim (Parts 0 means unpartitioned). Worker contexts are
	// created by the gather operator, never by users.
	Thread      int
	Part, Parts int

	// parent is the coordinator context a worker context hangs off:
	// workers observe the parent's cancellation flag (an atomic, so it is
	// race-free) while charging their own private sub-clock.
	parent *Ctx

	// cleanups run exactly once when the query reaches a terminal state —
	// success, failure, or cancellation. Parallel gathers register worker
	// shutdown here so goroutines never leak even on the failure path,
	// where operator Close is not called.
	cleanups []func()

	// threadCounters are the per-(node, thread) counter sets of parallel
	// worker operator instances, registered at build time by the gather so
	// DMV captures see every thread row from the first poll. Coordinator
	// instances live in Query.ops instead.
	threadCounters []*Counters

	// lock serializes counter and clock mutation against concurrent DMV
	// captures. The executing goroutine holds it for the duration of each
	// Step batch, yielding every yieldEvery charges so pollers on other
	// goroutines (dmv.CaptureSync, the lqs registry) can take a consistent
	// snapshot even while a blocking operator works.
	//
	// It is a one-slot channel, not a sync.Mutex, because the yield must be
	// a hand-off: a send acquires, a receive releases, and a receive with
	// senders parked passes the slot to the longest-waiting one before it
	// returns. So a reader waiting at a yield owns the lock the moment the
	// executor releases it, the executor queues behind the readers that
	// were already waiting and no others, and gets the lock straight back
	// from the last of them. Unlock();Lock() on a sync.Mutex is not a
	// yield: the running goroutine re-locks before the woken waiter is
	// scheduled, and the mutex only hands over after starving it for 1 ms.
	// Nil on worker contexts, which never take it (see checkpointBatch).
	lock chan struct{}

	// cancel carries a pending cancellation request, set from any
	// goroutine and observed at the next charge checkpoint.
	cancel atomic.Pointer[QueryError]

	// cur is the last operator that charged work: the node blamed when an
	// untyped panic or an interrupt surfaces.
	cur *Counters

	memUsed   int64
	chargeOps int
}

// yieldEvery is how many charge checkpoints pass between yields of the
// counter lock: small enough that concurrent pollers wait microseconds,
// large enough that the lock traffic (two uncontended channel operations
// per yield) is invisible in benchmarks.
const yieldEvery = 256

// acquire takes the counter lock, queueing first-come first-served.
func (ctx *Ctx) acquire() { ctx.lock <- struct{}{} }

// release gives the counter lock to the longest-waiting acquirer, if any.
func (ctx *Ctx) release() { <-ctx.lock }

// CancelCause requests cancellation: the executing goroutine observes it at
// the next charge checkpoint and aborts with a KindCancelled QueryError. It
// is safe to call from any goroutine, any number of times (the first wins),
// and is a no-op after the query reaches a terminal state.
func (ctx *Ctx) CancelCause(reason string) {
	ctx.cancel.CompareAndSwap(nil, &QueryError{Kind: KindCancelled, NodeID: -1, Reason: reason})
}

// onCleanup registers f to run once when the query reaches any terminal
// state. Called on the executing goroutine only.
func (ctx *Ctx) onCleanup(f func()) { ctx.cleanups = append(ctx.cleanups, f) }

// runCleanups runs and clears the registered cleanup hooks; idempotent.
func (ctx *Ctx) runCleanups() {
	fns := ctx.cleanups
	ctx.cleanups = nil
	for _, f := range fns {
		f()
	}
}

// interrupted returns the pending interrupt, if any: an explicit
// cancellation or an expired virtual-time deadline. Worker contexts
// observe the coordinator's cancellation flag but check the deadline
// against their own sub-clock, so deadline aborts stay deterministic at
// any DOP.
func (ctx *Ctx) interrupted() *QueryError {
	cancel := &ctx.cancel
	if ctx.parent != nil {
		cancel = &ctx.parent.cancel
	}
	if qe := cancel.Load(); qe != nil {
		return qe
	}
	if ctx.Deadline > 0 && ctx.Clock.Now() >= ctx.Deadline {
		return &QueryError{
			Kind:   KindDeadline,
			NodeID: -1,
			Reason: fmt.Sprintf("virtual-time deadline %v expired", ctx.Deadline),
		}
	}
	return nil
}

// checkpoint is the interrupt and yield point every charge funnels through:
// it records the operator currently doing work, periodically yields the
// counter lock so concurrent snapshots can drain, and aborts execution (by
// typed panic, converted to a QueryError at the Step recovery boundary)
// when a cancellation or deadline is pending. Row-at-a-time operators take
// it on every charge, so their cancellation latency is bounded by one
// row's work — even inside blocking Sort/Hash phases that produce no output
// for a long time.
func (ctx *Ctx) checkpoint(c *Counters) { ctx.checkpointBatch(c, 1) }

// checkpointBatch is the checkpoint of batch operators: one call covers
// `charges` preceding chargeCPURow calls. The yield cadence follows the
// real charge count (chargeOps accumulates it, so concurrent pollers wait
// no longer at a large batch size than at batch size 1), while the chaos
// consultation and the cancellation/deadline check run once per batch —
// cancellation latency is one batch's work, which at batch size 1 is one
// row's (DESIGN §4g).
func (ctx *Ctx) checkpointBatch(c *Counters, charges int) {
	if charges <= 0 {
		return
	}
	if c != nil {
		ctx.cur = c
	}
	ctx.chargeOps += charges
	if ctx.chargeOps >= yieldEvery {
		ctx.chargeOps = 0
		// Only the coordinator holds (and may yield) the counter mutex;
		// worker contexts synchronize with snapshots through the gather's
		// batch protocol instead.
		if ctx.parent == nil {
			ctx.release()
			ctx.acquire()
		}
	}
	if ctx.Chaos != nil && c != nil {
		ctx.chaosCharge(c)
	}
	if qe := ctx.interrupted(); qe != nil {
		panic(qe)
	}
}

// chaosCharge applies any injected fault due at this charge checkpoint: a
// stall burns virtual time against the current operator; a crash kills the
// executing thread with a typed panic (workers: absorbed and re-surfaced by
// the gather's supervision; coordinator: the Step recovery boundary).
func (ctx *Ctx) chaosCharge(c *Counters) {
	f := ctx.Chaos.OnCharge(c.NodeID)
	if f.Stall > 0 {
		ctx.Clock.Advance(f.Stall)
		c.CPUTime += f.Stall
		c.LastActive = ctx.Clock.Now()
		if ctx.Trace != nil {
			ctx.Trace.Record(trace.KindChaos, c.NodeID, "stall", int64(f.Stall))
		}
	}
	if f.Crash {
		if ctx.Trace != nil {
			ctx.Trace.Record(trace.KindChaos, c.NodeID, "worker-crash", 0)
		}
		panic(&QueryError{
			Kind:   KindWorkerCrash,
			NodeID: c.NodeID,
			Reason: fmt.Sprintf("chaos: worker thread %d crashed", ctx.Thread),
		})
	}
}

// chaosSpillWrite is consulted once per spill-write chunk by blocking
// operators' external phases; an injected failure aborts the query with a
// KindSpill error blamed on the spilling operator.
func (ctx *Ctx) chaosSpillWrite(c *Counters) {
	if ctx.Chaos == nil || !ctx.Chaos.OnSpillWrite(c.NodeID) {
		return
	}
	if ctx.Trace != nil {
		ctx.Trace.Record(trace.KindChaos, c.NodeID, "spill-fail", 0)
	}
	panic(&QueryError{
		Kind:   KindSpill,
		NodeID: c.NodeID,
		Reason: "chaos: spill write failed during external phase",
	})
}

// reserveMem charges rows of simulated workspace memory to a blocking
// operator. Within the grant (or with no grant configured) it returns true.
// Over the grant, spillable operators get false — they degrade to simulated
// disk and keep running — while non-spillable operators abort with a
// KindMemory QueryError attributed to the operator.
func (ctx *Ctx) reserveMem(c *Counters, rows int64, spillable bool) bool {
	ctx.memUsed += rows
	c.MemRows += rows
	denied := ctx.Chaos != nil && ctx.Chaos.DenyMem(c.NodeID)
	if !denied && (ctx.MemGrantRows <= 0 || ctx.memUsed <= ctx.MemGrantRows) {
		return true
	}
	reason := fmt.Sprintf("workspace of %d rows exceeds memory grant of %d rows", ctx.memUsed, ctx.MemGrantRows)
	if denied {
		reason = "chaos: memory grant denied"
		if ctx.Trace != nil {
			ctx.Trace.Record(trace.KindChaos, c.NodeID, "mem-deny", rows)
		}
	}
	if spillable {
		return false
	}
	panic(&QueryError{
		Kind:   KindMemory,
		NodeID: c.NodeID,
		Reason: reason,
	})
}

// releaseMem returns an operator's workspace reservation to the grant.
func (ctx *Ctx) releaseMem(c *Counters) {
	ctx.memUsed -= c.MemRows
	c.MemRows = 0
}

// batchFactor is how much cheaper per-row CPU is for batch-mode operators
// (§4.7: batch processing "greatly reduces CPU time and cache misses").
const batchFactor = 6.0

// chargeCPU advances the clock by ns nanoseconds of CPU work attributed
// to c.
func (ctx *Ctx) chargeCPU(c *Counters, ns float64) {
	if ns <= 0 {
		return
	}
	if !c.FirstActive {
		c.FirstActive = true
		c.FirstActiveAt = ctx.Clock.Now()
	}
	d := sim.Duration(ns)
	ctx.Clock.Advance(d)
	c.CPUTime += d
	c.LastActive = ctx.Clock.Now()
	ctx.checkpoint(c)
}

// chargeCPURow is chargeCPU without the trailing checkpoint: batch
// operators advance the clock and the counters row by row — so the virtual
// timeline of every charge is the same at any batch size — and take the
// checkpoint (poller yield, chaos, cancellation) once per batch through
// checkpointBatch.
func (ctx *Ctx) chargeCPURow(c *Counters, ns float64) {
	if ns <= 0 {
		return
	}
	if !c.FirstActive {
		c.FirstActive = true
		c.FirstActiveAt = ctx.Clock.Now()
	}
	d := sim.Duration(ns)
	ctx.Clock.Advance(d)
	c.CPUTime += d
	c.LastActive = ctx.Clock.Now()
}

// chargeIO charges page I/O at logical/physical page costs, plus
// retry backoff for transient faults the storage layer absorbed. A
// permanent fault aborts the query with a KindIO error blamed on c.
func (ctx *Ctx) chargeIO(c *Counters, io storage.IOCounts) {
	if io.Logical == 0 && io.Physical == 0 {
		return
	}
	if !c.FirstActive {
		c.FirstActive = true
		c.FirstActiveAt = ctx.Clock.Now()
	}
	ns := float64(io.Logical)*ctx.CM.IOLogicalPage + float64(io.Physical)*ctx.CM.IOPhysicalPage
	ns += float64(io.Retries) * ctx.CM.IORetryBackoff
	ctx.Clock.Advance(sim.Duration(ns))
	c.IOTime += sim.Duration(ns)
	c.LogicalReads += io.Logical
	c.PhysicalReads += io.Physical
	c.IORetries += io.Retries
	c.LastActive = ctx.Clock.Now()
	if ctx.Trace != nil && io.Retries > 0 {
		ctx.Trace.Record(trace.KindIORetry, c.NodeID, "", io.Retries)
	}
	ctx.failOnIOFault(c, io)
	ctx.checkpoint(c)
}

// chargeSegments charges columnstore segment reads (and any faults the
// segment page reads hit, exactly as chargeIO does).
func (ctx *Ctx) chargeSegments(c *Counters, n int64, io storage.IOCounts) {
	if !c.FirstActive {
		c.FirstActive = true
		c.FirstActiveAt = ctx.Clock.Now()
	}
	segNS := sim.Duration(float64(n)*ctx.CM.IOSegment + float64(io.Retries)*ctx.CM.IORetryBackoff)
	ctx.Clock.Advance(segNS)
	c.IOTime += segNS
	c.SegmentsProcessed += n
	c.LogicalReads += io.Logical
	c.PhysicalReads += io.Physical
	c.IORetries += io.Retries
	c.LastActive = ctx.Clock.Now()
	if ctx.Trace != nil && io.Retries > 0 {
		ctx.Trace.Record(trace.KindIORetry, c.NodeID, "", io.Retries)
	}
	ctx.failOnIOFault(c, io)
	ctx.checkpoint(c)
}

// failOnIOFault aborts the query when the drained I/O counts include a
// permanent (retry-exhausted or hard) page-read failure.
func (ctx *Ctx) failOnIOFault(c *Counters, io storage.IOCounts) {
	if io.Faults == 0 {
		return
	}
	panic(&QueryError{
		Kind:   KindIO,
		NodeID: c.NodeID,
		Reason: fmt.Sprintf("%d permanent page-read failure(s) after %d retries", io.Faults, io.Retries),
	})
}

// bitmapFilter is the runtime bitmap a BitmapCreate node populates and a
// probe-side scan consults. Hash-based membership admits false positives,
// exactly like a real bloom-style bitmap (§4.3).
type bitmapFilter struct {
	bits     map[uint64]struct{}
	complete bool
}

func newBitmapFilter() *bitmapFilter {
	return &bitmapFilter{bits: make(map[uint64]struct{})}
}

func (b *bitmapFilter) insert(h uint64) { b.bits[h] = struct{}{} }

func (b *bitmapFilter) probe(h uint64) bool {
	if !b.complete {
		panic("exec: bitmap probed before its build side completed")
	}
	_, ok := b.bits[h]
	return ok
}
