// Package chaos is the cross-layer fault scheduler and differential
// battery of the robustness harness. A Plan composes deterministic, seeded
// injectors for every layer of the progress pipeline behind one
// configuration: storage page-read faults (the PR-1 injector), exec-layer
// operator faults (slow-operator stalls, spill-write failures,
// memory-grant denials, worker crashes inside parallel gather zones), DMV snapshot faults (dropped/duplicated/stale per-thread rows,
// poller stalls), and session-layer faults (monitor detach/reattach).
// Same seed ⇒ same fault sequence: every injector draws from its own
// layer-derived RNG and all timing rides the virtual clock, so a failing
// cell of the battery replays exactly from its printed seed.
//
// The paired degradation machinery lives with each layer it protects —
// the poller watchdog and circuit breaker in dmv, snapshot repair and
// bound widening in progress (Options.Degrade), worker supervision in
// exec — and the battery (runner.go) checks the end-to-end contract: a
// chaos run either completes byte-identical to the fault-free run or
// fails with a typed QueryError, and estimator invariants hold at every
// poll, degraded or not.
package chaos

import (
	"lqs/internal/engine/dmv"
	"lqs/internal/engine/exec"
	"lqs/internal/engine/storage"
	"lqs/internal/sim"
)

// StorageFaults configures the storage layer: seeded page-read faults on
// the buffer pool's physical reads (probabilities per physical read).
type StorageFaults struct {
	TransientProb float64
	PermanentProb float64
	// MaxRetries bounds retries of a transient fault; 0 uses the storage
	// layer's default budget.
	MaxRetries int
}

// ExecFaults configures the exec layer (probabilities per charge
// checkpoint unless noted).
type ExecFaults struct {
	// StallProb is the per-charge probability of a slow-operator stall;
	// StallMean is the mean stall duration (exponentially distributed).
	// Zero StallMean uses DefaultStallMean.
	StallProb float64
	StallMean sim.Duration
	// SpillFailProb is the per-spill-chunk probability that a blocking
	// operator's spill write fails (KindSpill).
	SpillFailProb float64
	// MemDenyProb is the per-reservation probability that the memory grant
	// is denied: spillable operators degrade to disk, non-spillable ones
	// abort with KindMemory.
	MemDenyProb float64
	// CrashProb is the per-charge probability that a parallel worker
	// crashes (KindWorkerCrash). Only worker threads crash — the
	// coordinator surfaces worker crashes, it does not die itself — so the
	// fault is inert at DOP 1.
	CrashProb float64
}

// DMVFaults configures the snapshot layer (probabilities per poll or per
// thread row).
type DMVFaults struct {
	// DropRowProb / DupRowProb / StaleProb are per thread row: the row
	// vanishes from the capture, is emitted twice, or is replaced by its
	// previous-poll value (counters regress).
	DropRowProb float64
	DupRowProb  float64
	StaleProb   float64
	// StallProb is per poll: the capture takes longer than the interval
	// and the watchdog treats the tick as missed.
	StallProb float64
}

// SessionFaults configures the session layer: the monitor detaches
// mid-query (polls are lost) and reattaches later, typically re-delivering
// the last snapshot it had seen.
type SessionFaults struct {
	// DetachProb is the per-poll probability the monitor detaches.
	DetachProb float64
	// DetachTicks is how many polls a detachment lasts; 0 means 3.
	DetachTicks int
}

// Config is a full cross-layer fault configuration. The zero value injects
// nothing; every layer whose rates are all zero costs nothing at runtime
// (its injector is nil).
type Config struct {
	// Seed is the master seed; each layer derives an independent stream
	// from it, so enabling one layer never perturbs another's sequence.
	Seed    uint64
	Storage StorageFaults
	Exec    ExecFaults
	DMV     DMVFaults
	Session SessionFaults
}

// DefaultStallMean is the mean injected stall when ExecFaults.StallMean is
// zero: 100µs of virtual time, large enough to cross poll boundaries in
// the test workloads.
const DefaultStallMean = sim.Duration(100e3)

// RateConfig scales one knob into a full cross-layer configuration — the
// fault-rate grid of the battery and the -chaos flags use it. The relative
// rates reflect event frequencies: charge checkpoints fire thousands of
// times per query (stalls at rate, crashes at rate/5, grant denials at
// rate/20), physical reads hundreds (transients at rate, permanents at
// rate/50), and polls dozens (DMV row faults at 4×rate, poll stalls and
// session detaches at 8×rate) — so every layer actually fires across a
// battery run at moderate rates.
func RateConfig(rate float64, seed uint64) Config {
	return Config{
		Seed: seed,
		Storage: StorageFaults{
			TransientProb: rate,
			PermanentProb: rate / 50,
		},
		Exec: ExecFaults{
			StallProb:     rate,
			StallMean:     DefaultStallMean,
			SpillFailProb: rate,
			MemDenyProb:   rate / 20,
			CrashProb:     rate / 5,
		},
		DMV: DMVFaults{
			DropRowProb: 4 * rate,
			DupRowProb:  4 * rate,
			StaleProb:   4 * rate,
			StallProb:   8 * rate,
		},
		Session: SessionFaults{
			DetachProb:  8 * rate,
			DetachTicks: 3,
		},
	}
}

// Plan is one composed fault schedule: injector factories for every layer,
// all derived deterministically from the master seed. Build the injectors
// fresh per query execution (they are stateful and single-use, like the
// query itself).
type Plan struct {
	cfg Config
}

// NewPlan builds a plan from a configuration.
func NewPlan(cfg Config) *Plan { return &Plan{cfg: cfg} }

// Config returns the plan's configuration.
func (p *Plan) Config() Config { return p.cfg }

// StorageInjector builds the storage-layer fault injector, or nil when the
// storage rates are all zero. Attach it with db.Pool.SetFaultInjector.
func (p *Plan) StorageInjector() *storage.FaultInjector {
	sc := p.cfg.Storage
	if sc.TransientProb <= 0 && sc.PermanentProb <= 0 {
		return nil
	}
	return storage.NewFaultInjector(storage.FaultConfig{
		Seed:          layerSeed(p.cfg.Seed, "storage"),
		TransientProb: sc.TransientProb,
		PermanentProb: sc.PermanentProb,
		MaxRetries:    sc.MaxRetries,
	})
}

// ExecInjector builds the exec-layer injector, or nil when the exec rates
// are all zero. Assign it to Query.Ctx.Chaos before stepping; parallel
// workers fork their own deterministic streams from it at gather startup.
func (p *Plan) ExecInjector() exec.OpChaos {
	ec := p.cfg.Exec
	if ec.StallProb <= 0 && ec.SpillFailProb <= 0 && ec.MemDenyProb <= 0 && ec.CrashProb <= 0 {
		return nil
	}
	return newExecInjector(ec, layerSeed(p.cfg.Seed, "exec"))
}

// PollFault builds the DMV-layer snapshot fault hook, or nil when the DMV
// rates are all zero. Install it with Poller.SetFault: every monitor (the
// battery, lqsd, lqsmon) records its captures through a poller and its
// watchdog.
func (p *Plan) PollFault() dmv.PollFault {
	dc := p.cfg.DMV
	if dc.DropRowProb <= 0 && dc.DupRowProb <= 0 && dc.StaleProb <= 0 && dc.StallProb <= 0 {
		return nil
	}
	return &pollFault{
		cfg:  dc,
		rng:  sim.NewRNG(layerSeed(p.cfg.Seed, "dmv")),
		prev: make(map[rowKey]dmv.OpProfile),
	}
}

// SessionRNG returns the seeded RNG driving session-layer detach faults,
// or nil when the session rates are all zero. The estimator replay in the
// battery consumes it; lqsmon's monitoring loop could equally.
func (p *Plan) SessionRNG() *sim.RNG {
	if p.cfg.Session.DetachProb <= 0 {
		return nil
	}
	return sim.NewRNG(layerSeed(p.cfg.Seed, "session"))
}

// DetachTicks resolves the configured detachment length.
func (p *Plan) DetachTicks() int {
	if p.cfg.Session.DetachTicks > 0 {
		return p.cfg.Session.DetachTicks
	}
	return 3
}

// layerSeed derives an independent seed for one layer: an FNV-1a hash of
// the layer tag folded into the master seed, finalized with a
// splitmix64-style mix so adjacent master seeds land far apart.
func layerSeed(seed uint64, tag string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tag); i++ {
		h = (h ^ uint64(tag[i])) * 1099511628211
	}
	return mixSeed(seed, h)
}

// mixSeed folds salt into seed with two splitmix64 finalization rounds.
func mixSeed(seed, salt uint64) uint64 {
	x := seed ^ salt
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
