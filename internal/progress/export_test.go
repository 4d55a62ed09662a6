package progress

import "lqs/internal/engine/dmv"

// Hooks for the external tests (package progress_test), which may import
// the accuracy package and its committed traces.

// DOP2Trace is dop2Trace.
var DOP2Trace = dop2Trace

// Prepare is the repair pass.
func (e *Estimator) Prepare(snap *dmv.Snapshot) (*dmv.Snapshot, bool, Reason) {
	return e.prepare(snap)
}
