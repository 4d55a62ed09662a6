package progress_test

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"lqs/internal/accuracy"
	"lqs/internal/progress"
)

// TestReestimateLatestCaptureChangesNothing: a reader that explains the
// capture the estimator saw last — what a server's explain read does
// between two polls — leaves the estimator exactly where it was. Over
// every committed trace and every mode, an estimator that explains each
// poll right after estimating it agrees bit for bit with a straight
// replay: on that poll's explanation, on every later estimate and on the
// terminal one.
func TestReestimateLatestCaptureChangesNothing(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "accuracy", "testdata", "*.trace.json.gz"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed traces (%v)", err)
	}
	for _, path := range paths {
		tf, err := accuracy.ReadTraceFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		p, cat, err := tf.Rebuild()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		tr := tf.Trace()
		snaps := append(tr.Snapshots[:len(tr.Snapshots):len(tr.Snapshots)], tr.Final)
		for _, mode := range accuracy.Modes() {
			straight := progress.NewEstimator(p, cat, mode.Opts)
			reread := progress.NewEstimator(p, cat, mode.Opts)
			var want, got progress.Estimate
			for k, s := range snaps {
				straight.EstimateInto(&want, s)
				reread.EstimateInto(&got, s)
				if !reflect.DeepEqual(floatBits(want), floatBits(got)) || want.DegradeReason != got.DegradeReason || !reflect.DeepEqual(want.Ensemble, got.Ensemble) {
					t.Fatalf("%s %s poll %d of %d: estimate after explaining the polls before it differs from a straight replay", filepath.Base(path), mode.Name, k, len(snaps))
				}
				x, again := reread.Explain(s)
				if math.Float64bits(again.Query) != math.Float64bits(want.Query) || math.Float64bits(x.Query) != math.Float64bits(want.Query) {
					t.Fatalf("%s %s poll %d: explaining the latest capture again says %v, its estimate %v", filepath.Base(path), mode.Name, k, x.Query, want.Query)
				}
			}
		}
	}
}

// floatBits lists every number of an estimate as raw bits, so NaN and -0
// compare exactly.
func floatBits(e progress.Estimate) []uint64 {
	out := []uint64{math.Float64bits(e.Query), uint64(e.At)}
	for _, vs := range [][]float64{e.Op, e.N, e.PipelineProg} {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	for _, b := range e.Bounds {
		out = append(out, math.Float64bits(b.LB), math.Float64bits(b.UB))
	}
	if e.Degraded {
		out = append(out, 1)
	}
	return out
}
