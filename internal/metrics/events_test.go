package metrics

import (
	"strings"
	"testing"

	"lqs/internal/trace"
	"lqs/internal/workload"
)

// chromeDigest traces every selected query with event recording on and
// concatenates each query's Chrome trace-event JSON. Byte-equal digests
// mean the emitted trace files are byte-identical.
func chromeDigest(t testing.TB, w *workload.Workload, r Runner) string {
	t.Helper()
	r.EventCap = -1
	var sb strings.Builder
	pid := 0
	r.ForEachArtifacts(w, func(a TraceArtifacts) {
		if a.Events == nil {
			t.Fatalf("%s: EventCap set but no recorder returned", a.Query.Name)
		}
		data, err := trace.Chrome(a.Events, a.Query.Name, pid)
		if err != nil {
			t.Fatalf("%s: chrome export: %v", a.Query.Name, err)
		}
		if err := trace.ValidateChrome(data); err != nil {
			t.Fatalf("%s: invalid chrome trace: %v", a.Query.Name, err)
		}
		pid++
		sb.Write(data)
		sb.WriteByte('\n')
	})
	return sb.String()
}

// TestEventTraceDeterminism is the observability determinism guarantee:
// two serial runs and a 4-worker parallel run over the same workload emit
// byte-identical trace-event JSON for every query. Event timestamps are
// virtual and every trace starts from a cold pool on a fresh clock, so
// scheduling noise cannot leak into the artifacts.
func TestEventTraceDeterminism(t *testing.T) {
	w := parallelTestWorkload(t)
	r := Runner{Limit: 8}

	serial1 := chromeDigest(t, w, Runner{Parallel: 1, Limit: r.Limit})
	if len(serial1) == 0 || !strings.Contains(serial1, "traceEvents") {
		t.Fatalf("serial digest implausible (%d bytes)", len(serial1))
	}
	serial2 := chromeDigest(t, w, Runner{Parallel: 1, Limit: r.Limit})
	if serial2 != serial1 {
		t.Fatal("two serial runs emitted different trace JSON")
	}
	par := chromeDigest(t, w, Runner{Parallel: 4, Limit: r.Limit})
	if par != serial1 {
		t.Fatal("Parallel=4 run emitted different trace JSON than serial")
	}
}

// TestEventTraceDeterminismDOP covers the per-thread track layer: a DOP-4
// run's Chrome export validates, shows worker tracks, and is byte-identical
// across repeated runs — worker trace recorders merge deterministically.
func TestEventTraceDeterminismDOP(t *testing.T) {
	w := parallelTestWorkload(t)
	r1 := chromeDigest(t, w, Runner{Parallel: 1, Limit: 6, DOP: 4})
	r2 := chromeDigest(t, w, Runner{Parallel: 1, Limit: 6, DOP: 4})
	if r1 != r2 {
		t.Fatal("two DOP-4 runs emitted different trace JSON")
	}
	if !strings.Contains(r1, "(worker ") {
		t.Fatal("DOP-4 export has no worker tracks")
	}
	serial := chromeDigest(t, w, Runner{Parallel: 1, Limit: 6})
	if serial == r1 {
		t.Fatal("DOP-4 export identical to serial — parallel zones not traced")
	}
}

// TestTraceQueryEventsCapSemantics pins the EventCap contract: 0 disables
// recording, negative selects the default capacity, and a small positive
// cap bounds the ring while counting what it dropped.
func TestTraceQueryEventsCapSemantics(t *testing.T) {
	w := parallelTestWorkload(t)
	q := w.Queries[0]

	if _, _, rec := TraceQueryEvents(w, q, DefaultInterval, 0, 1); rec != nil {
		t.Fatal("EventCap=0 attached a recorder")
	}
	_, _, rec := TraceQueryEvents(w, q, DefaultInterval, -1, 1)
	if rec == nil || rec.Len() == 0 {
		t.Fatal("default-capacity run recorded no events")
	}
	full := rec.Len()
	_, _, small := TraceQueryEvents(w, q, DefaultInterval, 8, 1)
	if small.Len() != 8 {
		t.Fatalf("cap-8 ring holds %d events", small.Len())
	}
	if small.Dropped() == 0 {
		t.Fatalf("cap-8 ring dropped nothing for a %d-event query", full)
	}
	// ForEach (no EventCap) keeps event tracing off.
	done := false
	Runner{Parallel: 1, Limit: 1}.ForEachArtifacts(w, func(a TraceArtifacts) {
		if a.Events != nil {
			t.Fatal("zero-value Runner attached a recorder")
		}
		done = true
	})
	if !done {
		t.Fatal("runner traced no queries")
	}
}
