package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"lqs/internal/sim"
)

func TestRecorderOrderAndStamping(t *testing.T) {
	clock := sim.NewClock()
	r := NewRecorder(clock, 8)
	r.Record(KindOpen, 0, "Table Scan", 0)
	clock.Advance(100)
	r.Record(KindClose, 0, "", 42)
	evs := r.Events()
	if len(evs) != 2 || r.Len() != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Kind != KindOpen || evs[0].At != 0 {
		t.Fatalf("first event = %+v", evs[0])
	}
	if evs[1].Kind != KindClose || evs[1].At != 100 || evs[1].Rows != 42 {
		t.Fatalf("second event = %+v", evs[1])
	}
}

func TestRecorderRingDropsOldest(t *testing.T) {
	clock := sim.NewClock()
	r := NewRecorder(clock, 4)
	for i := int64(0); i < 10; i++ {
		clock.Advance(1)
		r.Record(KindRowBatch, 1, "", i)
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Rows != want {
			t.Fatalf("event %d rows = %d, want %d (oldest must drop first)", i, ev.Rows, want)
		}
	}
}

func TestRowBatchGranularity(t *testing.T) {
	clock := sim.NewClock()
	r := NewRecorder(clock, 64)
	for rows := int64(1); rows <= 3*DefaultBatchEvery+10; rows++ {
		r.RowBatch(3, rows)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d batch events, want 3 (every %d rows)", len(evs), DefaultBatchEvery)
	}
	for i, ev := range evs {
		if want := int64(i+1) * DefaultBatchEvery; ev.Rows != want || ev.Kind != KindRowBatch || ev.NodeID != 3 {
			t.Fatalf("batch %d = %+v, want rows=%d", i, ev, want)
		}
	}
}

func TestChromeExportValidatesAndIsDeterministic(t *testing.T) {
	build := func() []byte {
		clock := sim.NewClock()
		r := NewRecorder(clock, 128)
		r.Record(KindState, -1, "RUNNING", 0)
		r.Record(KindOpen, 0, "Sort", 0)
		r.Record(KindOpen, 1, "Table Scan", 0)
		clock.Advance(1500)
		r.RowBatch(1, 256)
		r.Record(KindMemDegrade, 0, "sort spill", 0)
		r.Record(KindSpillBegin, 0, "external merge", 512)
		clock.Advance(300)
		r.Record(KindSpillEnd, 0, "", 512)
		r.Record(KindIORetry, 1, "", 2)
		r.Record(KindClose, 1, "", 300)
		clock.Advance(200)
		r.Record(KindClose, 0, "", 300)
		r.Record(KindState, -1, "SUCCEEDED", 0)
		out, err := Chrome(r, "q-test", 1)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("chrome export is not byte-deterministic")
	}
	if err := ValidateChrome(a); err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	for _, want := range []string{
		`"process_name"`, `"thread_name"`, `"[1] Table Scan"`,
		`"state: RUNNING"`, `"memory-grant degrade"`, `"spill: external merge"`,
		`"rows [1] Table Scan"`, `"io-retry"`,
	} {
		if !strings.Contains(string(a), want) {
			t.Fatalf("export missing %s:\n%s", want, a)
		}
	}
	// Timestamps are virtual nanoseconds exported as microseconds.
	if !strings.Contains(string(a), `"ts": 1.5`) {
		t.Fatalf("expected ts 1.5us in export:\n%s", a)
	}
}

func TestValidateChromeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":    `{"traceEvents": [`,
		"empty":       `{"traceEvents": []}`,
		"no name":     `{"traceEvents": [{"ph":"B","ts":0,"pid":1,"tid":1}]}`,
		"bad phase":   `{"traceEvents": [{"name":"x","ph":"Z","ts":0,"pid":1,"tid":1}]}`,
		"no ts":       `{"traceEvents": [{"name":"x","ph":"B","pid":1,"tid":1}]}`,
		"negative ts": `{"traceEvents": [{"name":"x","ph":"B","ts":-1,"pid":1,"tid":1}]}`,
		"E without B": `{"traceEvents": [{"name":"x","ph":"E","ts":0,"pid":1,"tid":1}]}`,
	}
	for name, data := range cases {
		if err := ValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	ok := `{"traceEvents": [{"name":"x","ph":"B","ts":0,"pid":1,"tid":1}]}`
	if err := ValidateChrome([]byte(ok)); err != nil {
		t.Errorf("unclosed B must be tolerated (failed queries): %v", err)
	}
}

func TestChromeUnmarshalsAsObjectFormat(t *testing.T) {
	clock := sim.NewClock()
	r := NewRecorder(clock, 8)
	r.Record(KindOpen, 0, "Filter", 0)
	out, err := Chrome(r, "q", 1)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("missing traceEvents key")
	}
	if _, ok := doc["displayTimeUnit"]; !ok {
		t.Fatal("missing displayTimeUnit key")
	}
}
