package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func quickSuite() *Suite { return NewSuite(Config{Seed: 42, Quick: true}) }

func cell(r *Result, row, col int) float64 {
	v, err := strconv.ParseFloat(strings.TrimSpace(r.Rows[row][col]), 64)
	if err != nil {
		panic(err)
	}
	return v
}

func TestRegistryAndUnknownID(t *testing.T) {
	s := quickSuite()
	if len(IDs()) != 17 {
		t.Fatalf("%d experiments registered", len(IDs()))
	}
	if _, err := s.Run("FigNope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestFig8ShowsExchangeLag(t *testing.T) {
	s := quickSuite()
	r := s.Fig8()
	if len(r.Rows) < 10 {
		t.Fatalf("only %d rows", len(r.Rows))
	}
	// The note carries the headline ratios; the max must be large.
	if !strings.Contains(r.Notes[0], "max K-ratio") {
		t.Fatal("ratio note missing")
	}
	// Mid-execution the nested loop's K leads the exchange's.
	mid := r.Rows[len(r.Rows)/2]
	kn, _ := strconv.ParseInt(mid[1], 10, 64)
	ke, _ := strconv.ParseInt(mid[2], 10, 64)
	if kn <= ke {
		t.Fatalf("no lag mid-execution: NL=%d exch=%d", kn, ke)
	}
}

func TestFig11TwoPhaseBeatsOutputOnly(t *testing.T) {
	s := quickSuite()
	r := s.Fig11()
	// Parse "avg |err|: output-only X vs two-phase Y" from the note.
	var out, two float64
	if _, err := sscanNote(r.Notes[0], "avg |err|: output-only %f vs two-phase %f", &out, &two); err != nil {
		t.Fatalf("note format changed: %s", r.Notes[0])
	}
	if two >= out {
		t.Fatalf("two-phase (%v) did not beat output-only (%v)", two, out)
	}
	if out < 0.3 {
		t.Fatalf("output-only error %v suspiciously low; the paper's sits near 0 progress all along", out)
	}
}

func TestFig12WeightsNote(t *testing.T) {
	s := quickSuite()
	r := s.Fig12()
	if len(r.Rows) < 10 {
		t.Fatal("series too short")
	}
}

func TestFig13LargeGap(t *testing.T) {
	s := quickSuite()
	r := s.Fig13()
	var e1, e2 float64
	if _, err := sscanNote(r.Notes[0], "avg errors: %f vs %f", &e1, &e2); err != nil {
		t.Fatalf("note format changed: %s", r.Notes[0])
	}
	if e1-e2 < 0.1 {
		t.Fatalf("estimator gap %v below the paper's illustrative 0.1", e1-e2)
	}
}

// TestQuerySeriesAreSinglePass: the time-series figures show each
// estimator's curve as a live client saw it, every poll estimated once in
// order. Estimating the sampled polls a second time with the same stateful
// estimator would print its monotone high-water mark — the final value —
// in every row.
func TestQuerySeriesAreSinglePass(t *testing.T) {
	s := quickSuite()
	for _, id := range []string{"Fig12", "Fig13", "FW-Propagate"} {
		r, err := s.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		for col := 1; col < len(r.Header)-1; col++ {
			if first := cell(r, 0, col); first >= 0.05 {
				t.Errorf("%s %s: first sampled row reads %v, want below 0.05:\n%s", id, r.Header[col], first, r.Render())
			}
			for row := 1; row < len(r.Rows); row++ {
				if cell(r, row, col) < cell(r, row-1, col) {
					t.Errorf("%s %s: progress decreases at row %d:\n%s", id, r.Header[col], row, r.Render())
				}
			}
		}
	}
}

func TestFig18ColumnstoreWins(t *testing.T) {
	s := quickSuite()
	r := s.Fig18()
	if len(r.Rows) != 2 {
		t.Fatalf("rows: %v", r.Rows)
	}
	row0, cs := cell(r, 0, 1), cell(r, 1, 1)
	if cs >= row0 {
		t.Fatalf("columnstore Errortime %v not below rowstore %v (paper Fig. 18)", cs, row0)
	}
}

func TestFig19OperatorMixShift(t *testing.T) {
	s := quickSuite()
	r := s.Fig19()
	byOp := map[string][2]float64{}
	for i, row := range r.Rows {
		byOp[row[0]] = [2]float64{cell(r, i, 1), cell(r, i, 2)}
	}
	if byOp["Nested Loops"][0] != 0 || byOp["Nested Loops"][1] == 0 {
		t.Fatal("columnstore design should eliminate nested loops")
	}
	if byOp["Columnstore Index Scan"][0] == 0 {
		t.Fatal("columnstore design must use batch scans")
	}
	if byOp["Table Scan"][0] != 0 {
		t.Fatal("columnstore design should not heap-scan")
	}
}

func TestTableA1BoundsContainTruth(t *testing.T) {
	s := quickSuite()
	r := s.TableA1()
	for _, row := range r.Rows {
		lb, _ := strconv.ParseFloat(row[3], 64)
		ub := 1e18
		if row[4] != "inf" {
			ub, _ = strconv.ParseFloat(row[4], 64)
		}
		truth, _ := strconv.ParseFloat(row[7], 64)
		if truth < lb-0.5 || truth > ub+0.5 {
			t.Fatalf("true N %v outside [%v, %v] for %v", truth, lb, ub, row[1])
		}
	}
}

func TestCrossWorkloadFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("all-workload experiments are slow")
	}
	s := quickSuite()

	// Fig14: bounding+refinement beats no-refinement on at least 4 of 5.
	r14 := s.Fig14()
	wins := 0
	for i := range r14.Rows {
		if cell(r14, i, 3) < cell(r14, i, 1) {
			wins++
		}
	}
	if wins < 4 {
		t.Errorf("Fig14: refinement won on only %d/%d workloads:\n%s", wins, len(r14.Rows), r14.Render())
	}

	// Fig16: weights beat no-weights on every workload.
	r16 := s.Fig16()
	for i := range r16.Rows {
		if cell(r16, i, 1) >= cell(r16, i, 2) {
			t.Errorf("Fig16: weights lost on %s:\n%s", r16.Rows[i][0], r16.Render())
		}
	}

	// Fig17: two-phase beats output-only for Hash Aggregate and Sort.
	r17 := s.Fig17()
	for i := range r17.Rows {
		if cell(r17, i, 2) >= cell(r17, i, 1) {
			t.Errorf("Fig17: two-phase lost on %s", r17.Rows[i][0])
		}
	}

	// Fig15: the semi-blocking column improves (or ties) the plain
	// refinement column for a clear majority of operator types.
	r15 := s.Fig15()
	better, worse := 0, 0
	for i := range r15.Rows {
		a, b := cell(r15, i, 2), cell(r15, i, 3)
		switch {
		case b <= a+1e-9:
			better++
		default:
			worse++
		}
	}
	if worse > better/3 {
		t.Errorf("Fig15: semi-blocking regressed on %d op types vs %d improved/tied:\n%s", worse, better, r15.Render())
	}
}

// TestSuiteParallelRendersIdentically pins the tentpole guarantee at the
// experiment layer: a suite configured with parallel tracing renders the
// same bytes as a serial one. Fig18 traces two full TPC-H designs through
// the runner, so the worker pool genuinely reorders trace completion.
func TestSuiteParallelRendersIdentically(t *testing.T) {
	serial := NewSuite(Config{Seed: 42, Quick: true, Parallel: 1})
	par := NewSuite(Config{Seed: 42, Quick: true, Parallel: 4})
	want := serial.Fig18().Render()
	got := par.Fig18().Render()
	if got != want {
		t.Fatalf("parallel Fig18 diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
}

func TestRenderTable(t *testing.T) {
	r := &Result{ID: "X", Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	out := r.Render()
	for _, want := range []string{"=== X: T ===", "# n", "a", "bb", "--"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// sscanNote extracts floats from a note with a simple %f pattern.
func sscanNote(note, pattern string, out ...*float64) (int, error) {
	fields := strings.Fields(note)
	pats := strings.Fields(pattern)
	n := 0
	for i, p := range pats {
		if p == "%f" && i < len(fields) {
			v, err := strconv.ParseFloat(strings.TrimRight(fields[i], ","), 64)
			if err != nil {
				return n, err
			}
			*out[n] = v
			n++
		}
	}
	return n, nil
}

// TestSuiteRunRepeatable pins the contract the figure benchmarks rely on:
// Suite.Run must not mutate its cached workloads (each trace cold-starts
// the buffer pool and builds a fresh plan, so the cache is read-only), and
// therefore re-running any experiment against one shared suite — exactly
// what bench_test.go does for b.N iterations — renders byte-identical
// artifacts.
func TestSuiteRunRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("running every figure twice is slow")
	}
	s := quickSuite()
	for _, id := range IDs() {
		r1, err := s.Run(id)
		if err != nil {
			t.Fatalf("%s: first run: %v", id, err)
		}
		r2, err := s.Run(id)
		if err != nil {
			t.Fatalf("%s: second run: %v", id, err)
		}
		if a, b := r1.Render(), r2.Render(); a != b {
			t.Errorf("%s: repeated run rendered different artifact:\n--- first ---\n%s--- second ---\n%s", id, a, b)
		}
	}
}
