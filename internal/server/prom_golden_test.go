package server

// Golden test for the Prometheus exposition. Everything on /metrics
// derives from virtual time and deterministic workloads, so after the
// server quiesces (all queries terminal, their goroutines drained) the
// scrape is byte-for-byte reproducible — the golden file pins it. Run with
// -update to regenerate after an intentional format or counter change.
//
// A hand-rolled validator (no parser dependency) additionally checks the
// text-format grammar: HELP/TYPE precede their family's samples, families
// are contiguous, names and label blocks are well-formed, histogram
// buckets are cumulative and end at +Inf.

import (
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// scrape fetches /metrics once.
func scrape(t *testing.T, ts string) string {
	t.Helper()
	resp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// scrapeQuiesced waits until the server reports no active queries and two
// consecutive scrapes agree (slot releases land asynchronously after the
// terminal poll), then returns the stable exposition.
func scrapeQuiesced(t *testing.T, ts string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	prev := ""
	for time.Now().Before(deadline) {
		cur := scrape(t, ts)
		if strings.Contains(cur, "server_active 0") && cur == prev {
			return cur
		}
		prev = cur
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("metrics never quiesced")
	return ""
}

func TestMetricsGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{
		PollInterval: 5 * time.Millisecond, // virtual: ~8 ticks for Q1, ~4 for Q6
	})
	// Two tenants, two queries, fixed seeds: the whole exposition is a
	// function of the virtual execution, nothing else.
	a := submit(t, ts, QuerySpec{Query: "Q1", Tenant: "acme"})
	b := submit(t, ts, QuerySpec{Query: "Q6", Tenant: "beta"})
	waitTerminal(t, ts, a.ID)
	waitTerminal(t, ts, b.ID)

	got := scrapeQuiesced(t, ts.URL)
	validatePromText(t, got)

	// The issue's acceptance criteria: all three counter classes present,
	// with per-query labels, and degradation surfaced as a label.
	for _, want := range []string{
		`lqs_query_progress{degraded="false",qid="1",query="Q1",tenant="acme",workload="tpch"} 1`,
		`lqs_query_progress{degraded="false",qid="2",query="Q6",tenant="beta",workload="tpch"} 1`,
		`lqs_buffer_manager_page_hits_total{qid="1"`,
		`lqs_access_methods_logical_reads_total{qid="2"`,
		`lqs_query_state{qid="1",query="Q1",state="SUCCEEDED"`,
		`lqs_query_op_progress{node="0"`,
		`server_queries_submitted 2`,
		"# TYPE lqs_query_progress gauge",
		"# TYPE lqs_buffer_manager_page_hits_total counter",
		// PR 9: the retrospective accuracy family — one series per estimator
		// mode per finished query, tenant+mode labeled, golden-pinned.
		`lqs_query_accuracy_mean_abs_error{mode="LQS",qid="1",query="Q1",tenant="acme",workload="tpch"}`,
		`lqs_query_accuracy_mean_abs_error{mode="TGN",qid="1"`,
		`lqs_query_accuracy_mean_abs_error{mode="DNE",qid="2"`,
		`lqs_query_accuracy_terminal_error{mode="LQS",qid="2",query="Q6",tenant="beta",workload="tpch"}`,
		`lqs_query_accuracy_bounds_coverage{mode="LQS",qid="1",query="Q1",tenant="acme",workload="tpch"} 1`,
		`lqs_query_accuracy_monotonicity_violations{mode="LQS",qid="1"`,
		`lqs_query_accuracy_polls{mode="TGN",qid="2"`,
		"# TYPE lqs_query_accuracy_mean_abs_error gauge",
		"# TYPE server_accuracy_mean_abs_err_lqs histogram",
		"server_accuracy_computed 2",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("full exposition:\n%s", got)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("metrics exposition diverged from golden (re-run with -update if intentional)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

var (
	nameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// validatePromText checks text-format 0.0.4 structure line by line.
func validatePromText(t *testing.T, text string) {
	t.Helper()
	types := map[string]string{}    // family -> declared type
	seenFamily := map[string]bool{} // family -> samples started
	lastFamily := ""
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case line == "":
			t.Fatalf("line %d: empty line inside exposition", ln+1)
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !nameRe.MatchString(name) {
				t.Fatalf("line %d: bad HELP: %q", ln+1, line)
			}
			if seenFamily[name] {
				t.Fatalf("line %d: HELP for %s after its samples", ln+1, name)
			}
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !nameRe.MatchString(fields[0]) {
				t.Fatalf("line %d: bad TYPE: %q", ln+1, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, fields[1])
			}
			if _, dup := types[fields[0]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, fields[0])
			}
			types[fields[0]] = fields[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: bad comment: %q", ln+1, line)
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", ln+1, line)
			}
			name, labels, value := m[1], m[2], m[3]
			if labels != "" {
				for _, pair := range splitLabelPairs(labels[1 : len(labels)-1]) {
					if !labelRe.MatchString(pair) {
						t.Fatalf("line %d: bad label pair %q", ln+1, pair)
					}
				}
			}
			if _, err := strconv.ParseFloat(value, 64); err != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
				t.Fatalf("line %d: bad value %q", ln+1, value)
			}
			fam := familyOf(name, types)
			seenFamily[fam] = true
			if lastFamily != "" && fam != lastFamily && seenFamilyBefore(fam, lastFamily, text, ln) {
				t.Fatalf("line %d: family %s not contiguous", ln+1, fam)
			}
			lastFamily = fam
		}
	}
	if len(types) == 0 {
		t.Fatal("no TYPE lines in exposition")
	}
	checkHistograms(t, text, types)
}

// familyOf maps a sample name to its family (histogram suffixes collapse).
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base := strings.TrimSuffix(name, suf); base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// seenFamilyBefore reports whether fam had samples before line ln with a
// different family in between (non-contiguous grouping).
func seenFamilyBefore(fam, last string, text string, ln int) bool {
	seen := false
	for i, line := range strings.Split(text, "\n") {
		if i >= ln {
			return seen
		}
		if strings.HasPrefix(line, fam+" ") || strings.HasPrefix(line, fam+"{") {
			seen = true
		}
	}
	return seen
}

// splitLabelPairs splits name="v",name="v" at top-level commas.
func splitLabelPairs(s string) []string {
	var out []string
	depth, start := false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// checkHistograms asserts cumulative buckets ending at +Inf with the
// _count equal to the +Inf bucket.
func checkHistograms(t *testing.T, text string, types map[string]string) {
	t.Helper()
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		var lastCum float64 = -1
		var infSeen bool
		var infVal, countVal float64
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, fam+"_bucket{") {
				_, v, _ := strings.Cut(line, "} ")
				cum, _ := strconv.ParseFloat(v, 64)
				if cum < lastCum {
					t.Fatalf("histogram %s buckets not cumulative: %q", fam, line)
				}
				lastCum = cum
				if strings.Contains(line, `le="+Inf"`) {
					infSeen, infVal = true, cum
				}
			}
			if strings.HasPrefix(line, fam+"_count ") || strings.HasPrefix(line, fam+"_count{") {
				_, v, _ := strings.Cut(line, " ")
				countVal, _ = strconv.ParseFloat(v, 64)
			}
		}
		if !infSeen {
			t.Fatalf("histogram %s has no +Inf bucket", fam)
		}
		if infVal != countVal {
			t.Fatalf("histogram %s: +Inf bucket %v != _count %v", fam, infVal, countVal)
		}
	}
}

// TestMetricsDegradedLabelNeverAGap: the degradation path surfaces as a
// labeled series, not a missing one — while a query runs, its progress
// series is present with degraded="false" (or "true"), never absent.
func TestMetricsDegradedLabelNeverAGap(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Pace: 2 * time.Millisecond, // Q1 ~80ms wall: scrape mid-flight
	})
	sub := submit(t, ts, QuerySpec{Query: "Q1", Tenant: "live"})
	series := `lqs_query_progress{degraded="`
	found := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		got := scrape(t, ts.URL)
		if strings.Contains(got, series) && strings.Contains(got, `tenant="live"`) {
			found = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !found {
		t.Fatal("progress series with degraded label never appeared mid-flight")
	}
	waitTerminal(t, ts, sub.ID)
}
