// Command benchjson converts `go test -bench` text output into a stable
// JSON artifact so benchmark results can be committed and compared across
// PRs (the wall-clock trajectory: BENCH_pr7.json, BENCH_pr8.json, ...).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/benchjson -label pr7 -o BENCH_pr7.json
//
// Besides the raw per-benchmark numbers it derives batch-size speedups
// from every <Name>RowMode / <Name>BatchMode benchmark pair (batch size 1
// vs 1024), so that headline is readable straight from the artifact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name     string  `json:"name"`
	Procs    int     `json:"procs,omitempty"`
	Iters    int64   `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   float64 `json:"bytes_per_op,omitempty"`
	AllocsOp int64   `json:"allocs_per_op,omitempty"`
}

// Speedup pairs a RowMode benchmark with its BatchMode counterpart.
type Speedup struct {
	Name    string  `json:"name"`
	RowNS   float64 `json:"row_ns"`
	BatchNS float64 `json:"batch_ns"`
	Speedup float64 `json:"speedup"`
}

// Report is the committed artifact.
type Report struct {
	Label      string      `json:"label"`
	Generated  string      `json:"generated"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Speedups   []Speedup   `json:"batch_speedups,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkQ6RowMode-8   100   5067 ns/op   1234 B/op   56 allocs/op
var benchLine = regexp.MustCompile(
	`^Benchmark(\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

func parse(lines *bufio.Scanner) ([]Benchmark, error) {
	var out []Benchmark
	for lines.Scan() {
		m := benchLine.FindStringSubmatch(lines.Text())
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1]}
		b.Procs, _ = strconv.Atoi(m[2])
		b.Iters, _ = strconv.ParseInt(m[3], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(m[4], 64)
		if m[5] != "" {
			b.BPerOp, _ = strconv.ParseFloat(m[5], 64)
		}
		if m[6] != "" {
			b.AllocsOp, _ = strconv.ParseInt(m[6], 10, 64)
		}
		out = append(out, b)
	}
	return out, lines.Err()
}

// deriveSpeedups pairs <Name>RowMode with <Name>BatchMode benchmarks.
func deriveSpeedups(benches []Benchmark) []Speedup {
	rows := map[string]float64{}
	for _, b := range benches {
		if name, ok := strings.CutSuffix(b.Name, "RowMode"); ok {
			rows[name] = b.NsPerOp
		}
	}
	var out []Speedup
	for _, b := range benches {
		name, ok := strings.CutSuffix(b.Name, "BatchMode")
		if !ok {
			continue
		}
		rowNS, ok := rows[name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		out = append(out, Speedup{Name: name, RowNS: rowNS, BatchNS: b.NsPerOp, Speedup: rowNS / b.NsPerOp})
	}
	return out
}

func main() {
	label := flag.String("label", "dev", "trajectory label stamped into the artifact (e.g. pr7)")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	benches, err := parse(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if len(benches) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	rep := Report{
		Label:      *label,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: benches,
		Speedups:   deriveSpeedups(benches),
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %s (%d benchmarks, %d speedup pairs)\n", *out, len(benches), len(rep.Speedups))
}
