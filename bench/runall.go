package main

// The many-run modes: every workload once, or every workload on N seeds.
// Each run is a fresh process of this same binary, so set-up time and
// peak RSS are the workload's own.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// child runs one workload in a fresh process, relays its human output and
// returns the decoded last line.
func child(o options, workload string, seed uint64) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace),
		"-root", o.root,
	}
	if o.corrupt {
		args = append(args, "-corrupt")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()

	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Println(last)
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", workload, runErr)
		}
		return res, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", workload, runErr)
	}
	return res, nil
}

// runAll runs every workload once and prints one combined JSON object.
func runAll(o options) error {
	combined := map[string]any{
		"go_version": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"seed": o.seed, "window_s": o.seconds, "trace": o.trace, "commit": gitCommit(o.root),
	}
	var firstErr error
	for _, w := range workloadNames {
		res, err := child(o, w, o.seed)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		combined[w] = res
	}
	line, err := json.Marshal(combined)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return firstErr
}

// quartiles returns the first, second and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s)
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// repeatAll runs every workload on o.repeat seeds and, per end-to-end
// metric, prints each run's value, the spread (interquartile range over
// the median) and whether it is within the bound and within a third of it.
func repeatAll(o options) error {
	if o.repeat < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs")
	}
	spec, err := loadSpec(o.root)
	if err != nil {
		return err
	}
	o.trace = 0
	type row struct {
		workload, metric string
		values           []float64
	}
	var rows []row
	var firstErr error
	for _, w := range workloadNames {
		byMetric := make(map[string][]float64)
		for i := 0; i < o.repeat; i++ {
			res, err := child(o, w, o.seed+uint64(i))
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			for name, m := range res.Metrics {
				byMetric[name] = append(byMetric[name], m.Value)
			}
		}
		for _, m := range spec.EndToEnd {
			rows = append(rows, row{w, m.Name, byMetric[m.Name]})
		}
	}

	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	fmt.Printf("\nrepeat: %d runs per workload, seeds %d..%d, %d s windows\n", o.repeat, o.seed, o.seed+uint64(o.repeat)-1, o.seconds)
	fmt.Printf("%-10s %-22s %12s %8s %6s  %-6s %s\n", "workload", "metric", "median", "spread", "bound", "", "values")
	ok := true
	for _, r := range rows {
		if len(r.values) < 2 {
			fmt.Printf("%-10s %-22s no values\n", r.workload, r.metric)
			ok = false
			continue
		}
		q1, q2, q3 := quartiles(r.values)
		spread := (q3 - q1) / q2
		verdict := "FAIL"
		switch {
		case r.metric == "setup_s": // its spread is not judged, only its median against the parent's
			verdict = "-"
		case spread <= bounds[r.metric]/3:
			verdict = "STEADY"
		case spread <= bounds[r.metric]:
			verdict = "PASS"
		default:
			ok = false
		}
		vals := make([]string, len(r.values))
		for i, v := range r.values {
			vals[i] = strconv.FormatFloat(v, 'g', 5, 64)
		}
		fmt.Printf("%-10s %-22s %12.4f %7.1f%% %5.0f%%  %-6s %s\n", r.workload, r.metric, q2, 100*spread, 100*bounds[r.metric], verdict, strings.Join(vals, " "))
	}
	if firstErr != nil {
		return firstErr
	}
	if !ok {
		return fmt.Errorf("a metric's spread exceeds its bound")
	}
	return nil
}
