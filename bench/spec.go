package main

// BENCHMARK.json is the declared metric set; a run whose printed set
// differs from it (a missing name, an unknown one, another unit) fails.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// specMetric is one declared metric. Bound is set on end-to-end metrics
// only: the share of the parent's median by which the metric may worsen.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec mirrors the parts of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// setErrors lists every way the printed set departs from the declared one.
func setErrors(want []specMetric, got metricSet) []string {
	var out []string
	declared := make(map[string]bool, len(want))
	for _, m := range want {
		declared[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s declared in BENCHMARK.json but not printed", m.Name))
		case g.Unit != m.Unit:
			out = append(out, fmt.Sprintf("%s printed in %q, declared in %q", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !declared[name] {
			out = append(out, fmt.Sprintf("%s printed but not declared in BENCHMARK.json", name))
		}
		if !metricName.MatchString(name) {
			out = append(out, fmt.Sprintf("%s is not a legal metric name", name))
		}
	}
	return out
}
