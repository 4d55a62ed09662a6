package obs

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a/hits")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("a/hits") != c {
		t.Fatal("Counter not idempotent per name")
	}

	g := r.Gauge("a/occupancy")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	h := r.Histogram("a/err", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 2, 0.5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count = %d, want 4", h.Count())
	}
	if got := h.Sum(); got != 3.05 {
		t.Fatalf("histogram sum = %g, want 3.05", got)
	}
}

func TestDumpSortedAndDeterministic(t *testing.T) {
	mk := func(order []string) string {
		r := NewRegistry()
		for _, n := range order {
			r.Counter(n).Add(int64(len(n)))
		}
		r.Gauge("g/x").Set(1)
		r.Histogram("h/x", []float64{1}).Observe(0.5)
		return r.PromText()
	}
	a := mk([]string{"z", "a", "m"})
	b := mk([]string{"m", "z", "a"})
	if a != b {
		t.Fatalf("dump depends on registration order:\n%s\nvs\n%s", a, b)
	}
	var families []string
	for _, line := range strings.Split(a, "\n") {
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, fam)
		}
	}
	if !slices.IsSorted(families) {
		t.Fatalf("dump families not sorted: %q", families)
	}
	if !strings.Contains(a, "h_x_bucket{le=\"1\"} 1\nh_x_bucket{le=\"+Inf\"} 1\nh_x_sum 0.5\nh_x_count 1\n") {
		t.Fatalf("unexpected histogram series in dump:\n%s", a)
	}
}

func TestNilRegistryAndMetricsTolerated(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", nil).Observe(1)
	if r.PromText() != "" {
		t.Fatal("nil registry dump should be empty")
	}
	var c *Counter
	c.Inc()
	var g *Gauge
	g.Add(1)
	var h *Histogram
	h.Observe(1)
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", nil).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}
