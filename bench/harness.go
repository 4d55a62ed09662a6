package main

// Shared measuring kit: sample sets and quantiles, the two clocks, peak
// RSS, and the metric map a run prints.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples is one metric's observations within a run.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

// quantile returns the p-quantile by nearest rank over a sorted copy; NaN
// when empty.
func (s samples) quantile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	return c[int(p*float64(len(c)-1)+0.5)]
}

func (s samples) median() float64 { return s.quantile(0.5) }

// tail returns the p-quantile only when at least ten samples lie beyond it
// (choosing-metrics §1); otherwise NaN, which the printer renders as 0 with
// n=0 so a sample-starved tail never masquerades as a measurement.
func (s samples) tail(p float64) float64 {
	if float64(len(s))*(1-p) < 10 {
		return math.NaN()
	}
	return s.quantile(p)
}

// cpuNow is the process CPU clock (user + system, every thread). The
// exec-* and replay loops run on one goroutine and never wait, so on a
// quiet machine their CPU time is their wall time; on this class of VM
// (13% steal measured while the benchmark was written) wall medians of
// identical runs differ by 20% and CPU medians by 4%, so CPU is the clock
// those loops report. GC work the loop's allocations trigger runs on other
// threads of this process and is therefore counted.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// allocsDuring counts heap allocations made by f.
func allocsDuring(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// metric is one printed value. N is the sample count behind it (1 for a
// single reading).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) put(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, n = 0, 0
	}
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// timeIt runs f n times and returns the mean wall time of one call in
// nanoseconds.
func timeIt(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// medianOf runs f reps times and returns the median of its results:
// probes take a handful of repetitions so one descheduling does not set
// the reading.
func medianOf(reps int, f func() float64) float64 {
	var s samples
	for i := 0; i < reps; i++ {
		s.add(f())
	}
	return s.median()
}

// render prints the human table: one line per metric, sorted by name.
func (m metricSet) render(title string) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	for _, n := range names {
		x := m[n]
		fmt.Fprintf(&sb, "  %-36s %14.4f %-6s n=%d\n", n, x.Value, x.Unit, x.N)
	}
	return sb.String()
}
