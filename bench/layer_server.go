package main

import (
	"fmt"
	"net/http"

	"lqs/internal/server"
)

// probeServer runs a few watcher iterations against a server of its own
// with spans on, reads the per-request times off the spans, and then
// times the read paths one at a time against a finished query, where
// nothing contends: the gap between server.status_idle_us here and
// poll_us_p50 on serve is the wait for the executor's counter lock.
func probeServer(out metricSet, fx *fixtures) error {
	b := startServe(fx.seed)
	defer b.close()
	rec, tr := &recorder{}, newTracer()
	const iterations = 4
	for i := 0; i < iterations; i++ {
		b.cycle(rec, tr)
	}
	if rec.failed > 0 {
		return fmt.Errorf("server probe: %v", rec.failures)
	}

	// Per-span readings. The first submission per seed is cold by
	// construction (the server has seen neither seed), so submit and
	// first-frame here are the cold path.
	by := tr.durations()
	out.put("server.submit_ms", "ms", by["server.submit"].median(), len(by["server.submit"]))
	out.put("server.first_frame_cold_ms", "ms", rec.first.median()/1e3, len(rec.first))
	out.put("server.accuracy_ready_ms", "ms", by["server.accuracy_wait"].median(), len(by["server.accuracy_wait"]))
	out.put("server.frames_per_query", "count", float64(len(by["server.first_frame"])+len(by["server.frame"]))/iterations, iterations)
	out.put("server.status_samples_per_query", "count", float64(len(rec.poll))/iterations, iterations)
	out.put("server.history_ms", "ms", by["server.history"].median(), len(by["server.history"]))
	out.put("server.status_explain_ms", "ms", by["server.explain"].median(), len(by["server.explain"]))

	// Uncontended reads of the last, finished query.
	url := fmt.Sprintf("%s/queries/%d", b.ts.URL, b.lastID)
	const reads = 200
	var st server.StatusJSON
	var err error
	get := func(u string, v any) func() {
		return func() {
			if code, e := getJSON(b.watcher, u, v); e != nil || code != http.StatusOK {
				err = fmt.Errorf("GET %s: code %d: %v", u, code, e)
			}
		}
	}
	out.put("server.status_idle_us", "us", timeIt(reads, get(url, &st))/1e3, reads)
	var list server.ListResponse
	out.put("server.list_ms", "ms", timeIt(reads, get(b.ts.URL+"/queries", &list))/1e6, reads)

	// Frame size on the wire: the terminal frame of a late subscriber.
	text, _, e := getText(b.watcher, url+"/stream")
	if e != nil {
		return e
	}
	out.put("server.frame_bytes", "B", float64(len(text)), 1)

	// Scrapes: the watcher's own scrape right after a query finished had to
	// rebuild that query's points (one cache miss, the rest hits); the ones
	// timed here find nothing changed and are all hits.
	out.put("server.scrape_rebuild_ms", "ms", by["server.scrape"].median(), len(by["server.scrape"]))
	h0, m0 := b.srv.ScrapeCacheStats()
	var body string
	scrape := func() {
		var code int
		if body, code, e = getText(b.watcher, b.ts.URL+"/metrics"); e != nil || code != http.StatusOK {
			err = fmt.Errorf("scrape: code %d: %v", code, e)
		}
	}
	out.put("server.scrape_warm_us", "us", timeIt(reads, scrape)/1e3, reads)
	h1, m1 := b.srv.ScrapeCacheStats()
	out.put("server.scrape_bytes", "B", float64(len(body)), 1)
	out.put("server.scrape_cache_hit_ratio", "ratio", float64(h1-h0)/float64(h1-h0+m1-m0), int(h1-h0+m1-m0))

	return err
}
