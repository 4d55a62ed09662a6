package server

// Benchmark for the /metrics scrape cache: a quiesced server hosting N
// finished queries, scraped repeatedly. The cached path serves each
// query's family from the points its latest publication memoized; the
// uncached path rebuilds every query's points from its publication on
// every scrape.
//
//	go test ./internal/server -bench Scrape -benchmem

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lqs/internal/obs"
)

// benchServer hosts n finished queries and returns the quiesced server.
func benchServer(b *testing.B, n int) *Server {
	b.Helper()
	srv := New(Config{PollInterval: 5 * time.Millisecond, MaxConcurrent: n})
	ts := httptest.NewServer(srv)
	b.Cleanup(ts.Close)
	names := []string{"Q1", "Q6", "Q3", "Q12"}
	for i := 0; i < n; i++ {
		spec := QuerySpec{Query: names[i%len(names)], Workload: "tpch", Tenant: "bench", Seed: 42}
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/queries", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("submit %s: status %d", spec.Query, resp.StatusCode)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		srv.mu.Lock()
		active := srv.active
		srv.mu.Unlock()
		if active == 0 {
			return srv
		}
		if time.Now().After(deadline) {
			b.Fatal("bench queries never quiesced")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func benchScrape(b *testing.B, n int, cached bool) {
	srv := benchServer(b, n)
	srv.collectPoints() // warm: terminal accuracy families built once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cached {
			srv.collectPoints()
			continue
		}
		// Rebuild every hosted query's points.
		srv.mu.Lock()
		hs := make([]*hostedQuery, 0, len(srv.order))
		for _, id := range srv.order {
			hs = append(hs, srv.queries[id])
		}
		srv.mu.Unlock()
		pts := srv.obs.Points()
		for _, h := range hs {
			pts = append(pts, h.buildPoints(h.pub.Load())...)
		}
		obs.SortPoints(pts)
	}
}

func BenchmarkScrapeCached8(b *testing.B)    { benchScrape(b, 8, true) }
func BenchmarkScrapeUncached8(b *testing.B)  { benchScrape(b, 8, false) }
func BenchmarkScrapeCached32(b *testing.B)   { benchScrape(b, 32, true) }
func BenchmarkScrapeUncached32(b *testing.B) { benchScrape(b, 32, false) }
