package main

import (
	"strings"
	"testing"
	"time"
)

const sampleScrape = `# HELP serve_requests_total See docs/METRICS.md.
# TYPE serve_requests_total counter
serve_requests_total 100
# HELP serve_cache_hits_total See docs/METRICS.md.
# TYPE serve_cache_hits_total counter
serve_cache_hits_total 25
# HELP serve_queue_depth Jobs waiting.
# TYPE serve_queue_depth gauge
serve_queue_depth 3
# HELP serve_queue_capacity Queue capacity.
# TYPE serve_queue_capacity gauge
serve_queue_capacity 16
# HELP serve_request_seconds End-to-end latency.
# TYPE serve_request_seconds histogram
serve_request_seconds_bucket{le="0.001"} 10
serve_request_seconds_bucket{le="0.01"} 60
serve_request_seconds_bucket{le="0.1"} 99
serve_request_seconds_bucket{le="+Inf"} 100
serve_request_seconds_sum 1.5
serve_request_seconds_count 100
# HELP serve_phase_seconds Per-phase latency.
# TYPE serve_phase_seconds histogram
serve_phase_seconds_bucket{phase="compile",le="0.01"} 40
serve_phase_seconds_bucket{phase="compile",le="+Inf"} 50
serve_phase_seconds_sum{phase="compile"} 0.9
serve_phase_seconds_count{phase="compile"} 50
serve_phase_seconds_bucket{phase="simulate",le="0.02"} 50
serve_phase_seconds_bucket{phase="simulate",le="+Inf"} 50
serve_phase_seconds_sum{phase="simulate"} 0.4
serve_phase_seconds_count{phase="simulate"} 50
`

func parse(t *testing.T, text string) *scrape {
	t.Helper()
	s, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseMetrics(t *testing.T) {
	s := parse(t, sampleScrape)
	if got := s.value("serve_requests_total"); got != 100 {
		t.Errorf("requests = %g, want 100", got)
	}
	if got := s.value("serve_queue_depth"); got != 3 {
		t.Errorf("queue depth = %g, want 3", got)
	}
	req := s.hists["serve_request_seconds"]
	if req == nil {
		t.Fatal("request histogram not parsed")
	}
	if req.count != 100 || req.sum != 1.5 || len(req.buckets) != 4 {
		t.Fatalf("request histogram count=%g sum=%g buckets=%d", req.count, req.sum, len(req.buckets))
	}
	comp := s.hists[`serve_phase_seconds{phase="compile"}`]
	if comp == nil || comp.count != 50 {
		t.Fatalf("compile phase histogram not parsed: %+v", comp)
	}
	if sim := s.hists[`serve_phase_seconds{phase="simulate"}`]; sim == nil || sim.count != 50 {
		t.Fatalf("simulate phase histogram not parsed: %+v", sim)
	}
}

func TestHistQuantile(t *testing.T) {
	s := parse(t, sampleScrape)
	req := s.hists["serve_request_seconds"]
	// rank 50 falls in the (0.001, 0.01] bucket, cum 10→60: 40/50 through.
	if got, want := req.quantile(0.5), 0.001+(0.01-0.001)*0.8; !approxEq(got, want) {
		t.Errorf("p50 = %g, want %g", got, want)
	}
	// rank 99 is exactly the 0.1 bucket's cum.
	if got := req.quantile(0.99); !approxEq(got, 0.1) {
		t.Errorf("p99 = %g, want 0.1", got)
	}
	// p100 lands in +Inf: report the last finite bound.
	if got := req.quantile(1); !approxEq(got, 0.1) {
		t.Errorf("p100 = %g, want 0.1 (last finite bound)", got)
	}
	if got := (&hist{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
}

func TestHistDeltaAndSLO(t *testing.T) {
	prev := parse(t, sampleScrape)
	cur := parse(t, sampleScrape)
	// Advance: 20 new requests, all fast (≤1ms).
	curReq := cur.hists["serve_request_seconds"]
	for i := range curReq.buckets {
		curReq.buckets[i].cum += 20
	}
	curReq.count += 20

	d := curReq.delta(prev.hists["serve_request_seconds"])
	if d.count != 20 {
		t.Fatalf("delta count = %g, want 20", d.count)
	}
	if got := d.countAtOrBelow(0.001); got != 20 {
		t.Errorf("delta fast-bucket count = %g, want 20", got)
	}

	// SLO at 100ms, target 99%: cumulative has 99/120 + 20 = 119/120 within.
	line := sloLine(curReq, prev.hists["serve_request_seconds"], 100*time.Millisecond, 99)
	if !strings.Contains(line, "[total]") || !strings.Contains(line, "[window]") {
		t.Fatalf("SLO line missing total/window: %q", line)
	}
	if !strings.Contains(line, "burn 0.00x") { // window: all 20 within SLO
		t.Errorf("window burn should be 0: %q", line)
	}
}

func TestRenderFrame(t *testing.T) {
	prev := parse(t, sampleScrape)
	cur := parse(t, strings.Replace(sampleScrape, "serve_requests_total 100", "serve_requests_total 120", 1))
	out := render(cur, prev, 2*time.Second, "http://x:1", 500*time.Millisecond, 99)
	for _, want := range []string{
		"requests", "10.0/s", // (120-100)/2s
		"queue  3/16", "compile", "simulate", "request", "SLO",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// A phase uutop does not know renders after the known ones, not never.
	extra := parse(t, sampleScrape+`serve_phase_seconds_bucket{phase="verify",le="0.01"} 7
serve_phase_seconds_bucket{phase="verify",le="+Inf"} 7
serve_phase_seconds_sum{phase="verify"} 0.01
serve_phase_seconds_count{phase="verify"} 7
`)
	out = render(extra, nil, time.Second, "http://x:1", 500*time.Millisecond, 99)
	sim, verify := strings.Index(out, "\nsimulate "), strings.Index(out, "\nverify ")
	if verify < 0 || verify < sim {
		t.Errorf("unknown phase not rendered after the known ones:\n%s", out)
	}
	// First frame (no prev) must render without panicking.
	if out := render(cur, nil, time.Second, "http://x:1", 500*time.Millisecond, 99); !strings.Contains(out, "request") {
		t.Errorf("first frame broken:\n%s", out)
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}
