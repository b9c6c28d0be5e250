package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"uu/cmd/internal/clitest"
	"uu/internal/serve"
)

// maskFrame blanks what differs from run to run: the server's address, the
// clock, and every latency figure with the padding in front of it.
var maskFrame = clitest.Replace(
	`http://127\.0\.0\.1:[0-9]+`, "http://<addr>",
	`[0-9]{2}:[0-9]{2}:[0-9]{2}`, "<clock>",
	` +[0-9.]+(µs|ms)| +[0-9]+\.[0-9]+s\b`, " <t>")

// TestGolden drives run against a real serve.Server behind httptest that has
// answered one compile, and against an address whose /stats is missing.
func TestGolden(t *testing.T) {
	srv := httptest.NewServer(serve.New(serve.Options{Workers: 2}).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/compile", "application/json",
		strings.NewReader(`{"source": "kernel k(long* restrict out) { out[(long)global_id()] = 1; }", "args": [0], "grid": 2, "block": 64}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The handler records its latency, and the worker leaves the in-flight
	// gauge, after the client has the response: wait for the levels to
	// settle so the frame is the same on every run.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		s, err := fetch(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		if s.Request.Count == 1 && s.Gauges["serve_inflight_requests"] == 0 && s.Gauges["serve_inflight_executions"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never settled: %+v", s)
		}
	}
	missing := httptest.NewServer(http.NotFoundHandler())
	defer missing.Close()

	clitest.Golden(t, run, []clitest.Case{
		{Name: "frame", Args: []string{"-addr", srv.URL, "-n", "1", "-no-clear", "-slo", "10s"}, Mask: maskFrame},
		{Name: "err-404", Args: []string{"-addr", missing.URL, "-n", "1"}, Mask: maskFrame},
		{Name: "err-flag", Args: []string{"-bogus"}},
	})
}

// latency is a request block with cumulative buckets (bound ms, count).
func latency(buckets ...[2]float64) *serve.Latency {
	l := &serve.Latency{}
	for _, b := range buckets {
		l.Buckets = append(l.Buckets, serve.LatencyBucket{LeMs: b[0], Count: int64(b[1])})
		l.Count = int64(b[1])
	}
	return l
}

// TestSLOWindowSparseBuckets: /stats lists non-empty buckets only, so a
// bucket may first appear between two polls. The window counts what the
// polls between them added, and nothing else.
func TestSLOWindowSparseBuckets(t *testing.T) {
	p1 := latency([2]float64{1, 10})
	// Five requests land in a bucket the first poll did not list.
	p2 := latency([2]float64{1, 10}, [2]float64{100, 15})
	// Five more land above the SLO, again in a new bucket.
	p3 := latency([2]float64{1, 10}, [2]float64{100, 15}, [2]float64{200, 20})

	const slo = 100 * time.Millisecond
	for _, c := range []struct {
		cur, prev *serve.Latency
		want      string
	}{
		{p1, nil, "SLO 100ms @ 99% [total]: 100.00% within, burn 0.00x\n"},
		{p2, p1, "SLO 100ms @ 99% [total]: 100.00% within, burn 0.00x\n" +
			"SLO 100ms @ 99% [window]: 100.00% within, burn 0.00x\n"},
		{p3, p2, "SLO 100ms @ 99% [total]: 75.00% within, burn 25.00x\n" +
			"SLO 100ms @ 99% [window]: 0.00% within, burn 100.00x\n"},
		{p3, p3, "SLO 100ms @ 99% [total]: 75.00% within, burn 25.00x\n" +
			"SLO 100ms @ 99% [window]: no traffic\n"},
	} {
		if got := sloLines(*c.cur, c.prev, slo); got != c.want {
			t.Errorf("got\n%swant\n%s", got, c.want)
		}
	}
}

// TestRenderFrame: rates divide by -interval, levels and the server's
// quantiles render as /stats gives them, and phases in serve.PhaseNames
// order.
func TestRenderFrame(t *testing.T) {
	var prev, cur serve.Stats
	for _, s := range []struct {
		into *serve.Stats
		body string
	}{
		{&prev, `{"counters":{"serve_requests_total":100,"serve_cache_hits_total":25},"queue_depth":3,"queue_cap":16,"workers":4,
			"request":{"count":100,"buckets":[{"le_ms":1,"count":90},{"le_ms":1000,"count":100}]}}`},
		{&cur, `{"counters":{"serve_requests_total":120,"serve_cache_hits_total":30},"queue_depth":3,"queue_cap":16,"workers":4,
			"gauges":{"serve_inflight_executions":2},
			"phases":{"simulate":{"count":50,"p50_ms":0.25,"p95_ms":4,"p99_ms":1500},"compile":{"count":50,"p99_ms":12.5}},
			"request":{"count":120,"p50_ms":0.5,"p95_ms":3.2,"p99_ms":900,"buckets":[{"le_ms":1,"count":100},{"le_ms":1000,"count":120}]}}`},
	} {
		if err := json.Unmarshal([]byte(s.body), s.into); err != nil {
			t.Fatal(err)
		}
	}
	o := &options{interval: 2 * time.Second, slo: 500 * time.Millisecond}
	out := render(&cur, &prev, time.Time{}, "http://x:1", o)
	for _, want := range []string{
		"requests      120     10.0/s     cache hit  25.0%", // (120-100)/2s
		"queue  3/16   inflight req  0  exec  2/4 ",
		"compile           50         -         -    12.5ms\n",
		"simulate          50     250µs     4.0ms     1.50s\n",
		"request          120     500µs     3.2ms   900.0ms\n",
		"[total]: 83.33% within", "[window]: 50.00% within",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if c, s := strings.Index(out, "\ncompile "), strings.Index(out, "\nsimulate "); c < 0 || s < c {
		t.Errorf("phases not in serve.PhaseNames order:\n%s", out)
	}
}

func TestSurfaceCensus(t *testing.T) { clitest.Census(t, "uutop", flags(new(options))) }
