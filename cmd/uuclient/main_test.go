package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"uu/cmd/internal/clitest"
	"uu/internal/serve"
)

// srcRequest is what the mirror flags could not say: a source kernel with
// its argument list (uuclient -source-file answered bad-request on any
// kernel that takes a parameter).
const srcRequest = `{"source": "kernel k(long* restrict out) { out[(long)global_id()] = 1; }", "args": [0], "grid": 2, "block": 64}`

// maskClocks blanks what differs from run to run: request IDs and every
// millisecond figure.
var maskClocks = clitest.Replace(
	`r-[0-9a-f]+-[0-9]+`, "r-<id>",
	`(_ms":)[0-9.e+-]+`, "${1}0",
	`[0-9.]+ms\b`, "<t>ms",
	`((frontend|resolve|admission|compile|simulate|total|observed) )[0-9.]+`, "${1}<t>")

// TestGolden drives run against a real serve.Server behind httptest.
func TestGolden(t *testing.T) {
	srv := httptest.NewServer(serve.New(serve.Options{Workers: 2}).Handler())
	defer srv.Close()
	// shedOnce answers the first request 429 and hands the rest to srv.
	var shed atomic.Bool
	shedOnce := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if shed.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"code":"shed","error":"admission queue full"}`))
			return
		}
		srv.Config.Handler.ServeHTTP(w, r)
	}))
	defer shedOnce.Close()
	reqFile := filepath.Join(t.TempDir(), "req.json")
	if err := os.WriteFile(reqFile, []byte(srcRequest), 0o644); err != nil {
		t.Fatal(err)
	}

	clitest.Golden(t, run, []clitest.Case{
		{Name: "inline", Args: []string{"-addr", srv.URL, `{"app":"xsbench","config":"uu","factor":2}`}, Mask: maskClocks},
		{Name: "file", Args: []string{"-addr", srv.URL, "@" + reqFile}, Mask: maskClocks},
		{Name: "artifacts", Args: []string{"-addr", srv.URL, `{"app":"xsbench","config":"uu-heuristic","remarks":"passed","profile":true}`}, Mask: maskClocks},
		{Name: "quiet-hit", Args: []string{"-addr", srv.URL, "-q", "@" + reqFile}, Mask: maskClocks},
		{Name: "retry-429", Args: []string{"-addr", shedOnce.URL, "-attempts", "3", "-seed", "7", "-q", srcRequest}, Mask: maskClocks},

		// A failed single request prints the server's message, not only the
		// tally of its code.
		{Name: "err-400", Args: []string{"-addr", srv.URL, `{"app":"nope"}`}, Mask: maskClocks},
		{Name: "err-not-json", Args: []string{"-addr", srv.URL, "app=xsbench"}, Mask: maskClocks},
		{Name: "err-trace-n", Args: []string{"-addr", srv.URL, "-trace", "t.json", "-n", "2", srcRequest}},
		{Name: "err-no-file", Args: []string{"-addr", srv.URL, "@does-not-exist.json"}},
		{Name: "err-no-body", Args: []string{"-addr", srv.URL}},
	})
}

// TestLoadSummaryAndTrace: -n/-c fan one body out and -summary records the
// outcome; -trace saves the server's trace of a single request.
func TestLoadSummaryAndTrace(t *testing.T) {
	compiles := atomic.Int64{}
	srv := httptest.NewServer(serve.New(serve.Options{Workers: 2, OnCompile: func(string) { compiles.Add(1) }}).Handler())
	defer srv.Close()
	dir := t.TempDir()
	summary, trace := filepath.Join(dir, "summary.json"), filepath.Join(dir, "trace.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", srv.URL, "-n", "12", "-c", "4", "-summary", summary, srcRequest}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("a batch printed a response body:\n%s", stdout.String())
	}
	data, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Requests != 12 || sum.OK != 12 || sum.Failed != 0 || sum.Cached+sum.Coalesced != 11 || compiles.Load() != 1 {
		t.Errorf("summary %+v with %d compiles; want 12 ok, 11 of them cached or coalesced, 1 compile", sum, compiles.Load())
	}

	stderr.Reset()
	if code := run([]string{"-addr", srv.URL, "-q", "-trace", trace, srcRequest}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if cats, _ := clitest.TraceSpans(t, trace); !cats["serve"] {
		t.Errorf("saved trace has no serve span (categories %v)", cats)
	}
}

func TestSurfaceCensus(t *testing.T) { clitest.Census(t, "uuclient", flags(new(options))) }

// TestBackoffSchedule pins the retry schedule: 50ms doubling to a 2s cap
// before jitter, and full jitter that never sleeps zero or past the cap.
func TestBackoffSchedule(t *testing.T) {
	t.Run("unjittered", func(t *testing.T) {
		want := []time.Duration{50, 100, 200, 400, 800, 1600, 2000, 2000}
		for n, w := range want {
			if got := backoff(n, 0); got != w*time.Millisecond {
				t.Fatalf("backoff(%d, 0) = %v, want %v", n, got, w*time.Millisecond)
			}
			if got := backoff(n, math.Nextafter(1, 0)); got != 1 {
				t.Fatalf("backoff(%d, ~1) = %v, want the 1ns floor", n, got)
			}
		}
	})
	t.Run("seeded", func(t *testing.T) {
		a, b := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
		for n := 0; n < 8; n++ {
			da, db := backoff(n, a.Float64()), backoff(n, b.Float64())
			if da != db || da <= 0 || da > backoffMax {
				t.Fatalf("retry %d: seeded delays %v and %v, want equal and in (0, %v]", n, da, db, backoffMax)
			}
		}
	})
}

// TestFireRetries holds fire to its retry rule against a server that
// answers each call with the next status of a script: shed and drain
// answers are retried up to the attempt budget, anything else is final.
func TestFireRetries(t *testing.T) {
	for _, tc := range []struct {
		name     string
		script   []int
		attempts int
		calls    int
		ok       bool
	}{
		{"recovers", []int{429, 503, 200}, 5, 3, true},
		{"exhausts", []int{503, 503, 503, 503, 503}, 4, 4, false},
		{"permanent", []int{400, 200}, 5, 1, false},
		{"one-try", []int{429, 200}, 0, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				status := tc.script[calls.Add(1)-1]
				if status != 200 {
					w.Header().Set("Retry-After", "0")
					w.WriteHeader(status)
					_, _ = w.Write([]byte(`{"code":"busy","error":"try later"}`))
					return
				}
				_, _ = w.Write([]byte(`{}`))
			}))
			defer srv.Close()
			jitter := func() float64 { return 0.999 } // 50µs-scale sleeps
			o := fire(srv.Client(), srv.URL, []byte(`{}`), tc.attempts, jitter, false)
			if int(calls.Load()) != tc.calls || o.retries != tc.calls-1 || o.ok != tc.ok {
				t.Fatalf("calls %d, retries %d, ok %v; want %d calls, ok %v (err %q)",
					calls.Load(), o.retries, o.ok, tc.calls, tc.ok, o.err)
			}
			if !tc.ok && o.err == "" {
				t.Fatalf("a failed request reports no error")
			}
		})
	}
}
