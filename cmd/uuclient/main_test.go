package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

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
