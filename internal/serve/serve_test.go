package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testKernel is a small MiniCU kernel whose runtime scales with the iters
// argument, so tests can dial work up (deadline drills) or down (fast
// smoke requests).
const testKernel = `
kernel work(double* restrict x, double* restrict y, long n, long iters) {
  long gid = (long)global_id();
  if (gid >= n) { return; }
  double acc = x[gid] + 1.0;
  for (long i = 0; i < iters; i++) {
    acc = acc * 1.000001 + 0.5;
    if (acc > 1e30) { acc = 1.0; }
  }
  y[gid] = acc;
}
`

// testRequest returns a fast valid request for testKernel. n=64 threads in
// two warps; x at 0, y at 64*8.
func testRequest(iters int64) *Request {
	return &Request{
		Source:   testKernel,
		Config:   "uu",
		Factor:   2,
		Grid:     2,
		Block:    32,
		MemBytes: 1 << 12,
		Args:     []int64{0, 512, 64, iters},
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func post(t *testing.T, url string, req *Request) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestCompileAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	status, data := post(t, ts.URL, testRequest(10))
	if status != 200 {
		t.Fatalf("first request: status %d: %s", status, data)
	}
	var r1 Response
	if err := json.Unmarshal(data, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Cached || r1.Cycles == 0 || r1.KernelMs <= 0 || r1.Key == "" {
		t.Fatalf("implausible first response: %+v", r1)
	}

	status, data = post(t, ts.URL, testRequest(10))
	if status != 200 {
		t.Fatalf("second request: status %d: %s", status, data)
	}
	var r2 Response
	if err := json.Unmarshal(data, &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatalf("duplicate request was not served from cache: %+v", r2)
	}
	if r2.Cycles != r1.Cycles || r2.Key != r1.Key {
		t.Fatalf("cached response diverged: %+v vs %+v", r1, r2)
	}
}

func TestStructuredErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"malformed-json", "{not json", 400, "malformed"},
		{"trailing-garbage", `{"app":"xsbench"} trailing garbage`, 400, "malformed"},
		{"two-objects", `{"app":"xsbench"}{"app":"complex"}`, 400, "malformed"},
		{"no-kernel", "{}", 400, "bad-request"},
		{"two-kernels", `{"app":"xsbench","source":"kernel k() {}"}`, 400, "bad-request"},
		{"unknown-app", `{"app":"nope"}`, 400, "bad-request"},
		{"unknown-config", `{"app":"xsbench","config":"turbo"}`, 400, "bad-request"},
		{"bad-chaos", `{"app":"xsbench","chaos":"meteor"}`, 400, "bad-request"},
		{"bad-device", `{"app":"xsbench","device":"H100"}`, 400, "bad-request"},
		// Device overrides the simulator would divide by or size arrays from
		// (gpusim.DeviceConfig.Validate): the client's fault, not a 500.
		{"device-segmentbytes-0", `{"app":"complex","device":"V100:segmentbytes=0"}`, 400, "bad-request"},
		{"device-icachelineinstrs-0", `{"app":"complex","device":"V100:icachelineinstrs=0"}`, 400, "bad-request"},
		{"device-icachelines-neg", `{"app":"complex","device":"V100:icachelines=-1"}`, 400, "bad-request"},
		{"device-segmentbytes-neg", `{"app":"complex","device":"V100:segmentbytes=-32"}`, 400, "bad-request"},
		// The executor override went with the second executor: an unknown key.
		{"device-exec-override", `{"app":"complex","device":"V100:exec=switch"}`, 400, "bad-request"},
		{"bad-source", `{"source":"kernel k( {"}`, 400, "bad-request"},
		{"bad-args", `{"source":"kernel k(long n) { long x = n; }","args":[]}`, 400, "bad-request"},
		{"two-functions", `{"ir":"func @a() {\nentry:\n  ret\n}\nfunc @b() {\nentry:\n  ret\n}\n"}`, 400, "bad-request"},
		// Kernels that write no register: every instruction they lower to
		// has no destination, and they simulate.
		{"no-registers-source", `{"source":"kernel k() { }"}`, 200, ""},
		{"no-registers-ir", `{"ir":"func @a() {\nentry:\n  ret\n}\n"}`, 200, ""},
		// Just over the 1 MiB body bound.
		{"oversized", `{"source":"` + strings.Repeat("x", maxBodyBytes) + `"}`, 413, "oversized"},
		{"oversized-tail", `{"app":"nope"}` + strings.Repeat(" ", maxBodyBytes), 413, "oversized"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.wantStatus, data)
			continue
		}
		var e Error
		if err := json.Unmarshal(data, &e); err != nil || e.Code != tc.wantCode {
			t.Errorf("%s: body %q, want structured code %q", tc.name, data, tc.wantCode)
		}
	}
}

// TestEscapingAllocaIsABadRequest: IR that loads through a select of two
// allocas cannot be promoted by mem2reg, so no pipeline can compile it. The
// frontend's verifier refuses it as the client's fault, before any worker
// runs the pipeline into codegen's "run mem2reg first".
func TestEscapingAllocaIsABadRequest(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	const escaping = `func @sel(i1 %c) -> i64 {
entry:
  %x = alloca i64
  %y = alloca i64
  store i64 1, i64* %x
  store i64 2, i64* %y
  %t5 = select i1 %c, i64* %x, i64* %y
  %t6 = load i64* %t5
  ret i64 %t6
}
`
	status, data := post(t, ts.URL, &Request{IR: escaping, Args: []int64{1}})
	var e Error
	if err := json.Unmarshal(data, &e); err != nil || status != 400 || e.Code != "bad-request" ||
		!strings.Contains(e.Msg, "alloca %x escapes through select") {
		t.Fatalf("status %d, body %s; want 400 bad-request naming the escaping alloca", status, data)
	}
	if n := s.c[ctrCompiles].Load(); n != 0 {
		t.Errorf("%d pool executions, want 0", n)
	}
}

// TestWrappedAddressIsAnExecutionFault: a load whose address+size wraps
// past the largest int64 fails the request as any out-of-bounds access
// does, a 422 under the same code, and not as a recovered panic (500).
func TestWrappedAddressIsAnExecutionFault(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	const kernel = `func @oob(i64* noalias %a) {
entry:
  %p = gep i64* %a, i64 IDX
  %v = load i64* %p
  store i64 %v, i64* %a
  ret
}
`
	var codes []string
	for _, idx := range []string{"1000000", "1152921504606846975"} {
		status, data := post(t, ts.URL, &Request{IR: strings.Replace(kernel, "IDX", idx, 1), Args: []int64{0}, MemBytes: 4096})
		var e Error
		if err := json.Unmarshal(data, &e); err != nil || status != 422 || !strings.Contains(e.Msg, "load out of bounds") {
			t.Fatalf("index %s: status %d, body %s; want 422 naming the out-of-bounds load", idx, status, data)
		}
		codes = append(codes, e.Code)
	}
	if codes[0] != codes[1] {
		t.Errorf("wrapped address answered under code %q, a plain out-of-bounds one under %q", codes[1], codes[0])
	}
}

// TestPanicIsolation injects the chaos pass's mid-pass panic into an
// uncontained pipeline: the request must fail with a structured 500 and
// the pool must keep serving afterwards.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	req := testRequest(10)
	req.Chaos = "panic"
	status, data := post(t, ts.URL, req)
	if status != 500 {
		t.Fatalf("poisoned request: status %d (%s), want 500", status, data)
	}
	var e Error
	if err := json.Unmarshal(data, &e); err != nil || e.Code != "panic" {
		t.Fatalf("poisoned request body %q, want code \"panic\"", data)
	}
	if s.c[ctrPanics].Load() != 1 {
		t.Fatalf("panic counter = %d, want 1", s.c[ctrPanics].Load())
	}

	// The same worker must still serve clean work.
	status, data = post(t, ts.URL, testRequest(10))
	if status != 200 {
		t.Fatalf("request after panic: status %d (%s), want 200", status, data)
	}
}

// TestChaosContained turns containment on: the same injected panic is
// caught at the pass level (harden.Guard semantics via the pipeline), the
// compilation completes with the pass skipped, and the response reports
// the contained failure.
func TestChaosContained(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := testRequest(10)
	req.Chaos = "panic"
	req.Contain = true
	status, data := post(t, ts.URL, req)
	if status != 200 {
		t.Fatalf("contained chaos: status %d (%s), want 200", status, data)
	}
	var r Response
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.ContainedFailures) == 0 {
		t.Fatalf("contained chaos reported no failures: %+v", r)
	}
}

// TestDeadlineCancelsWork submits a kernel that needs far longer than its
// deadline: the request must come back 504 within a bounded wall-clock
// time (cancellation at warp-block boundaries, not after the kernel
// finishes).
func TestDeadlineCancelsWork(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	req := testRequest(200_000_000) // ~1e9 warp steps: minutes of simulation
	req.DeadlineMs = 200
	start := time.Now()
	status, data := post(t, ts.URL, req)
	elapsed := time.Since(start)
	if status != 504 {
		t.Fatalf("slow request: status %d (%s), want 504", status, data)
	}
	var e Error
	if err := json.Unmarshal(data, &e); err != nil || e.Code != "deadline" {
		t.Fatalf("slow request body %q, want code \"deadline\"", data)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("deadline took %s to take effect; cancellation is not prompt", elapsed)
	}
	if s.c[ctrDeadline].Load() != 1 {
		t.Fatalf("deadline counter = %d, want 1", s.c[ctrDeadline].Load())
	}
}

// TestLoadShedding fills the pool and queue with slow work and asserts the
// next request is shed with 429 + Retry-After instead of queueing.
func TestLoadShedding(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	slow := testRequest(50_000_000)
	slow.DeadlineMs = 3000

	// Occupy the worker and the queue slot. Distinct factors keep the
	// fingerprints distinct so they do not coalesce.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(factor int) {
			r := *slow
			r.Factor = 2 * (factor + 1)
			status, data := post(t, ts.URL, &r)
			if status != 200 && status != 504 {
				errs <- fmt.Errorf("slow request %d: status %d (%s)", factor, status, data)
				return
			}
			errs <- nil
		}(i)
	}
	time.Sleep(300 * time.Millisecond) // let both reach the queue

	shed := *slow
	shed.Factor = 8
	body, _ := json.Marshal(&shed)
	resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 429 {
		t.Fatalf("overload request: status %d (%s), want 429", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("429 with Retry-After %q, want \"1\"", ra)
	}
	var e Error
	if err := json.Unmarshal(data, &e); err != nil || e.Code != "shed" {
		t.Fatalf("shed body %q, want code \"shed\"", data)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsEndpoint asserts /stats carries every documented counter.
func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	post(t, ts.URL, testRequest(10))
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Counters map[string]int64 `json:"counters"`
		QueueCap int              `json:"queue_cap"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, name := range counterNames {
		if _, ok := stats.Counters[name]; !ok {
			t.Errorf("/stats missing counter %s", name)
		}
	}
	if len(stats.Counters) != int(numCounters) {
		t.Errorf("/stats has %d counters, counterNames lists %d — update counterNames and docs/METRICS.md", len(stats.Counters), len(counterNames))
	}
	if stats.Counters["serve_requests_total"] == 0 || stats.Counters["serve_compiles_total"] == 0 {
		t.Errorf("counters did not record the request: %+v", stats.Counters)
	}
}

// TestDrainRejectsNewWork pins the drain contract: after Drain begins, new
// compile requests and the readiness probe get structured 503s while the
// liveness probe stays 200 — killing a pod mid-drain would lose the very
// work Drain exists to finish.
func TestDrainRejectsNewWork(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _ := post(t, ts.URL, testRequest(10))
	if status != 200 {
		t.Fatalf("pre-drain request: status %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	snap := s.Drain(ctx)
	if snap["serve_requests_total"] != 1 {
		t.Fatalf("drain snapshot lost counters: %+v", snap)
	}

	status, data := post(t, ts.URL, testRequest(10))
	if status != 503 {
		t.Fatalf("post-drain request: status %d (%s), want 503", status, data)
	}
	var e Error
	if err := json.Unmarshal(data, &e); err != nil || e.Code != "draining" {
		t.Fatalf("post-drain body %q, want code \"draining\"", data)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("post-drain readyz: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-drain healthz: status %d, want 200 (liveness, not readiness)", resp.StatusCode)
	}
}

// TestLRUCacheEviction pins the cache bound: the oldest entry falls out.
func TestLRUCacheEviction(t *testing.T) {
	c := newLRU(2)
	c.put("a", &Response{Key: "a"})
	c.put("b", &Response{Key: "b"})
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.put("c", &Response{Key: "c"}) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}
