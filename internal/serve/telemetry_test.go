package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe write sink for access-log assertions.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDsEverywhere pins the join-key contract: every success body,
// every structured error body, and every access-log line carries a request
// ID, all distinct, all joinable.
func TestRequestIDsEverywhere(t *testing.T) {
	var access syncBuffer
	_, ts := newTestServer(t, Options{Workers: 2, AccessLog: &access})

	// Success response.
	status, data := post(t, ts.URL, testRequest(10))
	if status != 200 {
		t.Fatalf("request: status %d: %s", status, data)
	}
	var ok Response
	if err := json.Unmarshal(data, &ok); err != nil {
		t.Fatal(err)
	}
	if ok.RequestID == "" {
		t.Fatal("success body missing request_id")
	}
	if ok.Phases == nil {
		t.Fatal("success body missing phases")
	}
	if ok.Phases.CompileMs <= 0 || ok.Phases.SimulateMs <= 0 {
		t.Errorf("execution phases not attributed: %+v", ok.Phases)
	}
	if ok.Phases.TotalMs <= 0 {
		t.Errorf("total_ms not set: %+v", ok.Phases)
	}

	// Cached duplicate still attributes the original compute.
	_, data = post(t, ts.URL, testRequest(10))
	var hit Response
	if err := json.Unmarshal(data, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatalf("duplicate not cached: %+v", hit)
	}
	if hit.RequestID == "" || hit.RequestID == ok.RequestID {
		t.Errorf("cached response request_id %q should be fresh (first was %q)", hit.RequestID, ok.RequestID)
	}
	if hit.Phases == nil || hit.Phases.CompileMs != ok.Phases.CompileMs || hit.Phases.SimulateMs != ok.Phases.SimulateMs {
		t.Errorf("cache hit lost the original compute attribution: %+v vs %+v", hit.Phases, ok.Phases)
	}

	// Structured error body.
	resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var e Error
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "malformed" || e.RequestID == "" {
		t.Fatalf("error body %s missing code/request_id", data)
	}

	// Access log: one line per request, joinable by request_id.
	lines := strings.Split(strings.TrimSpace(access.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3:\n%s", len(lines), access.String())
	}
	seen := map[string]int{}
	for _, ln := range lines {
		var rec struct {
			RequestID string  `json:"request_id"`
			Status    int     `json:"status"`
			TotalMs   float64 `json:"total_ms"`
			Phases    *Phases `json:"phases"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("unparseable access-log line %q: %v", ln, err)
		}
		if rec.RequestID == "" || rec.Phases == nil || rec.TotalMs <= 0 {
			t.Errorf("access-log line missing fields: %s", ln)
		}
		seen[rec.RequestID] = rec.Status
	}
	if st, okk := seen[ok.RequestID]; !okk || st != 200 {
		t.Errorf("success request %s not joined to a 200 access-log line", ok.RequestID)
	}
	if st, okk := seen[e.RequestID]; !okk || st != 400 {
		t.Errorf("failed request %s not joined to a 400 access-log line", e.RequestID)
	}
}

// TestMetricsScrape pins the /metrics contract under traffic: required
// families present, counters and histogram counts monotone across
// scrapes, and gauges parse.
func TestMetricsScrape(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("/metrics status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("/metrics content-type %q", ct)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	sample := func(scrape, name string) (int64, bool) {
		for _, ln := range strings.Split(scrape, "\n") {
			if strings.HasPrefix(ln, name+" ") {
				var v int64
				if _, err := fmt.Sscanf(ln[len(name)+1:], "%d", &v); err == nil {
					return v, true
				}
			}
		}
		return 0, false
	}

	post(t, ts.URL, testRequest(10))
	s1 := scrape()
	post(t, ts.URL, testRequest(10)) // cache hit
	post(t, ts.URL, testRequest(11)) // fresh compile
	s2 := scrape()

	for _, name := range []string{
		"serve_requests_total", "serve_compiles_total", "serve_cache_hits_total",
		"serve_queue_depth", "serve_workers",
		`serve_request_seconds_count`,
		`serve_phase_seconds_count{phase="compile"}`,
		`serve_phase_seconds_count{phase="encode"}`,
	} {
		v1, ok1 := sample(s1, name)
		v2, ok2 := sample(s2, name)
		if !ok1 || !ok2 {
			t.Errorf("metric %q missing from a scrape", name)
			continue
		}
		if v2 < v1 && !strings.Contains(name, "depth") {
			t.Errorf("metric %q went backwards: %d then %d", name, v1, v2)
		}
	}
	if v, _ := sample(s2, "serve_requests_total"); v != 3 {
		t.Errorf("serve_requests_total = %d after 3 requests", v)
	}
	if v, _ := sample(s2, "serve_cache_hits_total"); v != 1 {
		t.Errorf("serve_cache_hits_total = %d, want 1", v)
	}
	if v, _ := sample(s2, `serve_phase_seconds_count{phase="simulate"}`); v != 2 {
		t.Errorf("simulate phase count = %d, want 2 (pool executions only)", v)
	}
}

// TestMetricsDuringDrain pins the drain observability contract: /metrics
// keeps serving while /compile is refused, and the in-flight gauges read
// zero once the drain completes.
func TestMetricsDuringDrain(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := newHTTPServer(t, s)
	post(t, ts.URL, testRequest(10))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)

	status, _ := post(t, ts.URL, testRequest(10))
	if status != 503 {
		t.Fatalf("post-drain compile: status %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-drain /metrics: status %d, want 200", resp.StatusCode)
	}
	scrape := string(data)
	if !strings.Contains(scrape, "serve_draining 1") {
		t.Error("post-drain scrape should read serve_draining 1")
	}
	if !strings.Contains(scrape, "serve_queue_depth 0") {
		t.Error("post-drain queue depth should be 0")
	}
	if s.tel.inflightExecutions.Value() != 0 {
		t.Errorf("inflight executions gauge = %d after drain, want 0", s.tel.inflightExecutions.Value())
	}
	// The post-drain 503 above has finished by the time its response was
	// read, so the request gauge is back to zero too.
	if s.tel.inflightRequests.Value() != 0 {
		t.Errorf("inflight requests gauge = %d after drain, want 0", s.tel.inflightRequests.Value())
	}
}

// TestTraceEndpoints pins request-scoped tracing: ?trace=1 returns the
// trace in the body, the stored copy is served by GET /trace (by ID and
// latest), and untraced servers 404 with a structured error.
func TestTraceEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	// No traces stored yet.
	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("empty /trace: status %d, want 404", resp.StatusCode)
	}

	body, _ := json.Marshal(testRequest(10))
	resp, err = http.Post(ts.URL+"/compile?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var r Response
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	if r.TraceJSON == "" {
		t.Fatal("?trace=1 response missing trace_json")
	}
	var events struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(r.TraceJSON), &events); err != nil {
		t.Fatalf("trace_json is not a trace: %v", err)
	}
	names, cats := map[string]bool{}, map[string]bool{}
	for _, ev := range events.TraceEvents {
		names[ev.Name] = true
		cats[ev.Cat] = true
	}
	// This request led its flight, so besides its own serve phases its trace
	// shows the execution it caused: the pipeline's passes and the simulation.
	for _, want := range []string{"phase:frontend", "phase:resolve", "phase:admission", "optimize:work", "codegen:work", "sim:work"} {
		if !names[want] {
			t.Errorf("inline trace missing span %q (has %v)", want, names)
		}
	}
	if !cats["pass"] {
		t.Errorf("inline trace has no per-pass span (categories %v)", cats)
	}

	// The stored copy includes the terminal request span and the encode
	// phase the inline copy cannot contain.
	resp, err = http.Get(ts.URL + "/trace?id=" + r.RequestID)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/trace?id=: status %d", resp.StatusCode)
	}
	stored := string(data)
	for _, want := range []string{`"request"`, "phase:encode", r.RequestID} {
		if !strings.Contains(stored, want) {
			t.Errorf("stored trace missing %q", want)
		}
	}

	// Latest-trace form finds the same one.
	resp, err = http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != r.RequestID {
		t.Errorf("latest trace id %q, want %q", got, r.RequestID)
	}
}

// TestTraceSampling pins -trace-sample=N semantics: every N-th request is
// traced, starting with the first.
func TestTraceSampling(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, TraceSample: 2})
	for i := 0; i < 4; i++ {
		status, data := post(t, ts.URL, testRequest(int64(20+i)))
		if status != 200 {
			t.Fatalf("request %d: status %d: %s", i, status, data)
		}
	}
	s.traceMu.Lock()
	n := len(s.traces)
	s.traceMu.Unlock()
	if n != 2 {
		t.Fatalf("stored %d traces after 4 requests at sample rate 2, want 2", n)
	}
}

// TestTelemetryRecordingZeroAlloc pins the two halves of always-on
// telemetry: a live server's per-request recording allocates nothing, and
// GET /stats carries the gauges, phases and request blocks even before the
// first request.
func TestTelemetryRecordingZeroAlloc(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range []string{"gauges", "phases", "request"} {
		if _, ok := stats[block]; !ok {
			t.Errorf("/stats of an idle server has no %q block: %v", block, stats)
		}
	}

	if n := testing.AllocsPerRun(1000, func() { recordRequest(s.tel, time.Millisecond) }); n != 0 {
		t.Errorf("recording one request allocates %v, want 0", n)
	}
}

// recordRequest records what one compiled request records: both in-flight
// gauges up and down, every phase, and the end-to-end latency.
func recordRequest(tel *serveTelemetry, d time.Duration) {
	tel.inflightRequests.Inc()
	tel.inflightExecutions.Inc()
	for _, name := range PhaseNames {
		tel.phase(name, d)
	}
	tel.inflightExecutions.Dec()
	tel.request.ObserveDuration(d)
	tel.inflightRequests.Dec()
}

// TestStatsQuantiles pins the /stats latency block: per-phase and
// end-to-end quantile summaries appear once requests have flowed.
func TestStatsQuantiles(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	post(t, ts.URL, testRequest(10))
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Phases map[string]struct {
			Count int64   `json:"count"`
			P99Ms float64 `json:"p99_ms"`
		} `json:"phases"`
		Request struct {
			Count int64   `json:"count"`
			P99Ms float64 `json:"p99_ms"`
		} `json:"request"`
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Request.Count != 1 || stats.Request.P99Ms <= 0 {
		t.Errorf("request block %+v", stats.Request)
	}
	for _, name := range PhaseNames {
		if _, ok := stats.Phases[name]; !ok {
			t.Errorf("/stats phases missing %q", name)
		}
	}
	if stats.Phases["compile"].Count != 1 || stats.Phases["compile"].P99Ms <= 0 {
		t.Errorf("compile phase block %+v", stats.Phases["compile"])
	}
	if _, ok := stats.Gauges["serve_inflight_requests"]; !ok {
		t.Error("/stats missing gauges block")
	}
}

// TestStatsBucketsMatchMetrics pins /stats' request.buckets to /metrics'
// serve_request_seconds_bucket lines after traffic: the same bounds and the
// same cumulative counts, and Within reads them.
func TestStatsBucketsMatchMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	const requests = 6
	for i := int64(0); i < requests; i++ {
		post(t, ts.URL, testRequest(10+i%3)) // three compiles, three hits
	}
	// A handler records its latency after the client has its response.
	var stats Stats
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		stats = Stats{}
		if err := json.Unmarshal(get("/stats"), &stats); err != nil {
			t.Fatalf("/stats: %v", err)
		}
		if stats.Request.Count == requests || time.Now().After(deadline) {
			break
		}
	}
	req := stats.Request
	if req.Count != requests || len(req.Buckets) == 0 {
		t.Fatalf("request block %+v after %d requests", req, requests)
	}
	if stats.Workers != 2 {
		t.Errorf("workers = %d, want 2", stats.Workers)
	}

	type bucket struct{ leNs, count int64 }
	var lines []bucket
	for _, ln := range strings.Split(string(get("/metrics")), "\n") {
		rest, ok := strings.CutPrefix(ln, `serve_request_seconds_bucket{le="`)
		if !ok || strings.HasPrefix(rest, "+Inf") {
			continue
		}
		var le float64
		var b bucket
		if _, err := fmt.Sscanf(strings.Replace(rest, `"}`, " ", 1), "%g %d", &le, &b.count); err != nil {
			t.Fatalf("%q: %v", ln, err)
		}
		b.leNs = int64(math.Round(le * 1e9))
		lines = append(lines, b)
	}
	var got []bucket
	for _, b := range req.Buckets {
		got = append(got, bucket{int64(math.Round(b.LeMs * 1e6)), b.Count})
	}
	if !reflect.DeepEqual(got, lines) {
		t.Errorf("/stats request.buckets (ns, cumulative)\n  %v\n/metrics serve_request_seconds_bucket\n  %v", got, lines)
	}

	if n := req.Within(req.Buckets[0].LeMs / 2); n != 0 {
		t.Errorf("Within below the first bound = %d, want 0", n)
	}
	for _, b := range req.Buckets {
		if n := req.Within(b.LeMs); n != b.Count {
			t.Errorf("Within(%g) = %d, want the bucket's cumulative %d", b.LeMs, n, b.Count)
		}
	}
	if n := req.Within(math.Inf(1)); n != req.Count {
		t.Errorf("Within(+Inf) = %d, want count %d", n, req.Count)
	}
}

// BenchmarkTelemetryRecord measures the per-request metrics-recording
// cost (0 allocs; TestTelemetryRecordingZeroAlloc).
func BenchmarkTelemetryRecord(b *testing.B) {
	s := New(Options{Workers: 1})
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		recordRequest(s.tel, time.Duration(i)+1)
	}
}

// newHTTPServer is newTestServer without the cleanup drain, for tests
// that drain explicitly mid-test.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}
