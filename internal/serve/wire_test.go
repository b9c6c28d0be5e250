package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// coalesce sends body twice to a fresh server, holding the first execution
// until the second request has joined its flight, and returns the server
// with the leader's and the follower's recorders.
func coalesce(t *testing.T, opts Options, body []byte) (*Server, *httptest.ResponseRecorder, *httptest.ResponseRecorder) {
	t.Helper()
	var compiles atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	opts.OnCompile = func(string) {
		if compiles.Add(1) == 1 {
			close(started)
			<-release
		}
	}
	s, _ := newTestServer(t, opts)
	h := s.Handler()
	leader, follower := make(chan *httptest.ResponseRecorder, 1), make(chan *httptest.ResponseRecorder, 1)
	go func() { leader <- record(h, body) }()
	<-started
	go func() { follower <- record(h, body) }()
	for deadline := time.Now().Add(10 * time.Second); s.c[ctrCoalesced].Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the second request never joined the first one's flight")
		}
	}
	close(release)
	return s, <-leader, <-follower
}

// checkWire is the byte-identity oracle for a 200: its body must be
// json.Marshal of the cache entry that answered it, with the request's own
// fields (request ID, cache flags, phases, trace) set to what the body
// reports, plus a newline. It returns the decoded body.
func checkWire(t *testing.T, s *Server, form string, rec *httptest.ResponseRecorder) *Response {
	t.Helper()
	if rec.Code != 200 {
		t.Fatalf("%s: status %d: %s", form, rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", form, ct)
	}
	var got Response
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("%s: %v", form, err)
	}
	s.mu.Lock()
	el := s.cache.items[got.Key]
	s.mu.Unlock()
	if el == nil {
		t.Fatalf("%s: no cache entry for %.12s", form, got.Key)
	}
	want := *el.Value.(*lruEntry).val
	want.RequestID, want.Cached, want.Coalesced = got.RequestID, got.Cached, got.Coalesced
	want.Phases, want.TraceJSON = got.Phases, got.TraceJSON
	b, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if b = append(b, '\n'); !bytes.Equal(rec.Body.Bytes(), b) {
		t.Errorf("%s: body differs from json.Marshal of its response:\n got %s\nwant %s", form, rec.Body, b)
	}
	if got.RequestID == "" || got.Phases == nil {
		t.Errorf("%s: body without request_id or phases: %s", form, rec.Body)
	}
	return &got
}

// TestEvery200IsMarshalPlusNewline holds every way a 200 is written — the
// leader, a coalesced follower, an identity hit, a fingerprint hit, a traced
// miss and hit, a response carrying remarks and a profile, and one carrying
// contained failures — to the bytes json.Marshal wrote for them before the
// execution encoded its body once.
func TestEvery200IsMarshalPlusNewline(t *testing.T) {
	body, _ := json.Marshal(testRequest(10))
	s, leader, follower := coalesce(t, Options{Workers: 2}, body)
	h := s.Handler()
	flags := func(form string, r *Response, cached, coalesced bool) {
		t.Helper()
		if r.Cached != cached || r.Coalesced != coalesced {
			t.Errorf("%s: cached %t coalesced %t, want %t %t", form, r.Cached, r.Coalesced, cached, coalesced)
		}
	}
	flags("leader", checkWire(t, s, "leader", leader), false, false)
	flags("follower", checkWire(t, s, "follower", follower), false, true)

	idents := s.c[ctrIdentHits].Load()
	flags("identity-hit", checkWire(t, s, "identity-hit", record(h, body)), true, false)
	if s.c[ctrIdentHits].Load() != idents+1 {
		t.Error("identity-hit: not answered by request identity")
	}

	renamed := testRequest(10)
	renamed.Source = renamedKernel
	renamedBody, _ := json.Marshal(renamed)
	hits := s.c[ctrCacheHits].Load()
	flags("fingerprint-hit", checkWire(t, s, "fingerprint-hit", record(h, renamedBody)), true, false)
	if s.c[ctrCacheHits].Load() != hits+1 || s.c[ctrIdentHits].Load() != idents+1 {
		t.Error("fingerprint-hit: not answered by fingerprint")
	}

	traced, _ := json.Marshal(withFactor(4))
	for _, form := range []string{"trace-miss", "trace-hit"} {
		r := checkWire(t, s, form, recordAt(h, "/compile?trace=1", traced))
		flags(form, r, form == "trace-hit", false)
		if r.TraceJSON == "" {
			t.Errorf("%s: no trace_json", form)
		}
	}

	artifacts, _ := json.Marshal(&Request{App: "complex", Config: "uu-heuristic", Contain: true, Remarks: "all", Profile: true})
	for _, form := range []string{"artifacts-miss", "artifacts-hit"} {
		r := checkWire(t, s, form, record(h, artifacts))
		if r.RemarksYAML == "" || r.ProfileFolded == "" {
			t.Errorf("%s: remarks %d bytes, profile %d bytes", form, len(r.RemarksYAML), len(r.ProfileFolded))
		}
	}

	chaos := testRequest(10)
	chaos.Chaos, chaos.Contain = "panic", true
	contained, _ := json.Marshal(chaos)
	if r := checkWire(t, s, "contained-failures", record(h, contained)); len(r.ContainedFailures) == 0 {
		t.Error("contained-failures: none reported")
	}
}

// TestEncodeFailureIsA500 injects a failing response encoder: the execution
// fails as a structured 500 with code "encode" for every waiter, the access
// log records 500, and nothing is cached.
func TestEncodeFailureIsA500(t *testing.T) {
	failEncoding(t, errors.New("injected"))
	var access syncBuffer
	body, _ := json.Marshal(testRequest(10))
	s, leader, follower := coalesce(t, Options{Workers: 2, AccessLog: &access}, body)
	ids := map[string]bool{}
	for form, rec := range map[string]*httptest.ResponseRecorder{"leader": leader, "follower": follower} {
		var e Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != 500 || e.Code != "encode" || e.RequestID == "" {
			t.Errorf("%s: status %d body %s, want a 500 with code encode and a request ID", form, rec.Code, rec.Body)
		}
		ids[e.RequestID] = true
	}
	if len(ids) != 2 {
		t.Errorf("leader and follower share a request ID: %v", ids)
	}
	lines := strings.Split(strings.TrimSpace(access.String()), "\n")
	for _, line := range lines {
		var l accessLogLine
		if err := json.Unmarshal([]byte(line), &l); err != nil || l.Status != 500 || l.Code != "encode" {
			t.Errorf("access log line %s, want status 500 code encode", line)
		}
	}
	if len(lines) != 2 {
		t.Errorf("%d access log lines, want 2", len(lines))
	}
	s.mu.Lock()
	n := s.cache.len()
	s.mu.Unlock()
	if n != 0 || s.c[ctrFailed].Load() != 1 {
		t.Errorf("cache entries %d, failed executions %d; want 0 and 1", n, s.c[ctrFailed].Load())
	}
}

// TestAppendJSONFloatMatchesEncodingJSON holds appendJSONFloat to
// encoding/json on the format's edges (the exponent form below 1e-6 and from
// 1e21, one- and two-digit exponents), on phase timings and on random bits.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 1e-7, -1e-7, 1e-6, 9.99999e-7, 1e-10, 999999.999,
		1e20, 1e21, -1e21, 123456789.125, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		ms(time.Microsecond), ms(1500 * time.Microsecond), ms(time.Hour),
	} {
		check(f)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		check(ms(time.Duration(rng.Int63n(int64(time.Minute)))))
		check(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(f)
		}
	}
}

// TestAppendPhasesMatchesEncodingJSON holds the phases splice to
// encoding/json, encode_ms present and omitted.
func TestAppendPhasesMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := func() float64 { return ms(time.Duration(rng.Int63n(int64(time.Second)))) }
	for i := 0; i < 1000; i++ {
		p := Phases{FrontendMs: d(), ResolveMs: d(), AdmissionMs: d(), CompileMs: d(), SimulateMs: d(), TotalMs: d()}
		if i%2 == 0 {
			p.EncodeMs = d()
		}
		want, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := bytes.CutPrefix(appendPhases(nil, p), []byte(`,"phases":`))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("appendPhases(%+v) = %s, encoding/json writes %s", p, got, want)
		}
	}
}

// TestPooledBuffersAreBounded: a buffer that grew past maxPooledBuf is not
// filed back, so a large body pins nothing after its request.
func TestPooledBuffersAreBounded(t *testing.T) {
	big := make([]byte, 0, maxPooledBuf+1)
	bp := new([]byte)
	fileBuf(bp, big)
	if *bp != nil {
		t.Fatal("an oversized buffer was filed back")
	}
	var req Request
	body := strings.NewReader(`{"source":"` + strings.Repeat("x", 2*maxPooledBuf) + `"}`)
	if err := decodeRequest(body, &req); err != nil || len(req.Source) != 2*maxPooledBuf {
		t.Fatalf("decode: %v, source %d bytes", err, len(req.Source))
	}
}
