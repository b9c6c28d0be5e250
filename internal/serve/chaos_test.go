package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// chaosOutcome is one request's fate during the storm.
type chaosOutcome struct {
	kind    string  // request class that was sent
	status  int     // HTTP status (0 = client-side disconnect)
	code    string  // structured error code ("" for 200s)
	ms      float64 // wall-clock latency
	badBody bool    // response body was not valid structured JSON
}

// TestChaosLoad is the load-test harness the acceptance criteria call for:
// 8 concurrent clients fire 240 requests mixing healthy kernels (with
// duplicates, so the cache and singleflight see real traffic),
// ChaosPass-poisoned kernels, malformed and oversized bodies, and abrupt
// client disconnects. The invariants: the server never dies (every
// non-disconnected request gets a structured JSON response), failures are
// the structured classes the API defines, latency stays bounded, and the
// pool serves cleanly after the storm.
func TestChaosLoad(t *testing.T) {
	const (
		clients     = 8
		perClient   = 30
		total       = clients * perClient
		p99BoundSec = 30.0
	)
	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 8, RetryAfter: time.Second})

	outcomes := make([]chaosOutcome, total)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			httpc := &http.Client{}
			for i := 0; i < perClient; i++ {
				n := cl*perClient + i
				outcomes[n] = fireChaos(t, httpc, ts.URL, n)
			}
		}(cl)
	}
	wg.Wait()

	byKind := map[string]map[string]int{}
	var lat []float64
	for _, o := range outcomes {
		if byKind[o.kind] == nil {
			byKind[o.kind] = map[string]int{}
		}
		label := o.code
		if label == "" {
			label = fmt.Sprintf("http-%d", o.status)
		}
		byKind[o.kind][label]++
		if o.badBody {
			t.Errorf("%s request got a non-structured response (status %d)", o.kind, o.status)
		}
		if o.status != 0 {
			lat = append(lat, o.ms)
		}
	}

	// Per-class invariants: healthy work succeeds or is shed/deadline —
	// never panics the server; poisoned kernels are exactly the structured
	// 500; garbage is rejected at the door.
	for kind, labels := range byKind {
		for label, count := range labels {
			ok := false
			switch kind {
			case "healthy", "contained":
				ok = label == "http-200" || label == "shed" || label == "deadline"
			case "poisoned":
				// panic → structured 500; corrupt → the verifier/codegen
				// rejects the IR with a structured 422.
				ok = label == "panic" || label == "compile-failed" ||
					label == "exec-failed" || label == "shed" || label == "deadline"
			case "malformed":
				ok = label == "malformed" || label == "bad-request"
			case "oversized":
				ok = label == "oversized"
			case "disconnect":
				ok = label == "http-0" || label == "http-200" || label == "shed" || label == "deadline"
			}
			if !ok {
				t.Errorf("%s requests saw unexpected outcome %s (%d times)", kind, label, count)
			}
		}
	}

	sort.Float64s(lat)
	p50 := lat[len(lat)/2]
	p99 := lat[len(lat)*99/100]
	if p99 > p99BoundSec*1000 {
		t.Errorf("p99 latency %.1fms exceeds the %.0fs bound", p99, p99BoundSec)
	}
	t.Logf("chaos storm: %d requests over %d clients; outcomes %v; p50 %.1fms p99 %.1fms",
		total, clients, byKind, p50, p99)

	// Phase-attribution consistency: every request recorded an end-to-end
	// and a frontend sample, and the end-to-end p99 is explained by the
	// per-phase p99s within the tolerance docs/OBSERVABILITY.md documents
	// (1.5× + 250 ms; phase histograms pool different request populations
	// — compile/simulate come from pool executions only — so the sums are
	// consistent, not exact).
	// A disconnected client returns before its server-side handler wakes
	// and records the 499, so give the histograms a moment to settle.
	reqSnap := s.tel.request.Snapshot()
	for settle := time.Now(); reqSnap.Count < total && time.Since(settle) < 10*time.Second; {
		time.Sleep(50 * time.Millisecond)
		reqSnap = s.tel.request.Snapshot()
	}
	if reqSnap.Count != total {
		t.Errorf("request histogram saw %d samples, want %d", reqSnap.Count, total)
	}
	phases := s.tel.phaseSnapshots()
	if fc := phases["frontend"].Count; fc != total {
		t.Errorf("frontend phase saw %d samples, want %d (every request enters the frontend)", fc, total)
	}
	var sumPhaseP99 float64
	for name, snap := range phases {
		p := float64(snap.Quantile(0.99)) / 1e6
		sumPhaseP99 += p
		t.Logf("phase %s: n=%d p99 %.1fms", name, snap.Count, p)
	}
	e2eP99 := float64(reqSnap.Quantile(0.99)) / 1e6
	if e2eP99 <= 0 {
		t.Error("end-to-end p99 is zero after the storm")
	}
	if e2eP99 > 1.5*sumPhaseP99+250 {
		t.Errorf("end-to-end p99 %.1fms is not explained by the summed phase p99s %.1fms (tolerance 1.5x + 250ms): unattributed time in the request path", e2eP99, sumPhaseP99)
	}

	// Zero process deaths: the very same server still serves.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz after the storm: %d", resp.StatusCode)
	}
	if status, data := post(t, ts.URL, testRequest(10)); status != 200 {
		t.Fatalf("clean request after the storm: status %d (%s)", status, data)
	}
}

// fireChaos sends request n of the storm, classed by round-robin: 60%
// healthy (half duplicates), ~13% poisoned, ~10% contained-chaos, ~7%
// malformed, ~7% oversized, ~3% disconnect.
func fireChaos(t *testing.T, httpc *http.Client, url string, n int) chaosOutcome {
	t.Helper()
	var kind string
	var body []byte
	var timeout time.Duration
	switch m := n % 30; {
	case m < 18:
		kind = "healthy"
		req := testRequest(int64(1000 * (1 + n%3)))
		// Half the healthy traffic duplicates a small key set so the cache
		// and singleflight carry real load; the rest varies the factor.
		if m%2 == 0 {
			req.Factor = 2
		} else {
			req.Factor = 2 + 2*(n%8)
		}
		body, _ = json.Marshal(req)
	case m < 22:
		kind = "poisoned"
		req := testRequest(1000)
		req.Chaos = []string{"panic", "corrupt"}[n%2]
		req.DeadlineMs = 5000 // a corrupted program that still lowers must not burn the default deadline
		body, _ = json.Marshal(req)
	case m < 25:
		kind = "contained"
		req := testRequest(1000)
		req.Chaos = "panic"
		req.Contain = true
		body, _ = json.Marshal(req)
	case m < 27:
		kind = "malformed"
		body = []byte([]string{`{broken`, `{"app":"xsbench","source":"both"}`, `{"source":"kernel k( {"}`}[n%3])
	case m < 29:
		kind = "oversized"
		body = []byte(`{"source":"` + strings.Repeat("z", 2<<20) + `"}`)
	default:
		kind = "disconnect"
		req := testRequest(100_000_000)
		req.DeadlineMs = 30_000
		body, _ = json.Marshal(req)
		timeout = 100 * time.Millisecond
	}

	c := httpc
	if timeout > 0 {
		c = &http.Client{Timeout: timeout}
	}
	start := time.Now()
	resp, err := c.Post(url+"/compile", "application/json", bytes.NewReader(body))
	o := chaosOutcome{kind: kind, ms: float64(time.Since(start).Microseconds()) / 1e3}
	if err != nil {
		return o // client-side disconnect / timeout: status 0
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == 200 {
		var r Response
		o.badBody = json.Unmarshal(data, &r) != nil || r.Key == ""
		return o
	}
	var e Error
	if json.Unmarshal(data, &e) != nil || e.Code == "" {
		o.badBody = true
		return o
	}
	o.code = e.Code
	return o
}

// TestDrainMidLoad is the SIGTERM-under-fire drill: with a storm of
// healthy requests in flight, Drain must stop intake (new work sees 503
// "draining"), resolve every in-flight request with a structured outcome
// by the drain deadline, and flush final stats. This is the in-process
// twin of cmd/uud's signal path, which calls exactly this method.
func TestDrainMidLoad(t *testing.T) {
	s := New(Options{Workers: 2, QueueDepth: 4, RetryAfter: time.Second})
	ts := newLocalServer(t, s)

	// Outcomes are collected under a mutex, not sent on a channel: two of
	// the eight clients are shed for the whole drill, and nobody reads
	// until every client has returned, so a bounded channel would block
	// them forever once it filled.
	const clients = 8
	var (
		mu       sync.Mutex
		outcomes []chaosOutcome
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			httpc := &http.Client{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := testRequest(int64(3_000_000 + cl*1000 + i)) // distinct keys, ~seconds of work
				req.DeadlineMs = 20_000
				body, _ := json.Marshal(req)
				start := time.Now()
				resp, err := httpc.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
				o := chaosOutcome{kind: "drain-load", ms: float64(time.Since(start).Microseconds()) / 1e3}
				var retryAfter time.Duration
				if err == nil {
					data, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					o.status = resp.StatusCode
					if resp.StatusCode != 200 {
						var e Error
						if json.Unmarshal(data, &e) != nil || e.Code == "" {
							o.badBody = true
						}
						o.code = e.Code
					}
					if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil {
						retryAfter = time.Duration(secs) * time.Second
					}
				}
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
				switch o.status {
				case 503: // draining: stop this client
					return
				case 429: // shed: back off as the server asked, as uuclient does
					select {
					case <-stop:
						return
					case <-time.After(retryAfter):
					}
				}
			}
		}(cl)
	}

	time.Sleep(400 * time.Millisecond) // let the pool and queue fill
	drainStart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	snap := s.Drain(ctx)
	drainTook := time.Since(drainStart)
	close(stop)
	wg.Wait()

	if drainTook > 10*time.Second {
		t.Fatalf("drain took %s, want prompt completion after the deadline cancels stragglers", drainTook)
	}
	counts := map[string]int{}
	for _, o := range outcomes {
		label := o.code
		if label == "" {
			label = fmt.Sprintf("http-%d", o.status)
		}
		counts[label]++
		if o.badBody {
			t.Errorf("drain-load request got a non-structured response (status %d)", o.status)
		}
		switch label {
		case "http-200", "draining", "canceled", "deadline", "shed":
		default:
			t.Errorf("drain-load request saw unexpected outcome %s", label)
		}
	}
	if status, data := post(t, ts.URL, testRequest(10)); status != 503 {
		t.Errorf("request after drain: status %d (%s), want 503 draining", status, data)
	}
	if snap["serve_requests_total"] == 0 {
		t.Fatalf("drain snapshot lost counters: %v", snap)
	}
	t.Logf("drain under load: took %s, outcomes %v, final stats %v", drainTook, counts, snap)
}

// newLocalServer wraps httptest for servers whose Drain the test calls
// itself.
func newLocalServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}
