package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDuplicateSubmissionsCompileOnce is the singleflight acceptance
// benchmark: 120 identical concurrent requests must trigger exactly one
// pool execution — the leader compiles, every other request either waits
// on the in-flight result (coalesced) or reads the cache — and every
// request must succeed. The OnCompile hook counts actual executions, so
// the assertion cannot be fooled by fast compiles.
func TestDuplicateSubmissionsCompileOnce(t *testing.T) {
	const clients = 120
	var compiles atomic.Int64
	s, ts := newTestServer(t, Options{
		Workers:   4,
		OnCompile: func(string) { compiles.Add(1) },
	})

	// Enough iterations that the compile+simulate outlives the request
	// stampede: every follower must find the flight in progress or done,
	// never a cold cache with a free queue slot. The explicit deadline
	// keeps the slow -race build (~10x) clear of the 30s default.
	req := testRequest(2_000_000)
	req.DeadlineMs = 110_000
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	lat := make([]float64, clients)
	errs := make([]error, clients)
	coalesced := make([]bool, clients)
	cached := make([]bool, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
			lat[i] = float64(time.Since(start).Microseconds()) / 1e3
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != 200 {
				errs[i] = &Error{Status: resp.StatusCode, Msg: string(data)}
				return
			}
			var r Response
			if err := json.Unmarshal(data, &r); err != nil {
				errs[i] = err
				return
			}
			coalesced[i], cached[i] = r.Coalesced, r.Cached
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := compiles.Load(); got != 1 {
		t.Fatalf("%d identical requests caused %d compiles, want exactly 1", clients, got)
	}
	nCoalesced, nCached := 0, 0
	for i := range coalesced {
		if coalesced[i] {
			nCoalesced++
		}
		if cached[i] {
			nCached++
		}
	}
	if nCoalesced+nCached != clients-1 {
		t.Fatalf("coalesced %d + cached %d != %d followers", nCoalesced, nCached, clients-1)
	}
	if hits := s.c[ctrCacheHits].Load() + s.c[ctrCoalesced].Load(); hits != int64(clients-1) {
		t.Fatalf("server counted %d hits, want %d", hits, clients-1)
	}
	sort.Float64s(lat)
	t.Logf("dup benchmark: %d clients, 1 compile, %d coalesced, %d cached, p50 %.1fms p99 %.1fms",
		clients, nCoalesced, nCached, lat[len(lat)/2], lat[len(lat)*99/100])
}

// TestAbandonedFlightCancels pins the refcounted-waiter contract: when
// every client of an in-flight compile disconnects, the compute context is
// canceled (the worker frees up promptly) — and because errors are never
// cached, a later identical request recompiles successfully.
func TestAbandonedFlightCancels(t *testing.T) {
	var compiles atomic.Int64
	s, ts := newTestServer(t, Options{
		Workers:   1,
		OnCompile: func(string) { compiles.Add(1) },
	})

	slow := testRequest(300_000_000)
	slow.DeadlineMs = 60_000
	body, _ := json.Marshal(slow)

	client := &http.Client{Timeout: 300 * time.Millisecond}
	_, err := client.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
	if err == nil {
		t.Fatal("expected the client timeout to abandon the request")
	}

	// The abandoned compute must release the only worker quickly; a fast
	// request right after must not wait for the slow kernel to finish.
	fast := testRequest(10)
	done := make(chan int, 1)
	go func() {
		status, _ := post(t, ts.URL, fast)
		done <- status
	}()
	select {
	case status := <-done:
		if status != 200 {
			t.Fatalf("request after abandonment: status %d", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker still occupied by an abandoned compile")
	}
	if got := s.c[ctrCanceled].Load(); got != 1 {
		t.Fatalf("canceled counter = %d, want 1 (the abandoned flight)", got)
	}
	if got := compiles.Load(); got != 2 {
		t.Fatalf("compiles = %d, want 2 (abandoned + fast)", got)
	}
}

// TestLiveDuplicateAfterAbandonLeadsFreshFlight pins the join-after-abandon
// fix: between the last waiter of a flight disconnecting and the worker
// noticing the canceled context, the flight is dying but not finished. A
// live request for the same key arriving in that window must lead a fresh
// flight — not join the dying one and be answered 503 "canceled". The
// window is held open deterministically by blocking the first execution in
// OnCompile, which runs on the worker inside the execution.
func TestLiveDuplicateAfterAbandonLeadsFreshFlight(t *testing.T) {
	var compiles atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Options{
		Workers: 2,
		OnCompile: func(string) {
			if compiles.Add(1) == 1 {
				close(started)
				<-release
			}
		},
	})
	h := s.Handler()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	body, err := json.Marshal(testRequest(10))
	if err != nil {
		t.Fatal(err)
	}
	serve := func(ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/compile", bytes.NewReader(body)).WithContext(ctx))
		return rec
	}

	// The only waiter disconnects while its compute is held mid-execution.
	ctx, disconnect := context.WithCancel(context.Background())
	abandoned := make(chan struct{})
	go func() {
		defer close(abandoned)
		serve(ctx)
	}()
	<-started
	disconnect()
	<-abandoned // the handler has left the flight

	// Same key, live client, first execution still held.
	live := make(chan *httptest.ResponseRecorder, 1)
	go func() { live <- serve(context.Background()) }()
	select {
	case rec := <-live:
		var res Response
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != 200 {
			t.Fatalf("live duplicate: status %d body %s", rec.Code, rec.Body)
		}
		if res.Coalesced || res.Cached {
			t.Fatalf("live duplicate did not lead its own flight: %+v", res)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatalf("live duplicate joined the abandoned flight: %s", (<-live).Body)
	}

	close(release) // the dying flight now finishes as canceled
	if got := compiles.Load(); got != 2 {
		t.Fatalf("pool executions = %d, want 2 (abandoned + live)", got)
	}
}

// TestFinishKeepsNewerFlight is the other half of the fix: an abandoned
// flight that finishes after a fresh flight took its key over must not
// remove the fresh flight from the table.
func TestFinishKeepsNewerFlight(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	old := &flight{key: "k", done: make(chan struct{})}
	fresh := &flight{key: "k", done: make(chan struct{})}
	s.mu.Lock()
	s.flights["k"] = fresh
	s.mu.Unlock()
	s.finish(old, nil, &Error{Status: 503, Code: "canceled"})
	s.mu.Lock()
	got := s.flights["k"]
	s.mu.Unlock()
	if got != fresh {
		t.Fatal("finishing a retired flight removed the flight that replaced it")
	}
	s.finish(fresh, nil, &Error{Status: 503, Code: "canceled"})
	s.mu.Lock()
	_, still := s.flights["k"]
	s.mu.Unlock()
	if still {
		t.Fatal("finishing the current flight left its key in the table")
	}
}
