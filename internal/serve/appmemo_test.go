package serve

import (
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"uu/internal/bench"
	"uu/internal/gpusim"
	"uu/internal/ir"
	"uu/internal/lang"
)

// goldenRequests spells bench's six golden configurations for app as
// requests.
func goldenRequests(app string) []*Request {
	return []*Request{
		{App: app},
		{App: app, Config: "unroll", Factor: 2},
		{App: app, Config: "unmerge"},
		{App: app, Config: "uu", Factor: 2},
		{App: app, Config: "uu-heuristic"},
		{App: app, Config: "uu-heuristic", Heuristic: &HeuristicSpec{Selective: true}},
	}
}

// TestAppKeyMatchesFullPath: an app request is keyed from text that was
// canonicalized once, and the key is the one the full path computes — a
// frontend run, CanonicalIR and Fingerprint per request, as buildSpec did
// for every request before the text was memoised. A cached key never moves.
func TestAppKeyMatchesFullPath(t *testing.T) {
	dev, _, err := gpusim.ParseDevice("V100")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bench.Suite {
		f, err := lang.CompileKernel(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := CanonicalIR(f)
		if err != nil {
			t.Fatal(err)
		}
		w := b.NewWorkload()
		for _, req := range goldenRequests(b.Name) {
			for round := 0; round < 2; round++ { // the request that fills the memo, and one that reads it
				sp, rerr := buildSpec(req)
				if rerr != nil {
					t.Fatalf("%s %s: %v", b.Name, req.Config, rerr)
				}
				want := Fingerprint(canon, sp.opts, dev, w.Launch, w.MemSize, nil, "", "", false)
				if sp.key != want {
					t.Errorf("%s %s round %d: key %.12s, the full path computes %.12s", b.Name, req.Config, round, sp.key, want)
				}
				if got := ir.Fingerprint(sp.kernel()); got != ir.Fingerprint(f) {
					t.Errorf("%s %s: the spec's kernel is not the frontend's function", b.Name, req.Config)
				}
			}
		}
	}
}

// TestBrokenAppAnswers400EveryTime: what is memoised for an app whose
// frontend fails is the failure, so the second request is refused like the
// first instead of finding a half-filled record.
func TestBrokenAppAnswers400EveryTime(t *testing.T) {
	broken := &bench.Benchmark{
		Name:        "broken-app",
		Source:      "kernel k(long* p) { p[0] = ; }",
		NewWorkload: bench.ByName("complex").NewWorkload,
	}
	suite := bench.Suite
	bench.Suite = append(suite[:len(suite):len(suite)], broken)
	t.Cleanup(func() { bench.Suite = suite })

	s := New(Options{Workers: 1})
	defer s.Drain(context.Background())
	var first string
	for i := 0; i < 3; i++ {
		rec := record(s.Handler(), []byte(`{"app":"broken-app"}`))
		var e Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if rec.Code != 400 || e.Code != "bad-request" {
			t.Fatalf("request %d: status %d code %q (%s), want 400 bad-request", i, rec.Code, e.Code, e.Msg)
		}
		if i == 0 {
			first = e.Msg
		} else if e.Msg != first {
			t.Errorf("request %d: %q, the first said %q", i, e.Msg, first)
		}
	}
	if n := s.c[ctrCompiles].Load(); n != 0 {
		t.Errorf("%d pool executions for an app that has no kernel", n)
	}
}

// appMissAllocCeiling bounds what buildSpec allocates for an app request
// whose app has been named before: 1.3 kB — the spec, the device, the hash.
// It was 120 to 250 kB, by app, while every request ran the frontend,
// cloned, printed, parsed back and printed again to rediscover a constant,
// so a lexer, a parser or a Clone coming back onto a miss fails this by an
// order of magnitude. The margin is for -race, under which sync.Pool drops
// what it is given and fmt formats the canonical text into a fresh buffer
// on every Fingerprint (up to 5.7 kB).
const appMissAllocCeiling = 16 << 10

func TestAppMissBuildsNoIR(t *testing.T) {
	const n = 50
	var worst uint64
	for _, b := range bench.Suite {
		req := &Request{App: b.Name, Config: "uu-heuristic", Contain: true, Remarks: "all", Profile: true}
		if _, rerr := buildSpec(req); rerr != nil {
			t.Fatal(rerr)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			if _, rerr := buildSpec(req); rerr != nil {
				t.Fatal(rerr)
			}
		}
		runtime.ReadMemStats(&m1)
		per := (m1.TotalAlloc - m0.TotalAlloc) / n
		if per > appMissAllocCeiling {
			t.Errorf("%s: buildSpec allocated %d bytes on a warmed app request, ceiling %d", b.Name, per, appMissAllocCeiling)
		}
		worst = max(worst, per)
	}
	t.Logf("at most %d bytes per buildSpec over the suite", worst)
}

// TestSharedKernelNeverMutated: every app execution in the process compiles
// a copy of one function per app, so nothing a request does — a healthy
// compile, a contained one with its snapshots and rollbacks, a chaos pass
// that panics mid-edit, detaches a terminator or flips a predicate — may
// reach that function. Four clients run the mix at once over all 16 apps,
// duplicates included so followers and fingerprint hits are in it; a copy
// taken afterwards must still be the frontend's own output. Under -race a
// write to the shared function is also a report, against the Clone that is
// reading it for another request.
func TestSharedKernelNeverMutated(t *testing.T) {
	want := map[string]uint64{}
	for _, b := range bench.Suite {
		f, err := lang.CompileKernel(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		want[b.Name] = ir.Fingerprint(f)
		if got := ir.Fingerprint(b.Kernel()); got != want[b.Name] {
			t.Fatalf("%s: a copy of the shared kernel hashes to %x before any request, the frontend's output to %x", b.Name, got, want[b.Name])
		}
	}

	var bodies [][]byte
	for _, b := range bench.Suite {
		for _, req := range []*Request{
			{App: b.Name, Config: "uu-heuristic"},
			{App: b.Name, Config: "uu", Factor: 2, Contain: true},
			{App: b.Name, Config: "uu-heuristic", Contain: true, Chaos: "panic"},
			{App: b.Name, Config: "uu-heuristic", Contain: true, Chaos: "corrupt"},
			{App: b.Name, Chaos: "panic"},
			{App: b.Name, Chaos: "corrupt"},
			{App: b.Name, Config: "unroll", Factor: 2, Chaos: "miscompile"},
		} {
			req.DeadlineMs = 2000 // a flipped loop condition may never exit
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	s := New(Options{Workers: 2, QueueDepth: 64})
	defer s.Drain(context.Background())
	h := s.Handler()
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Clients 0 and 1 walk the list together, as do 2 and 3 from
			// the middle, so most requests meet their duplicate in flight.
			start := (c / 2) * len(bodies) / 2
			for i := range bodies {
				rec := record(h, bodies[(start+i)%len(bodies)])
				switch rec.Code {
				case 200, 422, 429, 500, 504:
				default:
					t.Errorf("client %d request %d: status %d: %s", c, i, rec.Code, rec.Body)
				}
			}
		}(c)
	}
	wg.Wait()
	t.Logf("counters: %v", s.c.snapshot())
	if s.c[ctrCompiles].Load() == 0 || s.c[ctrCoalesced].Load()+s.c[ctrCacheHits].Load() == 0 {
		t.Errorf("compiles %d, coalesced %d, cache hits %d: the mix did not exercise leaders and followers",
			s.c[ctrCompiles].Load(), s.c[ctrCoalesced].Load(), s.c[ctrCacheHits].Load())
	}
	for _, b := range bench.Suite {
		if got := ir.Fingerprint(b.Kernel()); got != want[b.Name] {
			t.Errorf("%s: the shared kernel hashes to %x after the storm, the frontend's output to %x", b.Name, got, want[b.Name])
		}
	}
}
