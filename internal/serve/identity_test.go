package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uu/internal/lang"
)

// speedOnlyFields are the Request fields requestIdentity leaves out, as
// Fingerprint does: they change how long a result may take, never the result.
var speedOnlyFields = []string{"DeadlineMs"}

// perturb changes one field of a struct in place, by kind. A field of a kind
// it does not know fails the test, so a new kind of Request field cannot slip
// past the coverage check below.
func perturb(t *testing.T, f reflect.Value, name string) {
	t.Helper()
	switch f.Kind() {
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Slice:
		f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
	default:
		t.Fatalf("field %s has kind %s: teach perturb about it and hash it in requestIdentity", name, f.Kind())
	}
}

// TestIdentityCoversEveryRequestField is the rule the shortcut rests on: the
// identity is never narrower than the fingerprint. Every field of Request
// and HeuristicSpec, changed alone, must change the identity, unless it is on
// the speed-only list — and those must leave the fingerprint alone too. A
// field added to Request later and forgotten in requestIdentity fails here
// instead of serving one request another's result.
func TestIdentityCoversEveryRequestField(t *testing.T) {
	base := func() *Request {
		r := testRequest(10)
		r.Config = "uu-heuristic"
		r.Heuristic = &HeuristicSpec{C: 512}
		return r
	}
	baseID := requestIdentity(base())
	baseSpec, rerr := buildSpec(base())
	if rerr != nil {
		t.Fatal(rerr)
	}

	rt := reflect.TypeOf(Request{})
	for _, name := range speedOnlyFields {
		if _, ok := rt.FieldByName(name); !ok {
			t.Errorf("speed-only field %s is not a field of Request", name)
		}
	}
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		r := base()
		f := reflect.ValueOf(r).Elem().Field(i)
		if name == "Heuristic" {
			f.Set(reflect.Zero(f.Type())) // the block's presence; its fields follow
		} else {
			perturb(t, f, name)
		}
		changed := requestIdentity(r) != baseID
		if !slices.Contains(speedOnlyFields, name) {
			if !changed {
				t.Errorf("changing Request.%s alone leaves the identity unchanged", name)
			}
			continue
		}
		if changed {
			t.Errorf("speed-only Request.%s changes the identity", name)
		}
		sp, rerr := buildSpec(r)
		if rerr != nil {
			t.Fatalf("Request.%s: %v", name, rerr)
		}
		if sp.key != baseSpec.key {
			t.Errorf("Request.%s is listed as speed-only but changes the fingerprint", name)
		}
	}

	ht := reflect.TypeOf(HeuristicSpec{})
	for i := 0; i < ht.NumField(); i++ {
		r := base()
		perturb(t, reflect.ValueOf(r.Heuristic).Elem().Field(i), ht.Field(i).Name)
		if requestIdentity(r) == baseID {
			t.Errorf("changing HeuristicSpec.%s alone leaves the identity unchanged", ht.Field(i).Name)
		}
	}
}

// TestIdentityFieldBoundaries pins the length prefixes: moving bytes across
// a field boundary, or an absent heuristic block against an empty one, must
// not render to the same hash input.
func TestIdentityFieldBoundaries(t *testing.T) {
	pairs := [][2]*Request{
		{{App: "ab", Source: "c"}, {App: "a", Source: "bc"}},
		{{Source: "ab"}, {IR: "ab"}},
		{{IR: "k", Config: "uu"}, {IR: "ku", Config: "u"}},
		{{Chaos: "a", Remarks: "b"}, {Chaos: "ab"}},
		{{Args: []int64{1}, MemBytes: 0}, {Args: nil, MemBytes: 1}},
		{{Args: []int64{0}}, {Args: nil}},
		{{Heuristic: nil}, {Heuristic: &HeuristicSpec{}}},
		{{Heuristic: &HeuristicSpec{Overrides: "L1:deny"}}, {Heuristic: &HeuristicSpec{}, Device: "L1:deny"}},
	}
	for i, p := range pairs {
		if requestIdentity(p[0]) == requestIdentity(p[1]) {
			t.Errorf("pair %d: %+v and %+v share an identity", i, p[0], p[1])
		}
	}
	// JSON spelling does not matter: key order and whitespace decode to the
	// same fields.
	var a, b Request
	for body, into := range map[string]*Request{
		`{"app":"xsbench","config":"uu","factor":2}`:                      &a,
		"{ \"factor\" : 2,\n\t\"config\":\"uu\", \"app\":\"xsbench\" }\n": &b,
	} {
		if err := decodeRequest(strings.NewReader(body), into); err != nil {
			t.Fatal(err)
		}
	}
	if requestIdentity(&a) != requestIdentity(&b) {
		t.Error("JSON key order or whitespace changed the identity")
	}
}

// renamedKernel is testKernel with every local renamed: a different source
// text, and so a different identity, that compiles to the same canonical IR.
var renamedKernel = strings.NewReplacer("acc", "sum", "gid", "tid", "long i ", "long j ", "i < iters; i++", "j < iters; j++").Replace(testKernel)

// record sends body straight through the handler, without a socket, at the
// least cost the harness can manage (httptest.NewRequest would parse a
// request line through a 4 kB bufio.Reader), so the allocation budget and
// benchmark below measure the server's side.
func record(h http.Handler, body []byte) *httptest.ResponseRecorder {
	return recordAt(h, "/compile", body)
}

// recordAt is record to a target with a query string.
func recordAt(h http.Handler, target string, body []byte) *httptest.ResponseRecorder {
	req, err := http.NewRequest("POST", target, bytes.NewReader(body))
	if err != nil {
		panic(err) // the method and URL are constants
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// handlerPost is record for a Request, with the 200 body decoded.
func handlerPost(t testing.TB, h http.Handler, req *Request) (int, *Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return handlerPostBody(t, h, body)
}

func handlerPostBody(t testing.TB, h http.Handler, body []byte) (int, *Response) {
	t.Helper()
	rec := record(h, body)
	if rec.Code != 200 {
		return rec.Code, nil
	}
	var res Response
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Errorf("undecodable 200 body %q: %v", rec.Body, err)
	}
	return rec.Code, &res
}

// checkIndex asserts the alias index's invariants: every alias points at a
// live entry that lists it, no entry lists more than maxAliases, and so the
// index holds at most maxAliases × live entries.
func checkIndex(t testing.TB, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cache
	if c.ll.Len() > c.max || len(c.items) != c.ll.Len() {
		t.Errorf("cache holds %d entries under %d keys, bound %d", c.ll.Len(), len(c.items), c.max)
	}
	listed := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry)
		if c.items[e.key] != el {
			t.Errorf("entry %.12s is not the one its key maps to", e.key)
		}
		if len(e.aliases) > maxAliases {
			t.Errorf("entry %.12s has %d aliases, cap %d", e.key, len(e.aliases), maxAliases)
		}
		for _, id := range e.aliases {
			if c.idents[id] != el {
				t.Errorf("entry %.12s lists an alias the index maps elsewhere", e.key)
			}
		}
		listed += len(e.aliases)
	}
	if listed != len(c.idents) {
		t.Errorf("index holds %d aliases, live entries list %d: an alias outlived its entry", len(c.idents), listed)
	}
	if len(c.idents) > maxAliases*c.ll.Len() {
		t.Errorf("index holds %d aliases for %d entries", len(c.idents), c.ll.Len())
	}
}

// aliasedKey returns the cache key req's identity is aliased to, if any.
func aliasedKey(s *Server, req *Request) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.cache.idents[requestIdentity(req)]
	if !ok {
		return "", false
	}
	return el.Value.(*lruEntry).key, true
}

// sameResult reports whether two responses carry the same result: request
// ID, phases, trace and the cache flags belong to the request, and
// compile_ms is the wall clock of whichever execution filled the entry.
func sameResult(a, b *Response) bool {
	x, y := *a, *b
	for _, r := range []*Response{&x, &y} {
		r.RequestID, r.Phases, r.TraceJSON, r.Cached, r.Coalesced, r.CompileMs = "", nil, "", false, false, 0
		r.execTM = phaseTimings{}
	}
	return reflect.DeepEqual(x, y)
}

// aliasTestServer is a two-entry server that counts pool executions.
func aliasTestServer(t *testing.T) (*Server, http.Handler, *atomic.Int64) {
	t.Helper()
	compiles := new(atomic.Int64)
	s := New(Options{Workers: 2, CacheEntries: 2, OnCompile: func(string) { compiles.Add(1) }})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, s.Handler(), compiles
}

func withFactor(factor int) *Request {
	r := testRequest(10)
	r.Factor = factor
	return r
}

// TestAliasLifecycle pins the index's three invariants end to end: an alias
// only ever points at a live entry, errors are never aliased, and the index
// stays within maxAliases × CacheEntries.
func TestAliasLifecycle(t *testing.T) {
	t.Run("eviction-drops-aliases", func(t *testing.T) {
		s, h, compiles := aliasTestServer(t)
		for i, factor := range []int{2, 4, 2, 8} { // 8 evicts 4: 2 was just used
			status, res := handlerPost(t, h, withFactor(factor))
			if status != 200 || res.Cached != (i == 2) {
				t.Fatalf("factor %d: status %d, %+v", factor, status, res)
			}
			checkIndex(t, s)
		}
		if got := s.c[ctrIdentHits].Load(); got != 1 {
			t.Fatalf("identity hits = %d, want 1 (the repeat of factor 2)", got)
		}
		if key, ok := aliasedKey(s, withFactor(4)); ok {
			t.Fatalf("evicted request is still aliased, to %.12s", key)
		}
		status, res := handlerPost(t, h, withFactor(4))
		if status != 200 || res.Cached {
			t.Fatalf("repeat of the evicted request: status %d, %+v, want a fresh compile", status, res)
		}
		checkIndex(t, s)
		if got := compiles.Load(); got != 4 {
			t.Fatalf("compiles = %d, want 4 (three keys, one of them twice)", got)
		}
		if got := s.c[ctrIdentHits].Load(); got != 1 {
			t.Fatalf("identity hits = %d after the evicted repeat, want 1", got)
		}
	})

	t.Run("errors-are-never-aliased", func(t *testing.T) {
		s, h, compiles := aliasTestServer(t)
		panics := testRequest(10)
		panics.Chaos = "panic"
		faults := testRequest(10)
		faults.MemBytes = 256 // y lies beyond it: the store traps
		slow := testRequest(200_000_000)
		slow.DeadlineMs = 1
		invalid := testRequest(10)
		invalid.Args = nil
		for _, tc := range []struct {
			req      *Request
			status   int
			executes bool
		}{{panics, 500, true}, {faults, 422, true}, {slow, 504, false}, {invalid, 400, false}} {
			for round := 0; round < 2; round++ {
				before := compiles.Load()
				if status, _ := handlerPost(t, h, tc.req); status != tc.status {
					t.Fatalf("round %d: status %d, want %d", round, status, tc.status)
				}
				// A 1 ms deadline may expire before or after the pool
				// picks the job up; the others always reach it, every time.
				if tc.executes && compiles.Load() != before+1 {
					t.Errorf("status %d, round %d: request did not execute again", tc.status, round)
				}
				if _, ok := aliasedKey(s, tc.req); ok {
					t.Errorf("status %d: a failed request left an alias", tc.status)
				}
				checkIndex(t, s)
			}
		}
		if got := s.c[ctrDeadline].Load(); got != 2 {
			t.Errorf("deadline expiries = %d, want 2: the repeat was not re-executed", got)
		}
		if hits := s.c[ctrCacheHits].Load() + s.c[ctrIdentHits].Load(); hits != 0 {
			t.Errorf("%d hits among failing requests", hits)
		}
		s.mu.Lock()
		entries, aliases := s.cache.len(), len(s.cache.idents)
		s.mu.Unlock()
		if entries != 0 || aliases != 0 {
			t.Errorf("failures left %d entries and %d aliases", entries, aliases)
		}
	})

	t.Run("two-spellings-one-entry", func(t *testing.T) {
		s, h, compiles := aliasTestServer(t)
		a, b := testRequest(10), testRequest(10)
		b.Source = renamedKernel
		if requestIdentity(a) == requestIdentity(b) {
			t.Fatal("the renamed kernel has the original's identity")
		}
		wantIdentHits := []int64{0, 0, 1, 2, 3, 4} // a compiles, b finds a's key, then every repeat
		var first *Response
		for i, req := range []*Request{a, b, a, b, a, b} {
			status, res := handlerPost(t, h, req)
			if status != 200 || res.Cached != (i > 0) {
				t.Fatalf("submission %d: status %d, %+v", i, status, res)
			}
			if first == nil {
				first = res
			}
			if res.Key != first.Key || !sameResult(res, first) {
				t.Fatalf("submission %d differs from the first: %+v vs %+v", i, res, first)
			}
			if got := s.c[ctrIdentHits].Load(); got != wantIdentHits[i] {
				t.Fatalf("after submission %d: identity hits = %d, want %d", i, got, wantIdentHits[i])
			}
			checkIndex(t, s)
		}
		if compiles.Load() != 1 || s.c[ctrCacheHits].Load() != 5 {
			t.Fatalf("compiles = %d, cache hits = %d, want 1 and 5", compiles.Load(), s.c[ctrCacheHits].Load())
		}
		s.mu.Lock()
		entries, aliases := s.cache.len(), len(s.cache.idents)
		s.mu.Unlock()
		if entries != 1 || aliases != 2 {
			t.Fatalf("%d entries with %d aliases, want one entry with two", entries, aliases)
		}
	})

	t.Run("spelling-flood-is-bounded", func(t *testing.T) {
		s, h, compiles := aliasTestServer(t)
		other := withFactor(4)
		if status, _ := handlerPost(t, h, other); status != 200 {
			t.Fatalf("status %d", status)
		}
		for i := 0; i < 1000; i++ {
			req := testRequest(10)
			req.Source += strings.Repeat(" ", i)
			status, res := handlerPost(t, h, req)
			if status != 200 || res.Cached != (i > 0) {
				t.Fatalf("variant %d: status %d, %+v", i, status, res)
			}
		}
		checkIndex(t, s)
		s.mu.Lock()
		entries, aliases := s.cache.len(), len(s.cache.idents)
		s.mu.Unlock()
		if entries != 2 || aliases != maxAliases+1 {
			t.Fatalf("%d entries, %d aliases, want 2 and %d", entries, aliases, maxAliases+1)
		}
		// The newest spellings are the ones kept, and the other entry still
		// answers by identity.
		last := testRequest(10)
		last.Source += strings.Repeat(" ", 999)
		before := s.c[ctrIdentHits].Load()
		for _, req := range []*Request{last, other} {
			if status, res := handlerPost(t, h, req); status != 200 || !res.Cached {
				t.Fatalf("status %d, %+v", status, res)
			}
		}
		if got := s.c[ctrIdentHits].Load() - before; got != 2 {
			t.Fatalf("identity hits after the flood = %d, want 2", got)
		}
		if compiles.Load() != 2 {
			t.Fatalf("compiles = %d, want 2", compiles.Load())
		}
	})

	// The determinism the shortcut rests on: whenever the full path runs for
	// an identity that is aliased, it resolves to the aliased fingerprint.
	t.Run("full-path-agrees-with-alias", func(t *testing.T) {
		s, h, _ := aliasTestServer(t)
		for name, req := range hitForms(t) {
			status, res := handlerPost(t, h, req)
			if status != 200 {
				t.Fatalf("%s: status %d", name, status)
			}
			sp, rerr := buildSpec(req)
			if rerr != nil {
				t.Fatalf("%s: %v", name, rerr)
			}
			key, ok := aliasedKey(s, req)
			if !ok || key != sp.key || key != res.Key {
				t.Fatalf("%s: aliased to %.12s (%t), full path resolves to %.12s, served under %.12s", name, key, ok, sp.key, res.Key)
			}
		}
	})

	t.Run("concurrent-hits-misses-evictions", func(t *testing.T) {
		s, h, _ := aliasTestServer(t)
		// Four keys over a two-entry cache, one of them in two spellings,
		// plus a request that always fails.
		renamed := testRequest(10)
		renamed.Source = renamedKernel
		poisoned := testRequest(10)
		poisoned.Chaos = "panic"
		reqs := []*Request{withFactor(2), renamed, withFactor(4), withFactor(8), withFactor(16), poisoned}
		bodies := make([][]byte, len(reqs))
		keys := make([]string, len(reqs))
		for i, r := range reqs {
			bodies[i], _ = json.Marshal(r)
			sp, rerr := buildSpec(r)
			if rerr != nil {
				t.Fatal(rerr)
			}
			keys[i] = sp.key
		}
		var mu sync.Mutex
		first := map[string]*Response{}

		// The load runs until it has mixed hits with evictions — more than
		// two compiles per request and at least one identity hit — however
		// long that takes on the machine, up to a cap.
		enough := func() bool {
			return s.c[ctrCompiles].Load() > int64(2*len(reqs)) && s.c[ctrIdentHits].Load() > 0
		}
		deadline := time.Now().Add(60 * time.Second)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := g; !enough() && time.Now().Before(deadline); n += 7 {
					i := n % len(reqs)
					status, res := handlerPostBody(t, h, bodies[i])
					switch {
					case reqs[i].Chaos != "":
						if status != 500 {
							t.Errorf("poisoned request: status %d", status)
						}
					case status == 429: // eight clients can outrun a four-slot queue
					case status != 200:
						t.Errorf("request %d: status %d", i, status)
					default:
						mu.Lock()
						want, seen := first[res.Key]
						if !seen {
							first[res.Key] = res
						}
						mu.Unlock()
						if res.Key != keys[i] {
							t.Errorf("request %d served under %.12s, its fingerprint is %.12s", i, res.Key, keys[i])
						} else if seen && !sameResult(res, want) {
							t.Errorf("request %d: %+v differs from the key's first response %+v", i, res, want)
						}
					}
					if n%16 == 0 {
						checkIndex(t, s)
					}
				}
			}(g)
		}
		wg.Wait()
		checkIndex(t, s)
		for i, r := range reqs {
			if key, ok := aliasedKey(s, r); ok && key != keys[i] {
				t.Errorf("request %d is aliased to %.12s, its fingerprint is %.12s", i, key, keys[i])
			}
		}
		if _, ok := aliasedKey(s, poisoned); ok {
			t.Error("the failing request left an alias")
		}
		if !enough() {
			t.Errorf("after 60 s, identity hits %d and compiles %d: the load did not mix hits with evictions (want hits > 0 and compiles > %d)",
				s.c[ctrIdentHits].Load(), s.c[ctrCompiles].Load(), 2*len(reqs))
		}
	})
}

// hitForms is one cacheable request of each kernel form.
func hitForms(t testing.TB) map[string]*Request {
	t.Helper()
	f, err := lang.CompileKernel(testKernel)
	if err != nil {
		t.Fatal(err)
	}
	ir := testRequest(10)
	ir.Source, ir.IR = "", f.String()
	return map[string]*Request{
		"app":    {App: "xsbench", Config: "uu-heuristic"},
		"source": testRequest(10),
		"ir":     ir,
	}
}

// BenchmarkServeHit is what a repeat submission costs server-side, socket
// excluded: decode, identity hash, lookup, response encoding.
func BenchmarkServeHit(b *testing.B) {
	s := New(Options{Workers: 1})
	defer s.Drain(context.Background())
	h := s.Handler()
	for _, form := range []string{"app", "source", "ir"} {
		body, _ := json.Marshal(hitForms(b)[form])
		if status, _ := handlerPostBody(b, h, body); status != 200 {
			b.Fatalf("%s: warm-up status %d", form, status)
		}
		b.Run(form, func(b *testing.B) {
			b.ReportAllocs()
			before := s.c[ctrIdentHits].Load()
			for i := 0; i < b.N; i++ {
				if status := record(h, body).Code; status != 200 {
					b.Fatalf("status %d", status)
				}
			}
			if got := s.c[ctrIdentHits].Load() - before; got != int64(b.N) {
				b.Fatalf("%d of %d repeats were identity hits", got, b.N)
			}
		})
	}
}

// BenchmarkServeMiss is the server-side cost of resolving an app request
// that is not an identity hit — a first spelling, a follower, a request
// about to be shed — to its key, socket and execution excluded: buildSpec.
func BenchmarkServeMiss(b *testing.B) {
	req := hitForms(b)["app"]
	if _, rerr := buildSpec(req); rerr != nil {
		b.Fatal(rerr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, rerr := buildSpec(req); rerr != nil {
			b.Fatal(rerr)
		}
	}
}

// TestRemovedSimWorkersFieldIsIgnored pins a closed hole. Request.SimWorkers
// was clamped below at 1 and nowhere above, and the parallel warp schedule
// it selected gave every worker a private copy of device memory, so
// "sim_workers": 64 over 64 warps and mem_bytes 8 MiB allocated 62x what the
// same request allocated without it. The schedule and the field are gone:
// an old client's sim_workers is an unknown field to the decoder, and the
// request resolves to the same key, simulates to the same metrics and
// allocates what it would have without it.
func TestRemovedSimWorkersFieldIsIgnored(t *testing.T) {
	req := testRequest(10)
	req.Grid, req.MemBytes = 64, 8<<20
	req.Args = []int64{0, 64 * 32 * 8, 64 * 32, 10}
	plain, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(plain, []byte("{"), []byte(`{"sim_workers":64,`), 1)

	// A fresh server a side, so both are cache misses that simulate.
	miss := func(body []byte) (*Response, uint64) {
		t.Helper()
		_, h, _ := aliasTestServer(t)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		status, res := handlerPostBody(t, h, body)
		runtime.ReadMemStats(&m1)
		if status != 200 || res.Cached {
			t.Fatalf("status %d, response %+v; want an uncached 200", status, res)
		}
		res.RequestID, res.Phases, res.CompileMs = "", nil, 0
		return res, m1.TotalAlloc - m0.TotalAlloc
	}
	miss(plain) // fills the run-state free list and every lazy table, so the two below start alike
	want, base := miss(plain)
	got, withField := miss(old)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sim_workers changed the response:\n got %+v\nwant %+v", got, want)
	}
	t.Logf("allocated %d bytes without the field, %d with it", base, withField)
	if withField > 2*base {
		t.Errorf("sim_workers: 64 allocated %d bytes against %d without it", withField, base)
	}
}

// TestHitAllocBudget keeps the compile frontend and the response encoder off
// the hit path. Rebuilding IR to rediscover a cached key cost about 220 kB a
// hit, and marshaling a copy of the entry per hit put 4.8 / 5.5 / 13.5 kB on
// the app / source / ir forms. Now a hit decodes into a recycled state,
// hashes in a recycled buffer and splices the execution's encoded bytes, so
// what is left is the harness's recorder, the header map and the decoded
// strings (the ir form's text is most of its budget).
func TestHitAllocBudget(t *testing.T) {
	const hits = 500
	budget := map[string]uint64{"app": 3 << 10, "source": 4 << 10, "ir": 6656}
	if raceEnabled {
		// Still far too tight for a parser to come back.
		budget = map[string]uint64{"app": 16 << 10, "source": 16 << 10, "ir": 16 << 10}
	}
	s, h, _ := aliasTestServer(t)
	for form, req := range hitForms(t) {
		body, _ := json.Marshal(req)
		if status, _ := handlerPostBody(t, h, body); status != 200 {
			t.Fatalf("%s: warm-up status %d", form, status)
		}
		before := s.c[ctrIdentHits].Load()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < hits; i++ {
			if status := record(h, body).Code; status != 200 {
				t.Fatalf("%s: status %d", form, status)
			}
		}
		runtime.ReadMemStats(&m1)
		if got := s.c[ctrIdentHits].Load() - before; got != hits {
			t.Fatalf("%s: %d of %d repeats were identity hits", form, got, hits)
		}
		perHit := (m1.TotalAlloc - m0.TotalAlloc) / hits
		t.Logf("%s: %d bytes allocated per hit", form, perHit)
		if perHit > budget[form] {
			t.Errorf("%s: %d bytes allocated per hit, budget %d", form, perHit, budget[form])
		}
	}
}
