package main

import (
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"uu/internal/bench"
	"uu/internal/lang"
	"uu/internal/pipeline"
	"uu/internal/serve"
)

//go:embed testdata/*.cu
var kernelFS embed.FS

// Launch of the testdata kernels, which all take (x, y, n, iters): 256
// threads over a zeroed 4 KiB memory, x at 0 and y behind it.
const (
	smallGrid, smallBlock = 4, 64
	smallMemBytes         = 4096
)

var smallArgs = []int64{0, 2048, 256, 24}

// serveKey is one distinct request of the serve workloads.
type serveKey struct {
	name string // group/kernel/variant, unique
	form string // which of app, source, ir selects the kernel
	body []byte // the POST /compile body
	// app and config are set on the V100 baseline and uu-heuristic keys of
	// the 16 apps, which the deterministic metrics are read from.
	app    string
	config pipeline.Config
}

func (k serveKey) String() string { return k.name }

// serveKeys builds the 192 requests:
//
//	A  16 apps x {baseline, uu-heuristic, uu-heuristic selective}
//	B  16 apps x loop 0 x {unmerge, unroll u2/u4, uu u2/u4}
//	C  16 apps x uu-heuristic with contain, all remarks and the profile
//	D  16 apps x baseline on MinSPPC and on Vortex
//	E  8 checked-in kernels, as source with uu-heuristic and as IR with baseline
//
// 192 fits serve's default 256-entry LRU, so serve-hot never evicts.
func serveKeys() ([]serveKey, error) {
	var keys []serveKey
	add := func(name, form string, req serve.Request) *serveKey {
		body, err := json.Marshal(&req)
		if err != nil {
			panic(err) // a Request of strings and numbers always marshals
		}
		keys = append(keys, serveKey{name: name, form: form, body: body})
		return &keys[len(keys)-1]
	}
	uuh := string(pipeline.UUHeuristic)
	for _, b := range bench.Suite {
		app := b.Name
		k := add("A/"+app+"/baseline", "app", serve.Request{App: app})
		k.app, k.config = app, pipeline.Baseline
		k = add("A/"+app+"/uu-heuristic", "app", serve.Request{App: app, Config: uuh})
		k.app, k.config = app, pipeline.UUHeuristic
		add("A/"+app+"/selective", "app", serve.Request{App: app, Config: uuh, Heuristic: &serve.HeuristicSpec{Selective: true}})

		add("B/"+app+"/unmerge", "app", serve.Request{App: app, Config: string(pipeline.UnmergeOnly)})
		for _, u := range []int{2, 4} {
			add(fmt.Sprintf("B/%s/unroll.u%d", app, u), "app", serve.Request{App: app, Config: string(pipeline.UnrollOnly), Factor: u})
			add(fmt.Sprintf("B/%s/uu.u%d", app, u), "app", serve.Request{App: app, Config: string(pipeline.UU), Factor: u})
		}

		add("C/"+app+"/artifacts", "app", serve.Request{App: app, Config: uuh, Contain: true, Remarks: "all", Profile: true})

		add("D/"+app+"/minsppc", "app", serve.Request{App: app, Device: "MinSPPC"})
		add("D/"+app+"/vortex", "app", serve.Request{App: app, Device: "Vortex"})
	}
	files, err := kernelFS.ReadDir("testdata")
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		src, err := kernelFS.ReadFile("testdata/" + f.Name())
		if err != nil {
			return nil, err
		}
		fn, err := lang.CompileKernel(string(src))
		if err != nil {
			return nil, fmt.Errorf("testdata/%s: %w", f.Name(), err)
		}
		small := serve.Request{Grid: smallGrid, Block: smallBlock, MemBytes: smallMemBytes, Args: smallArgs}
		name := strings.TrimSuffix(f.Name(), ".cu")
		small.Source, small.Config = string(src), uuh
		add("E/"+name+"/source", "source", small)
		small.Source, small.Config, small.IR = "", "", fn.String()
		add("E/"+name+"/ir", "ir", small)
	}
	return keys, nil
}

// liveServer is an in-process uud: serve.Server behind a real loopback
// net/http listener, counting pool executions per key.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	url    string

	mu       sync.Mutex
	compiles map[string]int // cache key -> pool executions
}

// startServer starts a server with a pool worker per processor.
func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{compiles: map[string]int{}, url: "http://" + ln.Addr().String() + "/compile"}
	s.srv = serve.New(serve.Options{Workers: runtime.GOMAXPROCS(0), OnCompile: func(key string) {
		s.mu.Lock()
		s.compiles[key]++
		s.mu.Unlock()
	}})
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) // returns ErrServerClosed once stop closes the listener
	}()
	return s, nil
}

// stop closes the listener and the connections and waits for the pool.
func (s *liveServer) stop() {
	s.hs.Close()
	<-s.served
	s.srv.Drain(context.Background())
}

// compileCount returns the executions seen so far, in total and for key.
func (s *liveServer) compileCount(key string) (total, forKey int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.compiles {
		total += n
	}
	return total, s.compiles[key]
}

// reply is one response as a client saw it.
type reply struct {
	status  int
	resp    serve.Response
	bytes   int
	start   time.Time
	latency time.Duration // request sent to body read, before decoding
	err     error
}

// client is one closed-loop caller with its own connection.
type client struct {
	hc  http.Client
	url string
}

func newClient(url string) *client {
	return &client{hc: http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, url: url}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) post(body []byte) reply {
	r := reply{start: time.Now()}
	res, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	r.latency = time.Since(r.start)
	r.status, r.bytes = res.StatusCode, len(data)
	if err != nil {
		r.err = err
		return r
	}
	if r.status == http.StatusOK {
		r.err = json.Unmarshal(data, &r.resp)
	}
	return r
}

// sameResult reports whether two responses carry the same result. Request
// id, phases, trace and the cache flags belong to the request, not to the
// result; compile_ms is a wall clock, so it repeats only when the very same
// execution is replayed from the cache.
func sameResult(a, b *serve.Response, sameExecution bool) bool {
	x, y := *a, *b
	for _, r := range []*serve.Response{&x, &y} {
		r.RequestID, r.Phases, r.TraceJSON, r.Cached, r.Coalesced = "", nil, "", false, false
		if !sameExecution {
			r.CompileMs = 0
		}
	}
	return reflect.DeepEqual(x, y)
}

// role is what a reply must have been to its server.
type role int

const (
	leader   role = iota // led the compilation: neither cached nor coalesced
	follower             // sent alongside the leader: coalesced, or cached if it came late
	hit                  // the key was cached before the request was sent
)

// checkReply is the check every serve op passes through: the request was
// served, under the key and with the result its warm-up response had, and
// from where its role says.
func checkReply(r *reply, want *serve.Response, as role) error {
	got := &r.resp
	switch {
	case r.err != nil:
		return r.err
	case r.status != http.StatusOK:
		return fmt.Errorf("status %d", r.status)
	case got.Key != want.Key:
		return fmt.Errorf("served under key %.12s, want %.12s", got.Key, want.Key)
	case !sameResult(got, want, as == hit):
		return fmt.Errorf("result differs from the warm-up response")
	case as == leader && (got.Cached || got.Coalesced),
		as == follower && !(got.Cached || got.Coalesced),
		as == hit && !got.Cached:
		return fmt.Errorf("cached=%t coalesced=%t does not fit its role", got.Cached, got.Coalesced)
	}
	return nil
}

// checkCompiles returns how far the pool executions are from one per key.
func checkCompiles(s *liveServer, want []*serve.Response) int {
	wrong := 0
	for _, w := range want {
		if _, n := s.compileCount(w.Key); n != 1 {
			wrong++
		}
	}
	if total, _ := s.compileCount(""); total != len(want) && wrong == 0 {
		wrong = 1 // executions under keys no request has
	}
	return wrong
}

// serveRun is the state the two serve workloads share.
type serveRun struct {
	o    *outcome
	keys []serveKey
	// want is the warm-up response of each key, which every later response
	// for the key is compared with.
	want []*serve.Response
	log  *spanLog // nil when untraced

	mu sync.Mutex // guards everything below and o, once clients run concurrently
	// Counts behind the per-layer rows.
	followerMs, respBytes      []float64
	formMs                     map[string][]float64 // request form -> hit latencies
	hits, coalesced, followers int
	shed, compiles, replies    int
}

// twin returns a run over the same keys and warm-up responses with counts of
// its own, so a traced run can keep its untraced section out of its rows.
func (s *serveRun) twin(log *spanLog) *serveRun {
	return &serveRun{o: &outcome{}, keys: s.keys, want: s.want, log: log, formMs: map[string][]float64{}}
}

// fail counts a failed op and says why.
func (s *serveRun) fail(k serveKey, err error) {
	fmt.Fprintf(os.Stderr, "uuperf: serve op %s: %v\n", k.name, err)
	s.o.failed++
}

// note records one reply's counts and, in a traced run, its spans: the
// client's clock as the root, the server's phases block as its children.
// The execution phases are taken from the leader only, because hits and
// followers repeat the phases of the execution that produced their result.
func (s *serveRun) note(op int, k serveKey, r *reply, as role) {
	s.replies++
	s.respBytes = append(s.respBytes, float64(r.bytes))
	if r.status == http.StatusTooManyRequests {
		s.shed++
	}
	if r.resp.Cached {
		s.hits++
	}
	if r.resp.Coalesced {
		s.coalesced++
	}
	if s.log == nil || r.resp.Phases == nil {
		return
	}
	ph := r.resp.Phases
	root := s.log.add(op, -1, "uuperf.request", k.name, r.start, r.latency)
	child := func(name string, millis float64) {
		s.log.add(op, root, name, k.name, r.start, time.Duration(millis*float64(time.Millisecond)))
	}
	if r.resp.Coalesced {
		child("serve.follower", ms(r.latency))
		return
	}
	child("serve.frontend", ph.FrontendMs)
	child("serve.resolve", ph.ResolveMs)
	served := ph.FrontendMs + ph.ResolveMs
	if as == leader {
		child("serve.admission", ph.AdmissionMs)
		child("serve.compile", ph.CompileMs)
		child("serve.simulate", ph.SimulateMs)
		served += ph.AdmissionMs + ph.CompileMs + ph.SimulateMs
	}
	child("serve.overhead", ms(r.latency)-served)
}

// lockStep walks the keys in the given order on srv, which must not have
// seen them, with two clients that send every body at the same moment, and
// checks that each key compiles exactly once. Whichever request the server
// takes first leads the compilation; the other coalesces onto it or, if it
// arrives after the leader finished, hits the cache. With s.want nil this is
// the warm-up pass that learns the responses.
func (s *serveRun) lockStep(srv *liveServer, order []int, timed bool) error {
	clients := [2]*client{newClient(srv.url), newClient(srv.url)}
	defer clients[0].close()
	defer clients[1].close()
	learn := s.want == nil
	if learn {
		s.want = make([]*serve.Response, len(s.keys))
	}
	start := snapshot()
	for _, ki := range order {
		k := s.keys[ki]
		var rs [2]reply
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs[1] = clients[1].post(k.body)
		}()
		rs[0] = clients[0].post(k.body)
		wg.Wait()

		lead, follow := &rs[0], &rs[1]
		if lead.resp.Cached || lead.resp.Coalesced {
			lead, follow = follow, lead
		}
		if learn {
			if lead.err != nil || lead.status != http.StatusOK {
				return fmt.Errorf("serve: warm-up of %s: status %d, %v", k.name, lead.status, lead.err)
			}
			s.want[ki] = &lead.resp
		}
		if !timed {
			continue
		}
		op := s.o.attempted
		s.o.attempted++
		s.note(op, k, lead, leader)
		s.note(op, k, follow, follower)
		s.followers++
		err := checkReply(lead, s.want[ki], leader)
		if err == nil {
			err = checkReply(follow, s.want[ki], follower)
		}
		if err != nil {
			s.fail(k, err)
			continue
		}
		s.o.sample(ms(lead.latency))
		s.followerMs = append(s.followerMs, ms(follow.latency))
	}
	if learn {
		seen := map[string]string{}
		for i, w := range s.want {
			if other, dup := seen[w.Key]; dup {
				return fmt.Errorf("serve: keys %s and %s share cache key %.12s", other, s.keys[i].name, w.Key)
			}
			seen[w.Key] = s.keys[i].name
		}
	}
	if timed {
		s.o.addSection(between(start, snapshot()))
		total, _ := srv.compileCount("")
		s.compiles += total
	}
	if wrong := checkCompiles(srv, s.want); wrong > 0 {
		if !timed {
			return fmt.Errorf("serve: warm-up compiled %d keys other than once", wrong)
		}
		fmt.Fprintf(os.Stderr, "uuperf: serve: %d keys compiled other than once\n", wrong)
		s.o.failed += wrong
		s.o.attempted += wrong
	}
	return nil
}

// coldPass is lockStep on a server of its own.
func (s *serveRun) coldPass(order []int, timed bool) error {
	srv, err := startServer()
	if err != nil {
		return err
	}
	defer srv.stop()
	return s.lockStep(srv, order, timed)
}

// closedLoops splits seq, a list of key indices, between independent clients
// (the workload runs one per processor) that each send their next request
// when the previous one is answered. Every key is cached, so every reply
// must be a hit and nothing may compile.
func (s *serveRun) closedLoops(srv *liveServer, seq []int, clients int) {
	before, _ := srv.compileCount("")
	var wg sync.WaitGroup
	start := snapshot()
	for c := 0; c < clients; c++ {
		part := seq[len(seq)*c/clients : len(seq)*(c+1)/clients]
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(srv.url)
			defer cl.close()
			for _, ki := range part {
				k := s.keys[ki]
				r := cl.post(k.body)
				s.mu.Lock()
				op := s.o.attempted
				s.o.attempted++
				s.note(op, k, &r, hit)
				if err := checkReply(&r, s.want[ki], hit); err != nil {
					s.fail(k, err)
				} else {
					s.o.sample(ms(r.latency))
					s.formMs[k.form] = append(s.formMs[k.form], ms(r.latency))
				}
				s.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.o.addSection(between(start, snapshot()))
	after, _ := srv.compileCount("")
	s.compiles = after
	if after != before {
		fmt.Fprintf(os.Stderr, "uuperf: serve: %d compilations while every key was cached\n", after-before)
		s.o.failed += after - before
		s.o.attempted += after - before
	}
}

// geomeans reads the deterministic metrics out of the response bodies.
func (s *serveRun) geomeans() {
	at := map[string]int{}
	for i, b := range bench.Suite {
		at[b.Name] = i
	}
	pairs := make([]appPair, len(bench.Suite))
	for i, k := range s.keys {
		pair, w := &pairs[at[k.app]], s.want[i]
		switch k.config {
		case pipeline.Baseline:
			pair.baseMs, pair.baseBytes = w.KernelMs, w.CodeBytes
		case pipeline.UUHeuristic:
			pair.uuMs, pair.uuBytes = w.KernelMs, w.CodeBytes
		}
	}
	s.o.speedup, s.o.growth = suiteGeomeans(pairs)
}

// layers fills the serve rows of a traced run; untraced is the twin's run of
// the same ops, and inFlight how many requests the clients keep in flight.
func (s *serveRun) layers(untraced *serveRun, inFlight int) error {
	l := map[string]float64{}
	s.o.layers, s.o.spans = l, s.log
	p50 := func(name string) float64 { return percentileOrZero(s.log.durations(name, ""), 0.50) }
	l["serve.frontend_ms_p50"] = p50("serve.frontend")
	l["serve.resolve_ms_p50"] = p50("serve.resolve")
	l["serve.admission_ms_p50"] = p50("serve.admission")
	l["serve.overhead_ms_p50"] = p50("serve.overhead")
	l["serve.compile_ms_sum"] = sum(s.log.durations("serve.compile", ""))
	l["serve.simulate_ms_sum"] = sum(s.log.durations("serve.simulate", ""))
	l["serve.resp_kb_mean"] = sum(s.respBytes) / float64(len(s.respBytes)) / 1e3
	l["serve.follower_ms_p50"] = percentileOrZero(s.followerMs, 0.50)
	if s.followers > 0 {
		l["serve.coalesced_share"] = float64(s.coalesced) / float64(s.followers)
	}
	l["serve.compiles"] = float64(s.compiles)
	l["serve.hit_share"] = float64(s.hits) / float64(s.replies)
	l["serve.shed_count"] = float64(s.shed)
	runtimeLayers(l, s.o.section)
	l["uuperf.trace_overhead_ratio"] = overheadRatio(s.o, untraced.o)
	l["uuperf.span_coverage"] = s.log.childSeconds() / (float64(inFlight) * s.o.wallS)
	s.o.attempted += untraced.o.attempted
	s.o.failed += untraced.o.failed
	return timingLayers(l, untraced.o)
}

// coldPasses is how many times serve-cold walks its 192 keys, on a fresh
// server each time; a pass takes about 7 s on the reference box, so three
// make the 20 s the issue asks of a timed section where its own two would
// make 14 s. A traced run makes tracedColdPasses of each kind, untraced and
// traced alternately.
const (
	coldPasses       = 3
	tracedColdPasses = 2
)

// runServeCold measures what a uud caller waits for on a miss.
func runServeCold(cfg runConfig) (*outcome, error) {
	keys, err := serveKeys()
	if err != nil {
		return nil, err
	}
	s := &serveRun{o: &outcome{}, keys: keys, log: cfg.spans()}
	rng := rand.New(rand.NewSource(cfg.seed))
	// Warm-up on a throwaway server: learns the responses, and brings the
	// process (heap, page cache, connections) to the state every timed pass
	// starts from.
	if err := s.coldPass(rng.Perm(len(keys)), false); err != nil {
		return nil, err
	}
	if !cfg.traced {
		for p := 0; p < cfg.scaled(coldPasses, 2); p++ {
			if err := s.coldPass(rng.Perm(len(keys)), true); err != nil {
				return nil, err
			}
		}
	} else {
		untraced := s.twin(nil)
		for p := 0; p < tracedColdPasses; p++ {
			for _, r := range []*serveRun{untraced, s} {
				if err := r.coldPass(rng.Perm(len(keys)), true); err != nil {
					return nil, err
				}
			}
		}
		if err := s.layers(untraced, 2); err != nil {
			return nil, err
		}
		// Group C is group A's uu-heuristic compile under the containment
		// guard, collecting remarks.
		under := func(group, variant string) float64 {
			return sum(s.log.durationsWhere("serve.compile", func(tag string) bool {
				return strings.HasPrefix(tag, group) && strings.HasSuffix(tag, variant)
			}))
		}
		s.o.layers["harden.contain_ratio"] = under("C/", "/artifacts") / under("A/", "/uu-heuristic")
	}
	s.geomeans()
	return s.o, nil
}

// hotRequests is how many requests serve-hot sends; the reference box serves
// about 2000 hits a second to two clients. A traced run sends half as many
// of each kind, untraced and traced, in tracedHotChunks stretches that take
// turns.
const (
	hotRequests     = 40000
	tracedHotChunks = 8
)

// runServeHot measures the cached path: the keys are compiled during set-up
// and every timed request must be a hit.
func runServeHot(cfg runConfig) (*outcome, error) {
	keys, err := serveKeys()
	if err != nil {
		return nil, err
	}
	s := &serveRun{o: &outcome{}, keys: keys, log: cfg.spans(), formMs: map[string][]float64{}}
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	if err := s.lockStep(srv, rand.New(rand.NewSource(cfg.seed)).Perm(len(keys)), false); err != nil {
		return nil, err
	}
	n, clients := cfg.scaled(hotRequests, 4000), runtime.GOMAXPROCS(0)
	if !cfg.traced {
		s.closedLoops(srv, hotSequence(len(keys), n, cfg.seed), clients)
	} else {
		seq := hotSequence(len(keys), n/2, cfg.seed)
		untraced := s.twin(nil)
		for c := 0; c < tracedHotChunks; c++ {
			part := seq[len(seq)*c/tracedHotChunks : len(seq)*(c+1)/tracedHotChunks]
			// The kinds swap places from stretch to stretch, so neither
			// always runs in the state the other left behind.
			pair := [2]*serveRun{untraced, s}
			if c%2 == 1 {
				pair[0], pair[1] = pair[1], pair[0]
			}
			pair[0].closedLoops(srv, part, clients)
			pair[1].closedLoops(srv, part, clients)
		}
		if err := s.layers(untraced, clients); err != nil {
			return nil, err
		}
		for _, form := range []string{"app", "source", "ir"} {
			s.o.layers["serve.hot_ms_p50."+form] = percentileOrZero(s.formMs[form], 0.50)
		}
		s.o.layers["serve.hot_ms_p99"] = percentileOrZero(s.o.latencies, 0.99)
		if len(s.o.latencies) > 0 {
			s.o.layers["serve.hot_ms_max"] = slices.Max(s.o.latencies)
		}
	}
	s.geomeans()
	return s.o, nil
}
