package main

import (
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"uu/internal/bench"
	"uu/internal/gpusim"
	"uu/internal/pipeline"
	"uu/internal/serve"
)

// These tests break an input of each checker and expect the ops it guards to
// count as failed: a benchmark whose checks cannot fail measures nothing.

// cheapApp is the suite app whose interpreter oracle is quickest to build.
const cheapApp = "bspline-vgh"

func TestSimulateCountsWrongOutputAsFailed(t *testing.T) {
	b := bench.ByName(cheapApp)
	a := &appData{b: b, w: b.NewWorkload()}
	var err error
	if a.ref, err = bench.Reference(b, a.w); err != nil {
		t.Fatal(err)
	}
	cr, err := bench.Compile(b, pipeline.Options{Config: pipeline.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	dev, _, err := gpusim.ParseDevice(simDevices[0].spec)
	if err != nil {
		t.Fatal(err)
	}
	s := &simRun{
		o:     &outcome{},
		ops:   []simOp{{0, 0}},
		progs: []simProgram{{a, cr}},
		devs:  []gpusim.DeviceConfig{dev},
		rng:   rand.New(rand.NewSource(1)),
		first: make([]*gpusim.Metrics, 1),
	}
	work := make([]gpusim.Metrics, 1)
	s.pass(s.o, nil, work)
	s.pass(s.o, &spanLog{}, work)
	if s.o.attempted != 2 || s.o.failed != 0 {
		t.Fatalf("against the intact oracle: %d attempted, %d failed", s.o.attempted, s.o.failed)
	}
	// One byte of the oracle's first output element, high enough in the
	// word that the float tolerance of bench.CompareOutputs cannot absorb it.
	out := a.w.Outputs[0]
	a.ref.Data[out.Base+int64(elemSize(t, out.Elem))-2] ^= 0xff
	s.pass(s.o, nil, work)
	s.pass(s.o, &spanLog{}, work)
	if s.o.attempted != 4 || s.o.failed != 2 || len(s.o.latencies) != 2 {
		t.Errorf("after flipping an oracle byte: %d attempted, %d failed, %d latencies", s.o.attempted, s.o.failed, len(s.o.latencies))
	}
}

// A cell the harness skipped writes no progress line: it must count as a
// failed op, and the lines must still pair with the cells that were measured.
func TestSweepPairsLinesWithMeasuredCells(t *testing.T) {
	recs := []*bench.RunRecord{{}, {}, {Skipped: "loop 1 is not transformable"}, {}}
	at := func(ms ...int) []time.Time {
		var ts []time.Time
		for _, m := range ms {
			ts = append(ts, processStart.Add(time.Duration(m)*time.Millisecond))
		}
		return ts
	}
	gaps, err := lineGaps(recs, at(100, 130, 190))
	want := []time.Duration{0, 30 * time.Millisecond, 0, 60 * time.Millisecond}
	if err != nil || !reflect.DeepEqual(gaps, want) {
		t.Errorf("gaps %v, %v; want %v", gaps, err, want)
	}
	if _, err := lineGaps(recs, at(100, 130, 190, 200)); err == nil {
		t.Error("a line for the skipped cell was accepted")
	}
	if _, err := lineGaps(recs, at(100, 130)); err == nil {
		t.Error("a missing line was accepted")
	}
}

func elemSize(t *testing.T, elem string) int {
	switch elem {
	case "f64", "i64":
		return 8
	case "f32", "i32":
		return 4
	}
	t.Fatalf("unknown element type %q", elem)
	return 0
}

// smallServeRun is a serve run over the 16 group E keys, whose kernels
// compile and simulate in milliseconds, with the responses a warm-up pass on
// srv learned.
func smallServeRun(t *testing.T, srv *liveServer) *serveRun {
	t.Helper()
	all, err := serveKeys()
	if err != nil {
		t.Fatal(err)
	}
	s := &serveRun{o: &outcome{}, formMs: map[string][]float64{}}
	for _, k := range all {
		if strings.HasPrefix(k.name, "E/") {
			s.keys = append(s.keys, k)
		}
	}
	if len(s.keys) != 16 {
		t.Fatalf("group E has %d keys", len(s.keys))
	}
	order := rand.New(rand.NewSource(1)).Perm(len(s.keys))
	if err := s.lockStep(srv, order, false); err != nil {
		t.Fatal(err)
	}
	return s
}

func testServer(t *testing.T) *liveServer {
	t.Helper()
	srv, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.stop)
	return srv
}

func TestServeHotChecks(t *testing.T) {
	srv := testServer(t)
	s := smallServeRun(t, srv)
	seq := hotSequence(len(s.keys), 200, 1)

	s.closedLoops(srv, seq, 2)
	if s.o.attempted != 200 || s.o.failed != 0 || len(s.o.latencies) != 200 {
		t.Fatalf("intact: %d attempted, %d failed, %d latencies", s.o.attempted, s.o.failed, len(s.o.latencies))
	}

	// Two keys' expected responses swapped: every request for either is a
	// response under the wrong key.
	swapped := s.twin(nil)
	swapped.want = append([]*serve.Response(nil), s.want...)
	swapped.want[0], swapped.want[1] = swapped.want[1], swapped.want[0]
	wantFailed := 0
	for _, ki := range seq {
		if ki == 0 || ki == 1 {
			wantFailed++
		}
	}
	swapped.closedLoops(srv, seq, 2)
	if wantFailed == 0 || swapped.o.failed != wantFailed {
		t.Errorf("two keys swapped: %d failed, want %d", swapped.o.failed, wantFailed)
	}

	// A server that has not seen the keys: each key's first request is a
	// miss, the later ones replay an execution other than the warm-up's, so
	// every reply fails, and each miss fails again as a compilation in a
	// section where none may happen.
	cold := s.twin(nil)
	cold.closedLoops(testServer(t), seq, 1)
	if want := 200 + len(s.keys); cold.o.failed != want || cold.o.attempted != want {
		t.Errorf("cold server: %d failed of %d, want %d of %d", cold.o.failed, cold.o.attempted, want, want)
	}
}

func TestServeColdChecks(t *testing.T) {
	s := smallServeRun(t, testServer(t))
	order := rand.New(rand.NewSource(2)).Perm(len(s.keys))

	srv := testServer(t)
	if err := s.lockStep(srv, order, true); err != nil {
		t.Fatal(err)
	}
	if s.o.attempted != len(s.keys) || s.o.failed != 0 || s.compiles != len(s.keys) {
		t.Fatalf("fresh server: %d attempted, %d failed, %d compiles", s.o.attempted, s.o.failed, s.compiles)
	}
	// The same server again: nothing compiles, so no request leads, and
	// every op fails as a leader that was served from the cache.
	again := s.twin(nil)
	if err := again.lockStep(srv, order, true); err != nil {
		t.Fatal(err)
	}
	if again.o.failed != len(s.keys) {
		t.Errorf("warm server: %d failed, want %d", again.o.failed, len(s.keys))
	}
}

func TestCheckReply(t *testing.T) {
	want := &serve.Response{Key: "k1", KernelMs: 1.5, CodeBytes: 64, CompileMs: 3}
	ok := func() *reply {
		return &reply{status: http.StatusOK, resp: serve.Response{Key: "k1", KernelMs: 1.5, CodeBytes: 64, CompileMs: 3, Cached: true, RequestID: "r2"}}
	}
	if err := checkReply(ok(), want, hit); err != nil {
		t.Fatalf("intact hit: %v", err)
	}
	for name, c := range map[string]struct {
		mutate func(*reply)
		as     role
	}{
		"shed":                  {func(r *reply) { r.status = http.StatusTooManyRequests }, hit},
		"server error":          {func(r *reply) { r.status = http.StatusInternalServerError }, hit},
		"hit not cached":        {func(r *reply) { r.resp.Cached = false }, hit},
		"wrong key":             {func(r *reply) { r.resp.Key = "k2" }, hit},
		"wrong number":          {func(r *reply) { r.resp.KernelMs = 1.6 }, hit},
		"recompiled hit":        {func(r *reply) { r.resp.CompileMs = 4 }, hit},
		"leader from the cache": {func(r *reply) {}, leader},
		"follower that led":     {func(r *reply) { r.resp.Cached = false }, follower},
	} {
		r := ok()
		c.mutate(r)
		if checkReply(r, want, c.as) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckCompiles(t *testing.T) {
	want := []*serve.Response{{Key: "k1"}, {Key: "k2"}}
	for name, c := range map[string]struct {
		compiles map[string]int
		wrong    int
	}{
		"once each":    {map[string]int{"k1": 1, "k2": 1}, 0},
		"one twice":    {map[string]int{"k1": 2, "k2": 1}, 1},
		"one never":    {map[string]int{"k1": 1}, 1},
		"a key no one": {map[string]int{"k1": 1, "k2": 1, "k3": 1}, 1},
	} {
		if got := checkCompiles(&liveServer{compiles: c.compiles}, want); got != c.wrong {
			t.Errorf("%s: %d wrong, want %d", name, got, c.wrong)
		}
	}
}
