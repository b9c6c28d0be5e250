package bench

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/pipeline"
)

// compileColumn is the wall-clock column of a Progress line.
var compileColumn = regexp.MustCompile(`compile=\s*[0-9.]+ ms`)

// withoutClocks returns a copy of res whose records have every wall-clock
// field zeroed and their program replaced by its text (a Program caches the
// simulator's decoded form, which holds closures), so two campaigns compare
// with reflect.DeepEqual.
func withoutClocks(res *Results) (*Results, []string) {
	var programs []string
	strip := func(rec *RunRecord) *RunRecord {
		if rec == nil {
			return nil
		}
		r := *rec
		r.Start, r.CompileWall, r.SimulateWall, r.CompileMs = time.Time{}, 0, 0, 0
		if r.Program != nil {
			programs = append(programs, r.Program.String())
			r.Program = nil
		}
		if r.Stats != nil {
			st := *r.Stats
			st.Start, st.CompileTime, st.VerifyTime = time.Time{}, 0, 0
			st.PassTimes = append([]pipeline.PassTime(nil), st.PassTimes...)
			for i := range st.PassTimes {
				st.PassTimes[i].Start, st.PassTimes[i].Duration = 0, 0
			}
			r.Stats = &st
		}
		return &r
	}
	out := *res
	out.Baseline, out.Heuristic, out.PerLoop = map[string]*RunRecord{}, map[string]*RunRecord{}, nil
	var apps []string
	for app := range res.Baseline {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		out.Baseline[app] = strip(res.Baseline[app])
		out.Heuristic[app] = strip(res.Heuristic[app])
	}
	for _, rec := range res.PerLoop {
		out.PerLoop = append(out.PerLoop, strip(rec))
	}
	return &out, programs
}

// verifiedCampaign runs a verified one-worker campaign over apps with
// GOMAXPROCS set to procs, and returns its Results and its Progress lines
// without their wall-clock column. It profiles every run, so every record
// keeps its program (a campaign releases an unprofiled cell's) for
// withoutClocks to compare.
func verifiedCampaign(t *testing.T, procs int, apps []string) (*Results, string, error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var progress bytes.Buffer
	res, err := RunExperiments(HarnessOptions{Apps: apps, Factors: []int{2}, Verify: true, Workers: 1, Progress: &progress, Profile: true})
	return res, compileColumn.ReplaceAllString(progress.String(), "compile=- ms"), err
}

// TestPlanningIsOrderIndependent: planning runs on every core, but what a
// campaign returns must not depend on how many there are — the Results, the
// Progress lines, and, when apps cannot be planned, which error comes back
// (the first in campaign order, not the first to finish).
func TestPlanningIsOrderIndependent(t *testing.T) {
	apps := []string{"contract", "clink", "complex", "coordinates"}
	serial, serialLog, err := verifiedCampaign(t, 1, apps)
	if err != nil {
		t.Fatal(err)
	}
	wide, wideLog, err := verifiedCampaign(t, 4, apps)
	if err != nil {
		t.Fatal(err)
	}
	if serialLog != wideLog {
		t.Errorf("Progress differs:\nGOMAXPROCS 1:\n%s\nGOMAXPROCS 4:\n%s", serialLog, wideLog)
	}
	if strings.Count(serialLog, "\n") != len(serial.PerLoop)+2*len(apps) {
		t.Errorf("%d Progress lines for %d runs", strings.Count(serialLog, "\n"), len(serial.PerLoop)+2*len(apps))
	}
	serialRes, serialProgs := withoutClocks(serial)
	wideRes, wideProgs := withoutClocks(wide)
	if !reflect.DeepEqual(serialRes, wideRes) || !slices.Equal(serialProgs, wideProgs) {
		t.Error("Results differ between GOMAXPROCS 1 and 4")
	}

	// Two apps that cannot be planned: the first fails only after its oracle
	// has interpreted a million loop iterations, the second at once in the
	// frontend, so on a wide pool the second finishes first.
	slowTrap := &Benchmark{
		Name: "slow-trap",
		Source: `
kernel slowtrap(long* restrict out, long n) {
  long s = 0;
  for (long i = 0; i < n; i++) { s += i; }
  out[s] = 1;
}`,
		NewWorkload: func() *Workload {
			return &Workload{Args: []interp.Value{interp.IntVal(0), interp.IntVal(1_000_000)}, MemSize: 64,
				Launch: gpusim.Launch{GridDim: 1, BlockDim: 1}}
		},
	}
	broken := &Benchmark{Name: "broken-app", Source: "kernel k(long* p) { p[0] = ; }", NewWorkload: slowTrap.NewWorkload}
	suite := Suite
	Suite = append(suite[:len(suite):len(suite)], slowTrap, broken)
	t.Cleanup(func() { Suite = suite })
	var first string
	for _, procs := range []int{1, 4} {
		res, _, err := verifiedCampaign(t, procs, []string{"contract", "slow-trap", "broken-app"})
		if err == nil || res != nil {
			t.Fatalf("GOMAXPROCS %d: results %v, error %v; want only an error", procs, res, err)
		}
		if !strings.Contains(err.Error(), "bench slow-trap: reference thread 0: interp: store out of bounds") {
			t.Errorf("GOMAXPROCS %d: %v; want slow-trap's oracle failure", procs, err)
		}
		if procs == 1 {
			first = err.Error()
		} else if err.Error() != first {
			t.Errorf("GOMAXPROCS %d: %q; GOMAXPROCS 1 said %q", procs, err, first)
		}
	}
}

// TestCancelledCampaignStopsPlanning: a context that is done before or
// during planning ends the campaign there — interrupted, with no records —
// instead of interpreting every app's oracle first.
func TestCancelledCampaignStopsPlanning(t *testing.T) {
	var interpreted atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer setReferenceHook(func(*Benchmark) {
		if interpreted.Add(1) == 1 {
			cancel()
		}
	})()

	pre, precancel := context.WithCancel(context.Background())
	precancel()
	res, err := RunExperimentsCtx(pre, HarnessOptions{Verify: true})
	if n := interpreted.Load(); n != 0 {
		t.Errorf("a campaign cancelled before it began interpreted %d apps", n)
	}
	checkInterrupted(t, "pre-cancelled", res, err)

	res, err = RunExperimentsCtx(ctx, HarnessOptions{Verify: true})
	if n := interpreted.Load(); n < 1 || int(n) > runtime.GOMAXPROCS(0) {
		t.Errorf("a campaign cancelled by its first oracle interpreted %d apps; want 1 to GOMAXPROCS", n)
	}
	checkInterrupted(t, "cancelled mid-planning", res, err)
}

func checkInterrupted(t *testing.T, what string, res *Results, err error) {
	t.Helper()
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "campaign interrupted") {
		t.Errorf("%s: error %v, want campaign interrupted", what, err)
	}
	if res == nil || len(res.Baseline)+len(res.Heuristic)+len(res.PerLoop)+len(res.LoopCount) != 0 {
		t.Errorf("%s: results %+v, want empty ones", what, res)
	}
}
