package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"uu/internal/bench"
	"uu/internal/codegen"
	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/irparse"
	"uu/internal/lang"
	"uu/internal/pipeline"
	"uu/internal/profile"
	"uu/internal/remark"
	"uu/internal/transform"
)

// Request is the POST /compile body. Exactly one of App, Source, IR selects
// the kernel: a suite benchmark by name (which brings its own workload),
// MiniCU source, or textual IR. Source/IR kernels run on a zero-initialized
// memory with the given launch geometry and integer arguments.
type Request struct {
	App    string `json:"app,omitempty"`
	Source string `json:"source,omitempty"`
	IR     string `json:"ir,omitempty"`

	// Config is a pipeline configuration name (pipeline.Configs); default
	// baseline. Loop and Factor parameterize the per-loop configurations.
	Config string `json:"config,omitempty"`
	Loop   int    `json:"loop,omitempty"`
	Factor int    `json:"factor,omitempty"`

	// Heuristic parameterizes the uu-heuristic configuration (rejected with
	// any other config). This is how a PGO driver feeds measured per-loop
	// overrides into a daemon compile; the resolved parameter set is part of
	// the cache fingerprint, so requests differing only in overrides never
	// share a cache entry.
	Heuristic *HeuristicSpec `json:"heuristic,omitempty"`

	// Device is a gpusim device spec (registry name with optional
	// overrides, e.g. "Vortex:warpsize=8"); default V100.
	Device string `json:"device,omitempty"`

	// Launch geometry and workload for Source/IR kernels (ignored with App,
	// which carries its own). Args become i64 kernel arguments.
	Grid     int     `json:"grid,omitempty"`
	Block    int     `json:"block,omitempty"`
	MemBytes int64   `json:"mem_bytes,omitempty"`
	Args     []int64 `json:"args,omitempty"`

	// DeadlineMs bounds this request's compile+simulate work; 0 uses the
	// server default. Expiry cancels the work at the next pass or
	// warp-block boundary and returns 504.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`

	// Contain runs every pass under the crash-containment guard
	// (pipeline.Options.Contain); Chaos injects a fault pass ("panic",
	// "corrupt", "miscompile" — transform.ChaosPass) for robustness drills.
	Contain bool   `json:"contain,omitempty"`
	Chaos   string `json:"chaos,omitempty"`

	// Remarks selects optimization-remark kinds to return as YAML
	// (remark.ParseKinds, e.g. "all" or "passed,missed"); Profile returns
	// the per-PC hotspot profile in folded (flamegraph) form.
	Remarks string `json:"remarks,omitempty"`
	Profile bool   `json:"profile,omitempty"`
}

// HeuristicSpec is the wire form of core.HeuristicParams: the static size
// budget and factor ceiling, the divergence-taint and selective-unmerge mode
// switches, and the per-loop override set in the textual syntax
// ("L10:deny,L12:force+cap=2" — core.ParseOverrides).
type HeuristicSpec struct {
	C             int    `json:"c,omitempty"`
	UMax          int    `json:"u_max,omitempty"`
	SkipDivergent bool   `json:"skip_divergent,omitempty"`
	Selective     bool   `json:"selective,omitempty"`
	Overrides     string `json:"overrides,omitempty"`
}

// Response is the POST /compile success body.
type Response struct {
	Key       string `json:"key"`
	RequestID string `json:"request_id,omitempty"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced,omitempty"`

	App    string `json:"app,omitempty"`
	Config string `json:"config"`
	Device string `json:"device"`

	KernelMs          float64 `json:"kernel_ms"`
	Cycles            int64   `json:"cycles"`
	IPC               float64 `json:"ipc"`
	WarpExecEff       float64 `json:"warp_exec_efficiency"`
	StallInstFetchPct float64 `json:"stall_inst_fetch_pct"`
	GldTransactions   int64   `json:"gld_transactions"`

	CompileMs         float64  `json:"compile_ms"`
	CodeBytes         int64    `json:"code_bytes"`
	LoopTransformed   bool     `json:"loop_transformed"`
	ContainedFailures []string `json:"contained_failures,omitempty"`

	RemarksYAML   string `json:"remarks_yaml,omitempty"`
	ProfileFolded string `json:"profile_folded,omitempty"`

	// Phases is the server-attributed per-phase timing breakdown; TraceJSON
	// carries the request's own trace when ?trace=1 was set. Like
	// RequestID, Cached and Coalesced, the server writes them per response
	// (reqState.respond) and never sets them on a shared Response.
	Phases    *Phases `json:"phases,omitempty"`
	TraceJSON string  `json:"trace_json,omitempty"`

	// execTM is the pool execution's timings, carried on the cached
	// response so later cache hits attribute the compute that produced
	// their result. Unexported: server-internal, never serialized.
	execTM phaseTimings
	// head and body are the response's wire bytes outside the per-request
	// fields, encoded once by the execution (Response.encode).
	head, body []byte
}

// Phases is the per-phase wall-clock attribution a response and each
// access-log line carry, in milliseconds. Frontend and resolve are this
// request's own; admission, compile, and simulate belong to the pool
// execution that produced the result (zero for a malformed request that
// never reached the pool). EncodeMs is only known after the body is
// written, so it appears in access-log lines and /metrics but is zero in
// response bodies. TotalMs is the server-side wall clock from request
// arrival to (for responses) just before encoding, or (in access logs)
// the full request.
type Phases struct {
	FrontendMs  float64 `json:"frontend_ms"`
	ResolveMs   float64 `json:"resolve_ms"`
	AdmissionMs float64 `json:"admission_ms"`
	CompileMs   float64 `json:"compile_ms"`
	SimulateMs  float64 `json:"simulate_ms"`
	EncodeMs    float64 `json:"encode_ms,omitempty"`
	TotalMs     float64 `json:"total_ms"`
}

// Error is the structured error body every non-200 response carries:
// machine-readable code, human-readable message, and the request ID that
// joins the failure to its access-log line and trace. Status is the HTTP
// status it was delivered with (set client-side; not serialized).
type Error struct {
	Status    int    `json:"-"`
	Code      string `json:"code"`
	Msg       string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s (%d): %s", e.Code, e.Status, e.Msg) }

func errBadRequest(format string, a ...any) *Error {
	return &Error{Status: 400, Code: "bad-request", Msg: fmt.Sprintf(format, a...)}
}

// Resource ceilings. The daemon simulates untrusted kernels; a request must
// not be able to demand unbounded memory or thread counts no matter what
// the deadline allows.
const (
	maxBlockDim = 1024
	maxGridDim  = 1 << 14
	maxThreads  = 1 << 20
	maxMemBytes = int64(64) << 20
	maxFactor   = 64
)

// spec is a validated request: everything a pool worker needs to run it,
// plus its content-addressed key.
type spec struct {
	key string
	app string
	// kernel returns the request's kernel as its frontend built it, the
	// caller's to optimize: a copy of the suite app's once-built function
	// (bench.Benchmark.Kernel) or of the function a source/IR request's
	// frontend produced. Only an execution calls it, so a follower, a
	// fingerprint hit and a shed request never allocate a function.
	kernel  func() *ir.Function
	opts    pipeline.Options
	dev     gpusim.DeviceConfig
	devName string
	launch  gpusim.Launch
	args    []interp.Value
	// acquireMem returns the request's initial device memory on a recycled
	// buffer (interp.AcquireMemory): a copy of the app's input image, or
	// zeros for a source/IR request. runSpec releases it.
	acquireMem func() *interp.Memory

	remarkKinds map[remark.Kind]bool
	wantRemarks bool
	wantProfile bool
}

// buildSpec validates a request and resolves its kernel to canonical text,
// returning a pool-ready spec. An app request builds no IR: the app's
// canonical text is a fact of the process (appRecord), so what is left is
// validation, the device parse and one hash. A source or IR request runs
// its frontend (MiniCU compilation or IR parsing) and canonicalizes the
// result here, in the handler goroutine — its failures are the client's
// fault, so they return 400 without occupying a worker. A recover wall turns
// frontend panics on adversarial input into structured 400s instead of a
// lost connection.
func buildSpec(req *Request) (sp *spec, rerr *Error) {
	defer func() {
		if p := recover(); p != nil {
			sp, rerr = nil, errBadRequest("kernel frontend panicked: %v", p)
		}
	}()
	sources := 0
	for _, s := range []string{req.App, req.Source, req.IR} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return nil, errBadRequest("exactly one of app, source, ir must be set (got %d)", sources)
	}

	cfg, err := pipeline.ParseConfig(req.Config)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	if req.Factor < 0 || req.Factor > maxFactor {
		return nil, errBadRequest("factor %d out of range [0,%d]", req.Factor, maxFactor)
	}
	if req.Loop < 0 {
		return nil, errBadRequest("loop %d must be >= 0", req.Loop)
	}
	switch req.Chaos {
	case "", string(transform.ChaosPanic), string(transform.ChaosCorrupt), string(transform.ChaosMiscompile):
	default:
		return nil, errBadRequest("unknown chaos mode %q (want panic, corrupt, or miscompile)", req.Chaos)
	}

	devSpec := req.Device
	if devSpec == "" {
		devSpec = "V100"
	}
	dev, devName, err := gpusim.ParseDevice(devSpec)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}

	sp = &spec{
		app:         req.App,
		dev:         dev,
		devName:     devName,
		wantProfile: req.Profile,
	}
	if req.Remarks != "" {
		kinds, err := remark.ParseKinds(req.Remarks)
		if err != nil {
			return nil, errBadRequest("%v", err)
		}
		sp.remarkKinds = kinds
		sp.wantRemarks = true
	}

	var memSize int64
	var canon string   // the kernel's canonical text
	var f *ir.Function // a source/IR request's kernel; an app request builds none
	switch {
	case req.App != "":
		b := bench.ByName(req.App)
		if b == nil {
			return nil, errBadRequest("unknown benchmark %q", req.App)
		}
		a := appRecordOf(b)
		if canon, err = a.canonical(); err != nil {
			return nil, errBadRequest("%v", err)
		}
		sp.kernel = b.Kernel // cannot panic: canonical compiled it
		sp.launch = a.w.Launch
		sp.args = a.w.Args
		sp.acquireMem = a.w.AcquireMemory
		memSize = a.w.MemSize
	default:
		if req.Source != "" {
			f, err = lang.CompileKernel(req.Source)
		} else {
			f, err = irparse.ParseFunc(req.IR)
			if err == nil {
				err = ir.Verify(f)
			}
		}
		if err != nil {
			return nil, errBadRequest("%v", err)
		}
		grid, block := req.Grid, req.Block
		if grid == 0 {
			grid = 1
		}
		if block == 0 {
			block = 32
		}
		if block < 1 || block > maxBlockDim || grid < 1 || grid > maxGridDim || grid*block > maxThreads {
			return nil, errBadRequest("launch %dx%d out of range (block <= %d, grid <= %d, threads <= %d)",
				grid, block, maxBlockDim, maxGridDim, maxThreads)
		}
		memSize = req.MemBytes
		if memSize == 0 {
			memSize = 1 << 16
		}
		if memSize < 0 || memSize > maxMemBytes {
			return nil, errBadRequest("mem_bytes %d out of range [0,%d]", memSize, maxMemBytes)
		}
		if len(f.Params) != len(req.Args) {
			return nil, errBadRequest("kernel %s takes %d arguments, got %d", f.Name, len(f.Params), len(req.Args))
		}
		sp.kernel = func() *ir.Function { return ir.Clone(f) }
		sp.launch = gpusim.Launch{GridDim: grid, BlockDim: block}
		sp.args = make([]interp.Value, len(req.Args))
		for i, a := range req.Args {
			sp.args[i] = interp.IntVal(a)
		}
		size := memSize
		sp.acquireMem = func() *interp.Memory { return interp.AcquireMemory(size, nil) }
	}

	sp.opts = pipeline.Options{
		Config:  cfg,
		LoopID:  req.Loop,
		Factor:  req.Factor,
		Contain: req.Contain,
	}
	if req.Heuristic != nil {
		if cfg != pipeline.UUHeuristic {
			return nil, errBadRequest("heuristic parameters require config %q (got %q)", pipeline.UUHeuristic, cfg)
		}
		hs := req.Heuristic
		if hs.C < 0 {
			return nil, errBadRequest("heuristic c %d must be >= 0", hs.C)
		}
		if hs.UMax < 0 || hs.UMax > maxFactor {
			return nil, errBadRequest("heuristic u_max %d out of range [0,%d]", hs.UMax, maxFactor)
		}
		ov, err := core.ParseOverrides(hs.Overrides)
		if err != nil {
			return nil, errBadRequest("%v", err)
		}
		for line, o := range ov {
			if o.FactorCap > maxFactor {
				return nil, errBadRequest("override L%d cap %d exceeds %d", line, o.FactorCap, maxFactor)
			}
		}
		sp.opts.Heuristic = core.HeuristicParams{
			C: hs.C, UMax: hs.UMax,
			SkipDivergent: hs.SkipDivergent,
			Selective:     hs.Selective,
			Overrides:     ov,
		}
	}

	if f != nil {
		if canon, err = CanonicalIR(f); err != nil {
			return nil, errBadRequest("%v", err)
		}
	}
	sp.key = Fingerprint(canon, sp.opts, sp.dev, sp.launch, memSize, req.Args, req.Chaos, req.Remarks, req.Profile)
	if req.Chaos != "" {
		sp.opts.Inject = append(sp.opts.Inject, transform.ChaosPass(transform.ChaosMode(req.Chaos)))
	}
	return sp, nil
}

// appRecord is what the process knows about one suite app for its whole
// life, because the app's source never changes: its workload — read-only
// here (no SetInput), so every request for the app copies one input image
// instead of regenerating it — and the canonical text of its kernel.
type appRecord struct {
	b *bench.Benchmark
	w *bench.Workload

	canonOnce sync.Once
	canon     string
	canonErr  error
}

var appRecords sync.Map // *bench.Benchmark -> *appRecord

func appRecordOf(b *bench.Benchmark) *appRecord {
	if a, ok := appRecords.Load(b); ok {
		return a.(*appRecord)
	}
	a, _ := appRecords.LoadOrStore(b, &appRecord{b: b, w: b.NewWorkload()})
	return a.(*appRecord)
}

// canonical returns CanonicalIR of the app's kernel, fixed-point check
// included, computed by the first request that names the app and remembered
// with its error, so an app whose frontend fails answers every request alike.
func (a *appRecord) canonical() (string, error) {
	a.canonOnce.Do(func() {
		// Stands if the frontend panics: the Once is spent either way, and
		// later requests must not hash an empty text.
		a.canonErr = fmt.Errorf("bench %s: kernel frontend panicked", a.b.Name)
		f, err := a.b.CompileKernel()
		if err != nil {
			a.canonErr = err
			return
		}
		a.canon, a.canonErr = CanonicalIR(f)
	})
	return a.canon, a.canonErr
}

// execRecord is what one pool execution clocked and measured: the phase
// timings every waiter on the flight reports, and what a traced leader
// renders its pass, codegen and simulator spans from afterwards.
type execRecord struct {
	phaseTimings
	stats    *pipeline.Stats // nil until the pipeline returned
	lowered  time.Time       // when codegen finished; zero if it never ran
	simStart time.Time
	metrics  *gpusim.Metrics // nil unless the simulation finished
}

// trace renders the execution of sp into a request trace.
func (x *execRecord) trace(tr *remark.Trace, sp *spec) {
	if x.stats != nil {
		bench.TraceCompile(tr, 0, x.stats, x.lowered)
	}
	if x.metrics != nil {
		bench.TraceSim(tr, 0, x.stats.Function, x.simStart, x.Simulate, x.metrics, sp.dev)
	}
}

// runSpec executes a spec: pipeline, codegen, simulation, artifact
// rendering. Cancellation (deadline expiry, all waiters gone, drain) stops
// at the next pass or warp-block boundary and classifies through ctxError.
// x receives the compile and simulate wall clocks and the layers' records.
func runSpec(ctx context.Context, sp *spec, x *execRecord) (*Response, *Error) {
	opts := sp.opts
	var col *remark.Collector
	if sp.wantRemarks {
		col = remark.NewCollector()
		opts.Remarks = col
	}
	f := sp.kernel()
	tCompile := time.Now()
	stats, err := pipeline.OptimizeCtx(ctx, f, opts)
	x.stats = stats
	if err != nil {
		x.Compile = time.Since(tCompile)
		return nil, classify(err, "compile-failed")
	}
	prog, lowerErr := codegen.Lower(f)
	x.lowered = time.Now()
	x.Compile = x.lowered.Sub(tCompile)
	if lowerErr != nil {
		return nil, &Error{Status: 422, Code: "compile-failed", Msg: lowerErr.Error()}
	}
	var prof *gpusim.Profile
	if sp.wantProfile {
		prof = gpusim.NewProfile(prog)
	}
	// The memory is dead once the response is built (nothing below keeps a
	// reference into it), so it goes back to the free list on every path.
	mem := sp.acquireMem()
	defer interp.ReleaseMemory(mem)
	x.simStart = time.Now()
	m, err := gpusim.RunCtx(ctx, prog, sp.args, mem, sp.launch, sp.dev, prof)
	x.Simulate = time.Since(x.simStart)
	if err != nil {
		return nil, classify(err, "exec-failed")
	}
	x.metrics = m

	resp := &Response{
		Key:               sp.key,
		App:               sp.app,
		Config:            string(sp.opts.Config),
		Device:            sp.devName,
		KernelMs:          m.KernelMillis(sp.dev),
		Cycles:            m.Cycles,
		IPC:               m.IPC(),
		WarpExecEff:       m.WarpExecutionEfficiency(sp.dev),
		StallInstFetchPct: m.StallInstFetchPct(),
		GldTransactions:   m.GldTransactions,
		CompileMs:         float64(stats.CompileTime.Microseconds()) / 1e3,
		CodeBytes:         prog.CodeBytes(),
		LoopTransformed:   stats.LoopTransformed,
	}
	for _, pf := range stats.Failures {
		resp.ContainedFailures = append(resp.ContainedFailures, pf.String())
	}
	if col != nil {
		var sb strings.Builder
		if err := remark.WriteYAML(&sb, col.Remarks(), sp.remarkKinds); err == nil {
			resp.RemarksYAML = sb.String()
		}
	}
	if prof != nil {
		rep := profile.Build(prog, prof)
		var sb strings.Builder
		if err := profile.WriteFolded(&sb, rep); err == nil {
			resp.ProfileFolded = sb.String()
		}
	}
	return resp, nil
}

// classify maps an execution error to a structured response error:
// deadline expiry → 504, cancellation (client gone, drain) → 503, anything
// else → 422 under the stage's code.
func classify(err error, code string) *Error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Status: 504, Code: "deadline", Msg: err.Error()}
	case errors.Is(err, context.Canceled):
		return &Error{Status: 503, Code: "canceled", Msg: err.Error()}
	}
	return &Error{Status: 422, Code: code, Msg: err.Error()}
}
