package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"uu/internal/bench"
	"uu/internal/codegen"
	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/lang"
	"uu/internal/pipeline"
)

// appData is one suite app with its workload and its oracle.
type appData struct {
	b *bench.Benchmark
	w *bench.Workload
	// ref is the interpreter's memory image: the oracle is always
	// bench.Reference, never the compiler under test.
	ref   *interp.Memory
	refMs float64 // time bench.Reference took
}

// buildOracles runs the interpreter over all 16 apps, GOMAXPROCS at a time,
// and returns them in suite order.
func buildOracles() ([]*appData, error) {
	apps := make([]*appData, len(bench.Suite))
	errs := make([]error, len(bench.Suite))
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				b := bench.Suite[i]
				a := &appData{b: b, w: b.NewWorkload()}
				t := time.Now()
				a.ref, errs[i] = bench.Reference(b, a.w)
				a.refMs = ms(time.Since(t))
				apps[i] = a
			}
		}()
	}
	for i := range bench.Suite {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return apps, nil
}

// oracleLayers fills the interp rows from the oracle build.
func oracleLayers(layers map[string]float64, apps []*appData) {
	refMs, threads := 0.0, 0
	for _, a := range apps {
		refMs += a.refMs
		threads += a.w.Launch.Threads()
	}
	layers["interp.reference_ms_sum"] = refMs
	layers["interp.threads_per_s"] = float64(threads) / (refMs / 1e3)
}

// opTrace records the layer calls of one op as children of its root span.
type opTrace struct {
	log  *spanLog
	op   int
	root int
	tag  string
}

// beginOp opens an op's root span; end closes it.
func (l *spanLog) beginOp(op int, tag string) (t opTrace, end func()) {
	start := time.Now()
	t = opTrace{l, op, l.add(op, -1, "uuperf.op", tag, start, 0), tag}
	return t, func() {
		l.mu.Lock()
		l.spans[t.root].DurNs = int64(time.Since(start))
		l.mu.Unlock()
	}
}

// call times fn as one call into a layer.
func (t opTrace) call(name string, fn func()) {
	start := time.Now()
	fn()
	t.log.add(t.op, t.root, name, t.tag, start, time.Since(start))
}

// compileByLayer is bench.Compile taken apart: frontend, pipeline, codegen,
// each through its public function with a span around it.
func compileByLayer(t opTrace, src string, opts pipeline.Options) (f *ir.Function, prog *codegen.Program, err error) {
	t.call("lang.compile", func() { f, err = lang.CompileKernel(src) })
	if err != nil {
		return nil, nil, err
	}
	t.call("pipeline.optimize", func() { _, err = pipeline.Optimize(f, opts) })
	if err != nil {
		return nil, nil, err
	}
	t.call("codegen.lower", func() { prog, err = codegen.Lower(f) })
	return f, prog, err
}

// executeByLayer is bench.Execute taken apart: a fresh memory image, the
// simulator, the comparison with the oracle.
func executeByLayer(t opTrace, prog *codegen.Program, a *appData, dev gpusim.DeviceConfig) (m *gpusim.Metrics, err error) {
	var mem *interp.Memory
	t.call("bench.new_memory", func() { mem = a.w.NewMemory() })
	launch := a.w.Launch
	launch.SampleWarps = 0 // as bench.Execute does when it verifies
	t.call("gpusim.run", func() { m, err = gpusim.Run(prog, a.w.Args, mem, launch, dev) })
	if err != nil {
		return nil, err
	}
	t.call("bench.compare", func() { err = bench.CompareOutputs(a.w, a.ref, mem) })
	if err != nil {
		return nil, fmt.Errorf("verification failed: %w", err)
	}
	return m, nil
}
