package bench

import (
	"testing"

	"uu/internal/interp"
	"uu/internal/ir"
)

// BenchmarkReference measures the oracle the harness plans before its first
// cell: Reference over all 16 apps, which is the sweep's set-up time. It
// reports interpreted steps per second (the steps are counted once, outside
// the timed loop). Each thread borrows a recycled frame, so what an op
// allocates is each app's memory and kernel copy: a few hundred allocations,
// independent of how many threads run or how long.
func BenchmarkReference(b *testing.B) {
	type job struct {
		app *Benchmark
		w   *Workload
	}
	var jobs []job
	var steps int64
	for _, app := range Suite {
		w := app.NewWorkload()
		jobs = append(jobs, job{app, w})
		ctr := &interp.Counters{Ops: map[ir.Op]int64{}}
		if _, err := reference(app, w, ctr); err != nil {
			b.Fatal(err)
		}
		steps += ctr.Steps
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if _, err := Reference(j.app, j.w); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}
