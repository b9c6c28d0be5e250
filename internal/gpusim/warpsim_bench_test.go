package gpusim

import (
	"testing"

	"uu/internal/interp"
	"uu/internal/pipeline"
)

// warpSimCase is one throughput scenario: the simulator's three steady-state
// regimes (ALU-bound, memory/coalescing-bound, divergence-bound).
type warpSimCase struct {
	name string
	src  string
	opts pipeline.Options
	args []interp.Value
	mem  int64
}

func warpSimCases() []warpSimCase {
	const compute = `
kernel wc(double* restrict out, long n) {
  long i = (long)global_id();
  double a = (double)i * 0.5;
  for (long k = 0; k < n; k++) {
    a = a * 1.0000001 + 0.5;
    a = a * 0.9999999 - 0.25;
  }
  out[i] = a;
}
`
	const memory = `
kernel wm(double* restrict x, double* restrict y, long n) {
  long i = (long)global_id();
  double acc = 0.0;
  for (long k = 0; k < n; k++) {
    acc = acc + x[(i + k * 33) & 8191];
  }
  y[i] = acc;
}
`
	const divergent = `
kernel wd(long* restrict out, long n) {
  long i = (long)tid();
  long acc = 0;
  for (long k = 0; k < n; k++) {
    if (((i + k) & 3) == 0) {
      acc = acc + k * 3;
    } else {
      acc = acc - k;
    }
  }
  out[i] = acc;
}
`
	return []warpSimCase{
		{
			name: "compute",
			src:  compute,
			opts: pipeline.Options{Config: pipeline.Baseline},
			args: []interp.Value{interp.IntVal(0), interp.IntVal(256)},
			mem:  8 * 1024,
		},
		{
			name: "memory",
			src:  memory,
			opts: pipeline.Options{Config: pipeline.Baseline},
			args: []interp.Value{interp.IntVal(0), interp.IntVal(8 * 8192), interp.IntVal(128)},
			mem:  8 * (8192 + 1024),
		},
		{
			name: "divergent",
			src:  divergent,
			opts: pipeline.Options{Config: pipeline.Baseline, DisableIfConvert: true},
			args: []interp.Value{interp.IntVal(0), interp.IntVal(256)},
			mem:  8 * 1024,
		},
	}
}

// BenchmarkWarpSim measures simulated-instruction throughput — the number
// the decoded, allocation-free execution core is meant to at least double.
// It reports thread-instrs/s (the sweep-relevant rate) alongside ns/op.
func BenchmarkWarpSim(b *testing.B) {
	launch := Launch{GridDim: 8, BlockDim: 128}
	cfg := V100()
	for _, c := range warpSimCases() {
		c := c
		b.Run(c.name, func(b *testing.B) {
			p := build(b, c.src, c.opts)
			mem := interp.NewMemory(c.mem)
			// One warm-up run sizes the per-run work for the rate metric.
			m, err := Run(p, c.args, mem, launch, cfg)
			if err != nil {
				b.Fatal(err)
			}
			perRun := m.ThreadInstrs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(p, c.args, mem, launch, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			rate := float64(perRun) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(rate, "instrs/s")
		})
	}
}
