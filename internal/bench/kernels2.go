package bench

import (
	"math"
	"math/rand"

	"uu/internal/gpusim"
	"uu/internal/interp"
)

// Haccmk is an O(N*M) short-range force kernel: dense floating-point work
// with a single clamp branch. Plain unrolling already removes most loop
// overhead; u&u adds code size for little extra benefit (the paper: unroll
// slightly ahead of u&u because of instruction-fetch stalls).
var Haccmk = &Benchmark{
	Name:         "haccmk",
	AppCodeBytes: 3000,
	AppCompileMs: 12,
	Category:     "Simulation",
	CommandLine:  "2000",
	KernelPct:    0.9983,
	Source: `
kernel haccmk(float* restrict xx, float* restrict yy, float* restrict zz, float* restrict mass, float* restrict fx, long n, long m, float rsm) {
  long gid = (long)global_id();
  if (gid >= n) { return; }
  float xi = xx[gid];
  float yi = yy[gid];
  float zi = zz[gid];
  float f = 0.0f;
  for (long j = 0; j < m; j++) {
    float dx = xx[j] - xi;
    float dy = yy[j] - yi;
    float dz = zz[j] - zi;
    float r2 = dx * dx + dy * dy + dz * dz;
    if (r2 < rsm) { r2 = rsm; }
    float r2inv = 1.0f / sqrt(r2 * r2 * r2);
    float poly = r2 * (0.5f + r2 * 0.25f);
    f += mass[j] * dx * (r2inv - poly * 0.001f);
  }
  fx[gid] = f;
}
`,
	NewWorkload: func() *Workload {
		const n, m = 1024, 256
		xxBase := int64(0)
		yyBase := xxBase + 4*m
		zzBase := yyBase + 4*m
		massBase := zzBase + 4*m
		fxBase := massBase + 4*m
		return &Workload{
			Args: []interp.Value{interp.IntVal(xxBase), interp.IntVal(yyBase), interp.IntVal(zzBase),
				interp.IntVal(massBase), interp.IntVal(fxBase), interp.IntVal(n), interp.IntVal(m),
				interp.FloatVal(0.01)},
			MemSize: fxBase + 4*n,
			Init: func(mm *interp.Memory) {
				// Particles are spatially tiled (as HACC's blocking does), so
				// the threads of a warp hold neighbouring particles and the
				// softening clamp fires in lockstep.
				rng := rand.New(rand.NewSource(18))
				for i := int64(0); i < m; i++ {
					cx := float64((i/32)%4) * 0.25
					mm.SetF32(xxBase, i, float32(cx+rng.Float64()*0.01))
					mm.SetF32(yyBase, i, float32(cx*0.5+rng.Float64()*0.01))
					mm.SetF32(zzBase, i, float32(rng.Float64()*0.01))
					mm.SetF32(massBase, i, float32(rng.Float64()+0.5))
				}
			},
			// White noise: positions scattered over the whole box instead of
			// spatially tiled, so the softening clamp fires per lane.
			Noise: func(mm *interp.Memory) {
				rng := rand.New(rand.NewSource(noiseSeed + 18))
				for i := int64(0); i < m; i++ {
					mm.SetF32(xxBase, i, float32(rng.Float64()))
					mm.SetF32(yyBase, i, float32(rng.Float64()))
					mm.SetF32(zzBase, i, float32(rng.Float64()))
					mm.SetF32(massBase, i, float32(rng.Float64()+0.5))
				}
			},
			Launch:  gpusim.Launch{GridDim: n / 128, BlockDim: 128},
			Outputs: []Region{{"fx", fxBase, n, "f32"}},
		}
	},
}

// LavaMD models particle interactions inside a neighbor box with an
// exponential kernel and a cutoff branch.
var LavaMD = &Benchmark{
	Name:         "lavaMD",
	AppCodeBytes: 40000,
	AppCompileMs: 90,
	Category:     "Simulation",
	CommandLine:  "-boxes1d 30",
	KernelPct:    0.6652,
	Source: `
kernel lavamd(double* restrict px, double* restrict py, double* restrict pz, double* restrict q, double* restrict out, long npart, long nneigh, double cutoff) {
  long gid = (long)global_id();
  if (gid >= npart) { return; }
  double xi = px[gid];
  double yi = py[gid];
  double zi = pz[gid];
  double acc = 0.0;
  for (long j = 0; j < nneigh; j++) {
    double dx = px[j] - xi;
    double dy = py[j] - yi;
    double dz = pz[j] - zi;
    double r2 = dx * dx + dy * dy + dz * dz;
    if (r2 < cutoff) {
      double u = exp(-0.5 * r2);
      acc += q[j] * u;
    } else {
      acc += q[j] / (1.0 + r2);
    }
  }
  out[gid] = acc;
}
`,
	NewWorkload: func() *Workload {
		const npart, nneigh = 1024, 128
		pxBase := int64(0)
		pyBase := pxBase + 8*nneigh
		pzBase := pyBase + 8*nneigh
		qBase := pzBase + 8*nneigh
		outBase := qBase + 8*nneigh
		return &Workload{
			Args: []interp.Value{interp.IntVal(pxBase), interp.IntVal(pyBase), interp.IntVal(pzBase),
				interp.IntVal(qBase), interp.IntVal(outBase), interp.IntVal(npart), interp.IntVal(nneigh),
				interp.FloatVal(0.5)},
			MemSize: outBase + 8*npart,
			Init: func(m *interp.Memory) {
				// lavaMD's boxes are spatial clusters: particles of the same
				// warp are neighbours, so the cutoff test agrees lane-to-lane.
				rng := rand.New(rand.NewSource(19))
				for i := int64(0); i < nneigh; i++ {
					cx := float64((i/32)%2) * 1.5
					m.SetF64(pxBase, i, cx+rng.Float64()*0.05)
					m.SetF64(pyBase, i, cx*0.3+rng.Float64()*0.05)
					m.SetF64(pzBase, i, rng.Float64()*0.05)
					m.SetF64(qBase, i, rng.Float64()*2-1)
				}
			},
			// White noise: particles scattered uniformly, so the cutoff test
			// disagrees lane-to-lane on most neighbours.
			Noise: func(m *interp.Memory) {
				rng := rand.New(rand.NewSource(noiseSeed + 19))
				for i := int64(0); i < nneigh; i++ {
					m.SetF64(pxBase, i, rng.Float64()*2)
					m.SetF64(pyBase, i, rng.Float64()*2)
					m.SetF64(pzBase, i, rng.Float64()*2)
					m.SetF64(qBase, i, rng.Float64()*2-1)
				}
			},
			Launch:  gpusim.Launch{GridDim: npart / 128, BlockDim: 128},
			Outputs: []Region{{"out", outBase, npart, "f64"}},
		}
	},
}

// Libor walks forward rates across maturities with two cap conditions per
// step (LIBOR swap pathwise evaluation).
var Libor = &Benchmark{
	Name:         "libor",
	AppCodeBytes: 25000,
	AppCompileMs: 60,
	Category:     "Finance",
	CommandLine:  "100",
	KernelPct:    0.9999,
	Source: `
kernel libor(double* restrict L0, double* restrict out, long npaths, long nmat, double delta) {
  long gid = (long)global_id();
  if (gid >= npaths) { return; }
  double acc = 0.0;
  double lam = 0.2;
  for (long i = 0; i < nmat; i++) {
    double l = L0[i] + (double)gid * 0.000001;
    double con1 = delta * l;
    double v = con1 / (1.0 + con1);
    if (v > 0.4) { v = 0.4; }
    if (l > 0.05) {
      acc += v * lam;
    } else {
      acc -= v * lam;
    }
    lam *= 1.01;
  }
  out[gid] = exp(-acc);
}
`,
	NewWorkload: func() *Workload {
		const npaths, nmat = 2048, 80
		l0Base := int64(0)
		outBase := l0Base + 8*nmat
		return &Workload{
			Args: []interp.Value{interp.IntVal(l0Base), interp.IntVal(outBase),
				interp.IntVal(npaths), interp.IntVal(nmat), interp.FloatVal(0.25)},
			MemSize: outBase + 8*npaths,
			Init: func(m *interp.Memory) {
				rng := rand.New(rand.NewSource(20))
				for i := int64(0); i < nmat; i++ {
					m.SetF64(l0Base, i, 0.02+rng.Float64()*0.08)
				}
			},
			// The rate curve is shared by every path (divergence comes from
			// the per-thread rate offset), so noise is a reseeded curve.
			Noise: func(m *interp.Memory) {
				rng := rand.New(rand.NewSource(noiseSeed + 20))
				for i := int64(0); i < nmat; i++ {
					m.SetF64(l0Base, i, 0.02+rng.Float64()*0.08)
				}
			},
			Launch:  gpusim.Launch{GridDim: npaths / 128, BlockDim: 128},
			Outputs: []Region{{"out", outBase, npaths, "f64"}},
		}
	},
}

// Mandelbrot's escape loop has a compound exit condition; the && lowers to a
// nested branch, giving unmerge alone something to split — the one
// application where the paper measures unmerge ahead of u&u.
var Mandelbrot = &Benchmark{
	Name:         "mandelbrot",
	AppCodeBytes: 20000,
	AppCompileMs: 50,
	Category:     "CV and image processing",
	CommandLine:  "100",
	KernelPct:    0.1447,
	Source: `
kernel mandelbrot(int* restrict iters, long width, long height, long maxIter) {
  long gid = (long)global_id();
  if (gid >= width * height) { return; }
  long px = gid % width;
  long py = gid / width;
  double cr = -2.0 + 2.5 * (double)px / (double)width;
  double ci = -1.25 + 2.5 * (double)py / (double)height;
  double zr = 0.0;
  double zi = 0.0;
  long it = 0;
  while (it < maxIter && zr * zr + zi * zi < 4.0) {
    double t = zr * zr - zi * zi + cr;
    zi = 2.0 * zr * zi + ci;
    zr = t;
    it++;
  }
  iters[gid] = (int)it;
}
`,
	NewWorkload: func() *Workload {
		const width, height, maxIter = 64, 32, 64
		itersBase := int64(0)
		return &Workload{
			Args: []interp.Value{interp.IntVal(itersBase), interp.IntVal(width),
				interp.IntVal(height), interp.IntVal(maxIter)},
			MemSize: 4 * width * height,
			Launch:  gpusim.Launch{GridDim: width * height / 128, BlockDim: 128},
			Outputs: []Region{{"iters", itersBase, width * height, "i32"}},
		}
	},
}

// QTClustering counts neighborhood membership with a two-level condition
// (quality-threshold clustering candidate scan).
var QTClustering = &Benchmark{
	Name:         "qtclustering",
	AppCodeBytes: 25000,
	AppCompileMs: 55,
	Category:     "Machine learning",
	CommandLine:  "no CLI input",
	KernelPct:    0.9914,
	Source: `
kernel qtc(double* restrict pts, long* restrict counts, double* restrict sums, long n, double thr) {
  long gid = (long)global_id();
  if (gid >= n) { return; }
  double p = pts[gid];
  long count = 0;
  double acc = 0.0;
  for (long j = 0; j < n; j++) {
    double d = fabs(pts[j] - p);
    if (d < thr) {
      count++;
      acc += d;
    } else {
      if (d > 2.0 * thr) {
        acc -= 0.125;
      }
    }
  }
  counts[gid] = count;
  sums[gid] = acc;
}
`,
	NewWorkload: func() *Workload {
		const n = 1024
		ptsBase := int64(0)
		countsBase := ptsBase + 8*n
		sumsBase := countsBase + 8*n
		return &Workload{
			Args: []interp.Value{interp.IntVal(ptsBase), interp.IntVal(countsBase),
				interp.IntVal(sumsBase), interp.IntVal(n), interp.FloatVal(0.05)},
			MemSize: sumsBase + 8*n,
			Init: func(m *interp.Memory) {
				// Quantized sorted points: threads of a warp hold
				// near-duplicate candidates (feature-bucketed data), so the
				// threshold tests flip at almost the same scan position
				// across the warp.
				rng := rand.New(rand.NewSource(21))
				for i := int64(0); i < n; i++ {
					cluster := float64(i/32) * 0.0315
					m.SetF64(ptsBase, i, cluster+float64(i%32)*0.0001+rng.Float64()*0.0001)
				}
			},
			// White noise: unsorted, unclustered points, so the threshold
			// tests flip at uncorrelated scan positions across each warp.
			Noise: func(m *interp.Memory) {
				rng := rand.New(rand.NewSource(noiseSeed + 21))
				for i := int64(0); i < n; i++ {
					m.SetF64(ptsBase, i, rng.Float64()*1.1)
				}
			},
			Launch:  gpusim.Launch{GridDim: n / 128, BlockDim: 128},
			Outputs: []Region{{"counts", countsBase, n, "i64"}, {"sums", sumsBase, n, "f64"}},
		}
	},
}

// Quicksort runs a per-thread insertion sort over disjoint segments (the
// data-dependent inner while is the branchy hot loop, as in HeCBench's GPU
// quicksort partitions).
var Quicksort = &Benchmark{
	Name:         "quicksort",
	AppCodeBytes: 150000,
	AppCompileMs: 300,
	Category:     "Sorting",
	CommandLine:  "10 2048 2048",
	KernelPct:    0.8036,
	Source: `
kernel qsortk(double* restrict data, long nseg, long seglen) {
  long gid = (long)global_id();
  if (gid >= nseg) { return; }
  long base = gid * seglen;
  for (long i = base + 1; i < base + seglen; i++) {
    double key = data[i];
    long j = i - 1;
    while (j >= base && data[j] > key) {
      data[j + 1] = data[j];
      j--;
    }
    data[j + 1] = key;
  }
}
`,
	NewWorkload: func() *Workload {
		const nseg, seglen = 512, 48
		dataBase := int64(0)
		return &Workload{
			Args:    []interp.Value{interp.IntVal(dataBase), interp.IntVal(nseg), interp.IntVal(seglen)},
			MemSize: 8 * nseg * seglen,
			Init: func(m *interp.Memory) {
				rng := rand.New(rand.NewSource(22))
				for i := int64(0); i < nseg*seglen; i++ {
					m.SetF64(dataBase, i, rng.Float64()*1000)
				}
			},
			// Already i.i.d.; reseeded for the sweep.
			Noise: func(m *interp.Memory) {
				rng := rand.New(rand.NewSource(noiseSeed + 22))
				for i := int64(0); i < nseg*seglen; i++ {
					m.SetF64(dataBase, i, rng.Float64()*1000)
				}
			},
			Launch:  gpusim.Launch{GridDim: nseg / 128, BlockDim: 128},
			Outputs: []Region{{"data", dataBase, nseg * seglen, "f64"}},
		}
	},
}

// Rainflow is the paper's Listing 6: turning-point extraction whose
// condition outcomes imply which loads are redundant in the next iteration;
// u&u exposes them (inst_misc -77%, gld_throughput -17% in the paper).
var Rainflow = &Benchmark{
	Name:         "rainflow",
	AppCodeBytes: 4000,
	AppCompileMs: 15,
	Category:     "Simulation",
	CommandLine:  "100000 100",
	KernelPct:    0.9955,
	Source: `
kernel rainflow(double* restrict x, double* restrict y, long* restrict cnt, long m) {
  long gid = (long)global_id();
  long base = gid * m;
  long j = base;
  y[j] = x[base];
  for (long i = base + 1; i < base + m - 1; i++) {
    if (x[i] > y[j]) {
      if (x[i] > x[i + 1]) {
        j++;
        y[j] = x[i];
      }
    } else {
      if (x[i] < y[j]) {
        if (x[i] < x[i + 1]) {
          j++;
          y[j] = x[i];
        }
      }
    }
  }
  cnt[gid] = j - base;
}
`,
	NewWorkload: func() *Workload {
		const nthreads, m = 1024, 96
		xBase := int64(0)
		yBase := xBase + 8*nthreads*m
		cntBase := yBase + 8*nthreads*m
		return &Workload{
			Args: []interp.Value{interp.IntVal(xBase), interp.IntVal(yBase),
				interp.IntVal(cntBase), interp.IntVal(m)},
			MemSize: cntBase + 8*nthreads,
			Init: func(mm *interp.Memory) {
				// Load-history-like series: a shared smooth wave with a small
				// per-thread phase shift and mild noise, so threads of a warp
				// mostly agree on each turning point (real rainflow inputs
				// are auto-correlated stress histories, not white noise).
				rng := rand.New(rand.NewSource(23))
				for t := int64(0); t < nthreads; t++ {
					phase := float64(t%32) * 0.01
					for i := int64(0); i < m; i++ {
						v := 5 + 4*math.Sin(0.7*float64(i)+phase) + 0.3*rng.Float64()
						mm.SetF64(xBase, t*m+i, v)
					}
				}
			},
			// White noise: the deviation-#4 case proper — i.i.d. samples in
			// place of the auto-correlated stress history, so every lane's
			// turning-point tests fire independently.
			Noise: func(mm *interp.Memory) {
				rng := rand.New(rand.NewSource(noiseSeed + 23))
				for i := int64(0); i < nthreads*m; i++ {
					mm.SetF64(xBase, i, 1+rng.Float64()*8)
				}
			},
			Launch:  gpusim.Launch{GridDim: nthreads / 128, BlockDim: 128},
			Outputs: []Region{{"cnt", cntBase, nthreads, "i64"}, {"y", yBase, nthreads * m, "f64"}},
		}
	},
}

// XSBench is the paper's motivating example: the event-based macroscopic
// cross-section lookup whose binary-search loop (Listing 1) u&u speeds up by
// eliminating the subtraction and the select-driven data movement.
var XSBench = &Benchmark{
	Name:         "xsbench",
	AppCodeBytes: 200000,
	AppCompileMs: 400,
	Category:     "Simulation",
	CommandLine:  "-s small -m event",
	KernelPct:    0.8762,
	Source: `
kernel xsbench(double* restrict egrid, double* restrict xs, double* restrict results, long ngrid, long nlookups) {
  long gid = (long)global_id();
  if (gid >= nlookups) { return; }
  long h = (gid / 32) * 2654435761 + (gid % 32) * 37;
  if (h < 0) { h = 0 - h; }
  double quarry = (double)(h % 1000000) / 1000000.0;
  long lowerLimit = 0;
  long upperLimit = ngrid - 1;
  long length = upperLimit - lowerLimit;
  while (length > 1) {
    long mid = lowerLimit + length / 2;
    if (egrid[mid] > quarry) {
      upperLimit = mid;
    } else {
      lowerLimit = mid;
    }
    length = upperLimit - lowerLimit;
  }
  double e0 = egrid[lowerLimit];
  double e1 = egrid[lowerLimit + 1];
  double f = (quarry - e0) / (e1 - e0);
  results[gid] = xs[lowerLimit] * (1.0 - f) + xs[lowerLimit + 1] * f;
}
`,
	NewWorkload: func() *Workload {
		const ngrid, nlookups = 4096, 2048
		egridBase := int64(0)
		xsBase := egridBase + 8*ngrid
		resBase := xsBase + 8*ngrid
		return &Workload{
			Args: []interp.Value{interp.IntVal(egridBase), interp.IntVal(xsBase),
				interp.IntVal(resBase), interp.IntVal(ngrid), interp.IntVal(nlookups)},
			MemSize: resBase + 8*nlookups,
			Init: func(m *interp.Memory) {
				rng := rand.New(rand.NewSource(24))
				for i := int64(0); i < ngrid; i++ {
					m.SetF64(egridBase, i, float64(i)/float64(ngrid))
					m.SetF64(xsBase, i, rng.Float64())
				}
			},
			// Noise: a jittered (still sorted — binary search requires it)
			// energy grid instead of the uniform one, plus reseeded cross
			// sections; lookup coherence itself is thread-id-derived.
			Noise: func(m *interp.Memory) {
				rng := rand.New(rand.NewSource(noiseSeed + 24))
				for i := int64(0); i < ngrid; i++ {
					m.SetF64(egridBase, i, (float64(i)+rng.Float64()*0.9)/float64(ngrid))
					m.SetF64(xsBase, i, rng.Float64())
				}
			},
			Launch:  gpusim.Launch{GridDim: nlookups / 128, BlockDim: 128},
			Outputs: []Region{{"results", resBase, nlookups, "f64"}},
		}
	},
}
