package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"uu/internal/bench"
	"uu/internal/pipeline"
)

// A workload seed only orders ops; it never chooses them. The driver takes a
// metric's spread across runs with different seeds, so a seed that changed
// what work is done would show up as noise. opDigest pins each op set.

// cell is one (app, config, loop, factor) measurement of the paper's
// campaign.
type cell struct {
	app    *bench.Benchmark
	opts   pipeline.Options
	loopID int // -1 for baseline and uu-heuristic
}

// tag is the cell's configuration for per-layer rows: the config name, with
// ".u<factor>" for the configurations that unroll.
func (c cell) tag() string {
	if c.opts.Factor > 0 {
		return fmt.Sprintf("%s.u%d", c.opts.Config, c.opts.Factor)
	}
	return string(c.opts.Config)
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s/loop%d", c.app.Name, c.tag(), c.loopID)
}

// sweepCells lists the campaign bench.RunExperiments runs with its default
// factors, in its order: per app the baseline, the heuristic, then per loop
// unmerge and unroll/uu at u = 2, 4, 8.
func sweepCells() []cell {
	var cells []cell
	for _, b := range bench.Suite {
		cells = append(cells,
			cell{b, pipeline.Options{Config: pipeline.Baseline}, -1},
			cell{b, pipeline.Options{Config: pipeline.UUHeuristic}, -1})
		for loop := 0; loop < bench.LoopCount(b); loop++ {
			cells = append(cells, cell{b, pipeline.Options{Config: pipeline.UnmergeOnly, LoopID: loop}, loop})
			for _, u := range []int{2, 4, 8} {
				cells = append(cells,
					cell{b, pipeline.Options{Config: pipeline.UnrollOnly, LoopID: loop, Factor: u}, loop},
					cell{b, pipeline.Options{Config: pipeline.UU, LoopID: loop, Factor: u}, loop})
			}
		}
	}
	return cells
}

// simDevices are the device specs the simulate workload runs every program
// on, one per divergence policy, with the policy's name for per-layer rows.
var simDevices = []struct{ spec, policy string }{
	{"V100", "ipdom"},
	{"MinSPPC", "minsppc"},
	{"Vortex", "vortex"},
}

// simConfigs are the two programs compiled per app.
var simConfigs = []pipeline.Config{pipeline.Baseline, pipeline.UUHeuristic}

// simOp is one execution of the simulate workload: program prog (an index
// into the app-major, config-minor program list) on device dev.
type simOp struct{ prog, dev int }

func (o simOp) String() string {
	return fmt.Sprintf("%s/%s/%s", bench.Suite[o.prog/len(simConfigs)].Name, simConfigs[o.prog%len(simConfigs)], simDevices[o.dev].spec)
}

func simOps() []simOp {
	var ops []simOp
	for p := 0; p < len(bench.Suite)*len(simConfigs); p++ {
		for d := range simDevices {
			ops = append(ops, simOp{p, d})
		}
	}
	return ops
}

// zipfS is the exponent of the serve-hot key popularity: rank r is requested
// in proportion to r^-1.1, so the hottest key takes about a fifth of the
// traffic and the coldest of 192 a few dozen requests.
const zipfS = 1.1

// zipfRankSeed fixes which key holds which popularity rank. Keys differ in
// cost (a group C response is ~100x a group E one), so a per-run draw of the
// ranking would change the work done; see the note at the top of this file.
const zipfRankSeed = 20240302

// zipfCounts splits total requests over n ranks in proportion to
// rank^-zipfS, by largest remainder, so the counts are the same on every run
// and add up to total.
func zipfCounts(n, total int) []int {
	weights := make([]float64, n)
	norm := 0.0
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -zipfS)
		norm += weights[r]
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	given := 0
	for r, w := range weights {
		share := w / norm * float64(total)
		counts[r] = int(share)
		rem[r] = share - float64(counts[r])
		given += counts[r]
	}
	order := make([]int, n)
	for r := range order {
		order[r] = r
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, r := range order[:total-given] {
		counts[r]++
	}
	return counts
}

// hotSequence returns the key index of each of total requests: a multiset
// fixed by zipfCounts and the fixed rank-to-key assignment, in an order
// drawn from seed.
func hotSequence(nKeys, total int, seed int64) []int {
	keyOfRank := rand.New(rand.NewSource(zipfRankSeed)).Perm(nKeys)
	seq := make([]int, 0, total)
	for rank, c := range zipfCounts(nKeys, total) {
		for i := 0; i < c; i++ {
			seq = append(seq, keyOfRank[rank])
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// opDigest is a short order-independent digest of an op list.
func opDigest[T fmt.Stringer](ops []T) string {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.String()
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintln(h, n)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
