// Package corpus is the input the differential tests share: the suite's
// kernels, generated kernels and the hand-written edge cases under edge/,
// each in the canonical form pipeline.Canonicalize makes, and on request
// every loop of each after u&u at each of Factors. Only tests import it.
package corpus

import (
	"embed"
	"fmt"

	"uu/internal/analysis"
	"uu/internal/bench"
	"uu/internal/core"
	"uu/internal/harden"
	"uu/internal/ir"
	"uu/internal/irparse"
	"uu/internal/pipeline"
)

// Spec selects a corpus. The suite's kernels are always in it.
type Spec struct {
	Seeds     int64 // adds the kernels harden.Generate makes from seeds 1..Seeds
	EdgeCases bool  // adds the edge cases
	MaxBlocks int   // caps u&u of the kernels not generated (0: core.DefaultMaxBlocks)
}

// GeneratedMaxBlocks caps u&u of the generated kernels: the map-based
// oracles cost O(blocks) map inserts per unmerging round over O(blocks)
// rounds, and there are hundreds of generated kernels.
const GeneratedMaxBlocks = 512

// Factors are the unroll factors Cases expands every loop at.
var Factors = []int{2, 4, 8}

// Kernel is one kernel of a corpus in canonical form. F is the visitor's,
// but Cases copies it: mutate it only after the last call to Cases.
type Kernel struct {
	Name  string
	F     *ir.Function
	Loops *analysis.LoopInfo // numbered as pipeline.Options.LoopID numbers them
	Seed  int64              // a generated kernel's seed, 0 for the others
	Opts  core.Options       // the block cap Cases transforms under
}

// Case is one loop of a kernel after u&u at factor U: F is a copy of the
// kernel after core.UnrollAndUnmerge, and Err its error (a loop u&u
// refuses is a case too).
type Case struct {
	Name    string
	Loop, U int
	F       *ir.Function
	Err     error
}

//go:embed edge/*.ir
var edge embed.FS

// Kernels calls visit with each kernel spec selects, one at a time: the
// suite in order, the generated kernels by seed, then the edge cases.
func Kernels(spec Spec, visit func(k *Kernel)) {
	opts := core.Options{MaxBlocks: spec.MaxBlocks}
	for _, b := range bench.Suite {
		visit(canonical(b.Kernel(), 0, opts))
	}
	for seed := int64(1); seed <= spec.Seeds; seed++ {
		visit(canonical(harden.Generate(seed).F, seed, core.Options{MaxBlocks: GeneratedMaxBlocks}))
	}
	files, _ := edge.ReadDir("edge") // embedded at build time: cannot fail
	for i := 0; spec.EdgeCases && i < len(files); i++ {
		src, _ := edge.ReadFile("edge/" + files[i].Name())
		f, err := irparse.ParseFunc(string(src))
		if err != nil {
			panic(fmt.Sprintf("corpus: %s: %v", files[i].Name(), err))
		}
		visit(canonical(f, 0, opts))
	}
}

func canonical(f *ir.Function, seed int64, opts core.Options) *Kernel {
	return &Kernel{Name: f.Name, F: f, Loops: pipeline.Canonicalize(f), Seed: seed, Opts: opts}
}

// Cases calls visit with every (loop, factor) case of k, loops by ID.
func (k *Kernel) Cases(visit func(c *Case)) {
	for id := range k.Loops.Loops {
		for _, u := range Factors {
			g := ir.Clone(k.F)
			_, err := core.UnrollAndUnmerge(g, id, u, k.Opts)
			visit(&Case{fmt.Sprintf("%s loop %d u=%d", k.Name, id, u), id, u, g, err})
		}
	}
}
