package serve

import (
	"fmt"
	"math/rand"
	"testing"

	"uu/internal/bench"
	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/harden"
	"uu/internal/ir"
	"uu/internal/irparse"
	"uu/internal/pipeline"
)

// TestCanonicalIRFixedPointSuite runs the print→parse→print property over
// the real kernel corpus: every suite benchmark's IR must canonicalize,
// parse back, and reprint byte-identically (CanonicalIR asserts the fixed
// point internally; this test pins that it holds for production kernels,
// not just generated ones).
func TestCanonicalIRFixedPointSuite(t *testing.T) {
	for _, b := range bench.Suite {
		f, err := b.CompileKernel()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		canon, err := CanonicalIR(f)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		// Idempotence: canonicalizing the canonical form is the identity.
		rt, err := irparse.ParseFunc(canon)
		if err != nil {
			t.Fatalf("%s: reparse: %v", b.Name, err)
		}
		again, err := CanonicalIR(rt)
		if err != nil {
			t.Fatalf("%s: re-canonicalize: %v", b.Name, err)
		}
		if again != canon {
			t.Fatalf("%s: CanonicalIR is not idempotent", b.Name)
		}
	}
}

// TestCanonicalIRFixedPointGenerated runs the same property over 200
// generated kernels — the adversarial half of the corpus, covering CFG
// shapes the suite never produces.
func TestCanonicalIRFixedPointGenerated(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		k := harden.Generate(seed)
		canon, err := CanonicalIR(k.F)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rt, err := irparse.ParseFunc(canon)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		if rt.String() != canon {
			t.Fatalf("seed %d: print->parse->print not a fixed point", seed)
		}
	}
}

// TestShuffledNamesHashEqual is the cache-correctness property: renaming
// every value, block, and parameter must not change the fingerprint, so a
// duplicate submission whose frontend happened to pick different temps
// still coalesces onto the same cache entry.
func TestShuffledNamesHashEqual(t *testing.T) {
	dev := gpusim.V100()
	launch := gpusim.Launch{GridDim: 2, BlockDim: 32}
	opts := pipeline.Options{Config: pipeline.UU, Factor: 2}
	for seed := int64(1); seed <= 25; seed++ {
		k := harden.Generate(seed)
		canon1, err := CanonicalIR(k.F)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		key1 := Fingerprint(canon1, opts, dev, launch, k.MemSize, k.Args, "", "", false)

		// Shuffle every name on a clone.
		rng := rand.New(rand.NewSource(seed * 7919))
		c := ir.Clone(k.F)
		c.Name = fmt.Sprintf("renamed%d", rng.Intn(1000))
		for _, p := range c.Params {
			p.Name = fmt.Sprintf("arg%d_%d", p.Index, rng.Intn(1000))
		}
		for i, b := range c.Blocks() {
			b.Name = fmt.Sprintf("blk%d_%d", i, rng.Intn(1000))
		}
		vn := 0
		for _, b := range c.Blocks() {
			for _, in := range b.Instrs() {
				if in.Type() != ir.Void {
					in.SetName(fmt.Sprintf("x%d_%d", vn, rng.Intn(1000)))
					vn++
				}
			}
		}
		canon2, err := CanonicalIR(c)
		if err != nil {
			t.Fatalf("seed %d: shuffled: %v", seed, err)
		}
		if canon2 != canon1 {
			t.Fatalf("seed %d: canonical IR differs under renaming:\n%s\nvs\n%s", seed, canon1, canon2)
		}
		key2 := Fingerprint(canon2, opts, dev, launch, k.MemSize, k.Args, "", "", false)
		if key2 != key1 {
			t.Fatalf("seed %d: fingerprint differs under renaming", seed)
		}
	}
}

// TestFingerprintSensitivity pins what the key covers: semantic inputs
// (config, factor, device model, launch, args, chaos, artifact selection)
// change the key.
func TestFingerprintSensitivity(t *testing.T) {
	k := harden.Generate(3)
	canon, err := CanonicalIR(k.F)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.V100()
	launch := gpusim.Launch{GridDim: 2, BlockDim: 32}
	opts := pipeline.Options{Config: pipeline.UU, Factor: 2}
	base := Fingerprint(canon, opts, dev, launch, k.MemSize, k.Args, "", "", false)

	vary := map[string]string{}
	o2 := opts
	o2.Factor = 4
	vary["factor"] = Fingerprint(canon, o2, dev, launch, k.MemSize, k.Args, "", "", false)
	o3 := opts
	o3.Config = pipeline.Baseline
	vary["config"] = Fingerprint(canon, o3, dev, launch, k.MemSize, k.Args, "", "", false)
	vary["device"] = Fingerprint(canon, opts, gpusim.MinSPPC(), launch, k.MemSize, k.Args, "", "", false)
	vary["launch"] = Fingerprint(canon, opts, dev, gpusim.Launch{GridDim: 4, BlockDim: 32}, k.MemSize, k.Args, "", "", false)
	vary["chaos"] = Fingerprint(canon, opts, dev, launch, k.MemSize, k.Args, "panic", "", false)
	vary["profile"] = Fingerprint(canon, opts, dev, launch, k.MemSize, k.Args, "", "", true)
	for dim, key := range vary {
		if key == base {
			t.Errorf("varying %s did not change the fingerprint", dim)
		}
	}
}

// TestFingerprintHeuristicSensitivity pins the PGO-relevant half of the key:
// the resolved per-loop override set, the selective mode, and the C/UMax
// knobs all fork the cache entry, while a request spelling the paper defaults
// explicitly shares the entry of one omitting them (the pipeline treats them
// identically, so the cache must too).
func TestFingerprintHeuristicSensitivity(t *testing.T) {
	k := harden.Generate(3)
	canon, err := CanonicalIR(k.F)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.V100()
	launch := gpusim.Launch{GridDim: 2, BlockDim: 32}
	fp := func(opts pipeline.Options) string {
		return Fingerprint(canon, opts, dev, launch, k.MemSize, k.Args, "", "", false)
	}
	opts := pipeline.Options{Config: pipeline.UUHeuristic}
	base := fp(opts)

	explicit := opts
	explicit.Heuristic = core.DefaultHeuristicParams() // C=1024, UMax=8 spelled out
	if fp(explicit) != base {
		t.Errorf("explicit paper defaults fork the cache entry; they resolve identically and must share it")
	}
	emptyOv := opts
	emptyOv.Heuristic.Overrides = map[int32]core.LoopOverride{}
	if fp(emptyOv) != base {
		t.Errorf("an empty override set fork the cache entry")
	}

	vary := map[string]pipeline.Options{}
	o := opts
	o.Heuristic.C = 512
	vary["heuristic-c"] = o
	o = opts
	o.Heuristic.UMax = 4
	vary["heuristic-umax"] = o
	o = opts
	o.Heuristic.SkipDivergent = true
	vary["skip-divergent"] = o
	o = opts
	o.Heuristic.Selective = true
	vary["selective"] = o
	o = opts
	o.Heuristic.Overrides = map[int32]core.LoopOverride{10: {Deny: true}}
	vary["override-deny"] = o
	o = opts
	o.Heuristic.Overrides = map[int32]core.LoopOverride{10: {Force: true, FactorCap: 2}}
	vary["override-force"] = o

	seen := map[string]string{base: "base"}
	for dim, vo := range vary {
		key := fp(vo)
		if prev, dup := seen[key]; dup {
			t.Errorf("varying %s collides with %s", dim, prev)
		}
		seen[key] = dim
	}
}
