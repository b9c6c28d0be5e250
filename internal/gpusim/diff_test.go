package gpusim_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"uu/internal/bench"
	"uu/internal/codegen"
	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/harden"
	"uu/internal/interp"
	"uu/internal/ir"
	"uu/internal/irparse"
	"uu/internal/lang"
	"uu/internal/pipeline"
)

// diffAgainstReference runs prog once on the production executor and once on
// the reference core (refcore_test.go), each on its own memory from newMem,
// and requires identical metrics, per-PC profile, final memory and — when
// the run fails — error text. profiled selects whether both runs carry a
// profile: a nil profile is what steers the production core down its
// steady-state loop, so callers cover both.
func diffAgainstReference(t *testing.T, name string, prog *codegen.Program, args []interp.Value, newMem func() *interp.Memory, launch gpusim.Launch, cfg gpusim.DeviceConfig, profiled bool) {
	t.Helper()
	var prof, refProf *gpusim.Profile
	if profiled {
		prof, refProf = gpusim.NewProfile(prog), gpusim.NewProfile(prog)
	}
	mem, refMem := newMem(), newMem()
	m, err := gpusim.RunCtx(context.Background(), prog, args, mem, launch, cfg, prof)
	refM, refErr := gpusim.RunReference(prog, args, refMem, launch, cfg, refProf)
	if err != nil || refErr != nil {
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("%s: errors differ:\n      got: %v\nreference: %v", name, err, refErr)
		}
		return
	}
	if *m != *refM {
		t.Errorf("%s: metrics differ:\n      got: %+v\nreference: %+v", name, *m, *refM)
	}
	if !reflect.DeepEqual(prof, refProf) {
		t.Errorf("%s: profiles differ", name)
	}
	if !bytes.Equal(mem.Data, refMem.Data) {
		i := 0
		for mem.Data[i] == refMem.Data[i] {
			i++
		}
		t.Errorf("%s: memory differs at byte %d: got %#x, reference %#x", name, i, mem.Data[i], refMem.Data[i])
	}
}

// TestExecutorDifferential holds the production executor to the reference
// core over the golden corpus's cells (16 apps x the golden configurations)
// on every divergence policy and a narrow warp: not one bit of metrics,
// per-PC profile or final device memory may differ. The golden corpora pin
// the simulator against history; this pins its specialized closures, bulk
// accounting and steady-state loop against the plain definition of the
// machine, on every cell.
func TestExecutorDifferential(t *testing.T) {
	configs := []pipeline.Options{
		{Config: pipeline.Baseline},
		{Config: pipeline.UnrollOnly, LoopID: 0, Factor: 2},
		{Config: pipeline.UnmergeOnly, LoopID: 0},
		{Config: pipeline.UU, LoopID: 0, Factor: 2},
		{Config: pipeline.UUHeuristic},
		{Config: pipeline.UUHeuristic, Unmerge: core.Options{Selective: true}},
	}
	devs := testDevices(t)
	for _, b := range bench.Suite {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for ci, opts := range configs {
				cr, err := bench.Compile(b, opts)
				if err != nil {
					continue // which cells compile is the golden VPTX corpus's business
				}
				w := b.NewWorkload()
				for di, cfg := range devs {
					name := fmt.Sprintf("%s/%s#%d/%s", b.Name, opts.Config, ci, testSpecs[di])
					// Profiled — over the whole grid on V100, its first 32
					// warps elsewhere (the reference is slow, more so under
					// -race) — then unprofiled over a few warps for the
					// steady-state loop.
					grid := w.Launch
					if di != 0 {
						grid.SampleWarps = 32
					}
					diffAgainstReference(t, name, cr.Program, w.Args, w.NewMemory, grid, cfg, true)
					few := w.Launch
					few.SampleWarps = 8
					diffAgainstReference(t, name+"/unprofiled", cr.Program, w.Args, w.NewMemory, few, cfg, false)
				}
			}
		})
	}
}

// opsKernel is a MiniCU kernel that executes every scalar operation the
// language can spell at type typ, each once on the warp's full mask and once
// on its odd lanes only, and stores every result. No suite or generated
// kernel executes, say, a 32-bit xor or an sge against an immediate on a
// partial mask; this one does, so each specialized closure's two lane loops,
// each generic loop, and the swapped sources of sgt and sge (with the pooled
// immediate in either slot) meet the reference.
func opsKernel(typ string) string {
	exprs := []string{"x + y", "x - y", "x * y", "x / y"}
	if typ == "int" || typ == "long" {
		exprs = append(exprs, "x % y", "x & y", "x | y", "x ^ y", "x << (y & 7)", "x >> (y & 7)", "min(x, y)", "max(x, y)",
			"("+typ+")((float)x * 0.5)", "("+typ+")((double)y)", "("+typ+")((int)x + (long)y)")
	} else {
		exprs = append(exprs, "fmin(x, y)", "fmax(x, y)", "sqrt(fabs(x))", "exp(y * 0.125)", "log(y)", "sin(x)", "cos(x)", "floor(x * 0.3)",
			"("+typ+")((int)x)", "("+typ+")((long)(y * 1000.0))", "("+typ+")((float)x + (double)y)")
	}
	for _, cmp := range []string{"<", "<=", ">", ">=", "==", "!="} {
		exprs = append(exprs, "("+typ+")(x "+cmp+" y)")
	}
	for _, e := range []string{"x > 3", "x >= 3", "3 > y", "3 >= y"} {
		exprs = append(exprs, "("+typ+")("+e+")")
	}
	var body, masked bytes.Buffer
	for i, e := range exprs {
		fmt.Fprintf(&body, "  { %s x = a; %s y = b; out[g * %d + %d] = %s; }\n", typ, typ, 2*len(exprs), i, e)
		fmt.Fprintf(&masked, "    { %s x = c; %s y = d; out[g * %d + %d] = %s; }\n", typ, typ, 2*len(exprs), len(exprs)+i, e)
	}
	return fmt.Sprintf(`
kernel ops_%[1]s(%[1]s* restrict out) {
  long g = (long)global_id();
  %[1]s a = (%[1]s)(g * 7 - 50);
  %[1]s b = (%[1]s)(g %% 13 + 1);
%[2]s  if ((g & 1) != 0) {
    %[1]s c = a - b;
    %[1]s d = b + (%[1]s)5;
%[3]s  }
}
`, typ, body.String(), masked.String())
}

// unsignedOpsIR is opsKernel for what MiniCU cannot spell — logical shift
// right, unsigned division, remainder and compares — as textual IR at the
// given integer width.
func unsignedOpsIR(bits int) string {
	typ := fmt.Sprintf("i%d", bits)
	conv := func(dst, src string) string {
		if bits == 64 {
			return fmt.Sprintf("  %s = add i64 %s, i64 0\n", dst, src)
		}
		return fmt.Sprintf("  %s = trunc i64 %s to %s\n", dst, src, typ)
	}
	ops := []string{"lshr", "udiv", "urem", "icmp ult", "icmp ule", "icmp ugt", "icmp uge"}
	block := func(tag, x, y string, base int) string {
		var sb strings.Builder
		for i, op := range ops {
			r := fmt.Sprintf("%%%s.r%d", tag, i)
			fmt.Fprintf(&sb, "  %s = %s %s %s, %s %s\n", r, op, typ, x, typ, y)
			if strings.HasPrefix(op, "icmp") {
				fmt.Fprintf(&sb, "  %sz = zext i1 %s to %s\n", r, r, typ)
				r += "z"
			}
			fmt.Fprintf(&sb, "  %%%s.i%d = add i64 %%slot, i64 %d\n  %%%s.p%d = gep %s* %%out, i64 %%%s.i%d\n  store %s %s, %s* %%%s.p%d\n",
				tag, i, base+i, tag, i, typ, tag, i, typ, r, typ, tag, i)
		}
		return sb.String()
	}
	return "func @uops_" + typ + "(" + typ + "* noalias %out) {\nentry:\n" +
		"  %cta = ctaid\n  %nt = ntid\n  %t = tid\n  %m = mul i32 %cta, i32 %nt\n  %g32 = add i32 %m, i32 %t\n  %g = sext i32 %g32 to i64\n" +
		fmt.Sprintf("  %%slot = mul i64 %%g, i64 %d\n", 2*len(ops)) +
		"  %a7 = mul i64 %g, i64 7\n  %a64 = sub i64 %a7, i64 50\n  %b13 = srem i64 %g, i64 13\n  %b64 = add i64 %b13, i64 1\n" +
		conv("%a", "%a64") + conv("%b", "%b64") + block("f", "%a", "%b", 0) +
		"  %odd = and i64 %g, i64 1\n  %c = icmp ne i64 %odd, i64 0\n  condbr i1 %c, %then, %end\nthen:\n" +
		fmt.Sprintf("  %%d = add %s %%b, %s 5\n", typ, typ) + block("m", "%b", "%d", len(ops)) + block("n", "%a", "%d", 0) +
		"  br %end\nend:\n  ret\n}\n"
}

// selectOpsIR is the select opsKernel cannot reach — MiniCU's conditionals
// become selects only under if-conversion — as textual IR at scalar type
// typ: three selects (both operands registers, and a pooled immediate on
// either side) whose condition is true on every third lane, each on the
// full mask and on the odd lanes only.
func selectOpsIR(typ string) string {
	conv := func(dst, src string) string {
		switch typ {
		case "i64":
			return fmt.Sprintf("  %s = add i64 %s, i64 0\n", dst, src)
		case "i32":
			return fmt.Sprintf("  %s = trunc i64 %s to i32\n", dst, src)
		}
		return fmt.Sprintf("  %s = sitofp i64 %s to %s\n", dst, src, typ)
	}
	imm := "9"
	if typ[0] == 'f' {
		imm = "2.5"
	}
	block := func(tag, x, y string, base int) string {
		var sb strings.Builder
		for i, ops := range [][2]string{{x, y}, {y, imm}, {imm, x}} {
			fmt.Fprintf(&sb, "  %%%s.r%d = select i1 %%c, %s %s, %s %s\n", tag, i, typ, ops[0], typ, ops[1])
			fmt.Fprintf(&sb, "  %%%s.i%d = add i64 %%slot, i64 %d\n  %%%s.p%d = gep %s* %%out, i64 %%%s.i%d\n  store %s %%%s.r%d, %s* %%%s.p%d\n",
				tag, i, base+i, tag, i, typ, tag, i, typ, tag, i, typ, tag, i)
		}
		return sb.String()
	}
	return "func @sel_" + typ + "(" + typ + "* noalias %out) {\nentry:\n" +
		"  %cta = ctaid\n  %nt = ntid\n  %t = tid\n  %m = mul i32 %cta, i32 %nt\n  %g32 = add i32 %m, i32 %t\n  %g = sext i32 %g32 to i64\n" +
		"  %slot = mul i64 %g, i64 6\n  %a7 = mul i64 %g, i64 7\n  %a64 = sub i64 %a7, i64 50\n  %b13 = srem i64 %g, i64 13\n  %b64 = add i64 %b13, i64 1\n" +
		conv("%a", "%a64") + conv("%b", "%b64") +
		"  %r3 = srem i64 %g, i64 3\n  %c = icmp eq i64 %r3, i64 0\n" + block("f", "%a", "%b", 0) +
		"  %odd = and i64 %g, i64 1\n  %oc = icmp ne i64 %odd, i64 0\n  condbr i1 %oc, %then, %end\nthen:\n" +
		block("m", "%b", "%a", 3) + "  br %end\nend:\n  ret\n}\n"
}

// TestExecutorDifferentialOps is the comparison one operation at a time
// (opsKernel, unsignedOpsIR, selectOpsIR), at every scalar type, on every
// divergence policy.
func TestExecutorDifferentialOps(t *testing.T) {
	launch := gpusim.Launch{GridDim: 2, BlockDim: 40} // a partial last warp
	progs := map[string]*codegen.Program{}
	lower := func(name string, f *ir.Function, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if progs[name], err = codegen.Lower(f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, typ := range []string{"int", "long", "float", "double"} {
		f, err := lang.CompileKernel(opsKernel(typ))
		if err == nil {
			_, err = pipeline.Optimize(f, pipeline.Options{Config: pipeline.Baseline, DisableIfConvert: true})
		}
		lower(typ, f, err)
	}
	for _, bits := range []int{32, 64} {
		f, err := irparse.ParseFunc(unsignedOpsIR(bits))
		if err == nil {
			err = ir.Verify(f)
		}
		lower(fmt.Sprintf("unsigned%d", bits), f, err)
	}
	for _, typ := range []string{"i32", "i64", "f32", "f64"} {
		f, err := irparse.ParseFunc(selectOpsIR(typ))
		if err == nil {
			err = ir.Verify(f)
		}
		lower("select-"+typ, f, err)
	}
	newMem := func() *interp.Memory { return interp.NewMemory(64 << 10) }
	devs := testDevices(t)
	for pname, prog := range progs {
		for di, cfg := range devs {
			for _, profiled := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/profiled=%t", pname, testSpecs[di], profiled)
				diffAgainstReference(t, name, prog, []interp.Value{interp.IntVal(0)}, newMem, launch, cfg, profiled)
			}
		}
	}
}

// TestExecutorDifferentialFuzz is the same comparison over generated
// kernels on every divergence policy, under the fuzz campaign's step budget.
// Odd seeds run the full heuristic pipeline, so the executor sees unrolled
// and unmerged control flow, not just generator shapes, and carry a profile;
// even seeds run unprofiled.
func TestExecutorDifferentialFuzz(t *testing.T) {
	devs := map[string]gpusim.DeviceConfig{"ipdom": gpusim.V100(), "minsppc": gpusim.MinSPPC(), "vortex": gpusim.Vortex()}
	for seed := int64(1); seed <= 200; seed++ {
		k := harden.Generate(seed)
		opts := pipeline.Options{Config: pipeline.Baseline}
		if seed%2 == 1 {
			opts.Config = pipeline.UUHeuristic
		}
		f := ir.Clone(k.F)
		if _, err := pipeline.Optimize(f, opts); err != nil {
			t.Fatalf("seed %d: optimize: %v", seed, err)
		}
		prog, err := codegen.Lower(f)
		if err != nil {
			t.Fatalf("seed %d: codegen: %v", seed, err)
		}
		args := make([]interp.Value, len(k.Args))
		for i, a := range k.Args {
			args[i] = interp.IntVal(a)
		}
		newMem := func() *interp.Memory {
			mem := interp.NewMemory(k.MemSize)
			for i, v := range k.F64Init {
				mem.SetF64(k.In0Base, int64(i), v)
			}
			for i, v := range k.I64Init {
				mem.SetI64(k.In1Base, int64(i), v)
			}
			return mem
		}
		launch := gpusim.Launch{GridDim: k.GridDim, BlockDim: k.BlockDim}
		for pol, cfg := range devs {
			cfg.MaxWarpSteps = 1 << 22
			name := fmt.Sprintf("seed %d %s (%s)", seed, pol, opts.Config)
			diffAgainstReference(t, name, prog, args, newMem, launch, cfg, seed%2 == 1)
		}
	}
}
