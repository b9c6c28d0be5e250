package gpusim

import (
	"errors"
	"testing"

	"uu/internal/interp"
	"uu/internal/pipeline"
)

// FuzzParseDevice holds ParseDevice to its contract on any spec: it never
// panics, and a spec it accepts validates, names itself by a spec that
// parses back to the same DeviceConfig and the same name, and runs a
// one-warp kernel to metrics or an error.
func FuzzParseDevice(f *testing.F) {
	for _, name := range DeviceNames() {
		f.Add(name)
	}
	for _, spec := range badDeviceSpecs {
		f.Add(spec)
	}
	for _, spec := range goodDeviceSpecs {
		f.Add(spec)
	}
	f.Add("Vortex:warpsize=8,icachelines=32,policy=ipdom")
	f.Add(" v100 : warpsize = 7 , maxwarpsteps = 3 ")
	p := build(f, policyDivSrc, pipeline.Options{Config: pipeline.Baseline})

	f.Fuzz(func(t *testing.T, spec string) {
		cfg, name, err := ParseDevice(spec)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseDevice(%q) accepted a config that does not validate: %v", spec, err)
		}
		again, againName, err := ParseDevice(name)
		if err != nil {
			t.Fatalf("ParseDevice(%q) named it %q, which does not parse: %v", spec, name, err)
		}
		if again != cfg || againName != name {
			t.Fatalf("ParseDevice(%q) = %+v named %q, but its name parses to %+v named %q", spec, cfg, name, again, againName)
		}
		launch := Launch{GridDim: 1, BlockDim: cfg.WarpSize}
		mem := interp.NewMemory(8 * 32)
		args := []interp.Value{interp.IntVal(0), interp.IntVal(int64(cfg.WarpSize))}
		m, err := Run(p, args, mem, launch, cfg)
		if err != nil {
			if !errors.Is(err, ErrCycleBudget) {
				t.Fatalf("%s: %v", name, err)
			}
			return
		}
		if m.Warps != 1 {
			t.Fatalf("%s: one-warp launch simulated %d warps", name, m.Warps)
		}
	})
}
