package gpusim

import (
	"bytes"
	"testing"

	"uu/internal/interp"
	"uu/internal/pipeline"
)

func TestPolicyNamesRoundTrip(t *testing.T) {
	for k := PolicyKind(0); k < numPolicies; k++ {
		got, err := parsePolicy(k.String())
		if err != nil {
			t.Fatalf("parsePolicy(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("parsePolicy(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := parsePolicy("stackless"); err == nil {
		t.Errorf("parsePolicy accepted an unknown policy name")
	}
}

func TestDeviceRegistry(t *testing.T) {
	want := []string{"V100", "MinSPPC", "Vortex"}
	if got := DeviceNames(); len(got) != len(want) {
		t.Fatalf("DeviceNames() = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("DeviceNames() = %v, want %v", got, want)
			}
		}
	}
	// The lookup is case-insensitive; each registry entry carries the
	// policy its name promises.
	for name, pol := range map[string]PolicyKind{
		"v100":    PolicyIPDOM,
		"minsppc": PolicyMinSPPC,
		"VORTEX":  PolicyVortex,
	} {
		d, ok := DeviceByName(name)
		if !ok {
			t.Fatalf("DeviceByName(%q) not found", name)
		}
		if d.Config.Policy != pol {
			t.Errorf("device %s: policy %v, want %v", name, d.Config.Policy, pol)
		}
	}
	// MinSPPC shares every hardware constant with V100 so that comparing
	// the two isolates the divergence-management axis.
	mc, v := MinSPPC(), V100()
	mc.Policy = v.Policy
	if mc != v {
		t.Errorf("MinSPPC differs from V100 beyond the policy: %+v vs %+v", MinSPPC(), v)
	}
	if Vortex().WarpSize != 16 {
		t.Errorf("Vortex warp size = %d, want 16", Vortex().WarpSize)
	}
}

// badDeviceSpecs are specs ParseDevice must refuse.
var badDeviceSpecs = []string{
	"TPUv4",                  // unknown device
	"V100:warpsize=64",       // out of mask range
	"V100:warpsize=0",        // degenerate
	"V100:policy=stackless",  // unknown policy
	"V100:clockghz",          // missing value
	"V100:memloadlat=1",      // unknown key
	"V100:exec=threaded",     // the executor override went with the second executor
	"V100:numsms=eighty",     // bad int
	"V100:stallexposure=x.y", // bad float
	// Values the simulator divides by or sizes arrays from, and costs
	// and fractions outside their domain (DeviceConfig.Validate). The
	// first three used to panic inside a run; segmentbytes=-32 ran.
	"V100:segmentbytes=0",
	"V100:icachelineinstrs=0",
	"V100:icachelines=-1",
	"V100:segmentbytes=-32",
	"V100:icachelines=0",
	"V100:icachelines=1048577", // past the ceiling
	"V100:icachelineinstrs=-8",
	"V100:numsms=0",
	"V100:clockghz=0",
	"V100:clockghz=-1.38",
	"V100:clockghz=NaN",
	"V100:clockghz=Inf",
	"V100:memloadlatency=-1",
	"V100:memloadlatency=NaN",
	"V100:stallexposure=1.5",
	"V100:stallexposure=-0.1",
	"V100:stallexposure=NaN",
	"V100:itsoverlap=2",
	"V100:itsoverlap=NaN",
	"V100:mempertransaction=-2",
	"V100:icachemisscycles=-16",
	"V100:maxwarpsteps=-1",
	"Vortex:warpsize=8,segmentbytes=0", // a good override does not excuse a bad one
}

// goodDeviceSpecs are boundary specs ParseDevice must accept: validation
// rejects nothing that ran correctly before.
var goodDeviceSpecs = []string{
	"V100:segmentbytes=1",
	"V100:segmentbytes=48",
	"V100:icachelines=1,icachelineinstrs=1",
	"V100:icachelines=1048576",
	"MinSPPC:itsoverlap=0.5",
	"V100:itsoverlap=0,stallexposure=1",
	"V100:itsoverlap=1,stallexposure=0",
	"V100:memloadlatency=0,mempertransaction=0,icachemisscycles=0",
	"V100:maxwarpsteps=0",
	"Vortex:numsms=1,clockghz=0.001",
}

func TestParseDevice(t *testing.T) {
	cfg, name, err := ParseDevice("V100")
	if err != nil || name != "V100" || cfg != V100() {
		t.Fatalf("ParseDevice(V100) = %+v, %q, %v", cfg, name, err)
	}
	cfg, name, err = ParseDevice("Vortex:warpsize=8,icachelines=32,policy=ipdom")
	if err != nil {
		t.Fatalf("ParseDevice with overrides: %v", err)
	}
	if cfg.WarpSize != 8 || cfg.ICacheLines != 32 || cfg.Policy != PolicyIPDOM {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	if name != "Vortex:warpsize=8,icachelines=32,policy=ipdom" {
		t.Errorf("display name %q should carry the overrides", name)
	}

	for _, bad := range badDeviceSpecs {
		if _, _, err := ParseDevice(bad); err == nil {
			t.Errorf("ParseDevice(%q) succeeded, want error", bad)
		}
	}

	// Validation rejects nothing that ran correctly before: the registry,
	// boundary values, and non-power-of-two coalescing segments.
	for _, d := range Devices() {
		if err := d.Config.Validate(); err != nil {
			t.Errorf("registry device %s does not validate: %v", d.Name, err)
		}
	}
	for _, good := range goodDeviceSpecs {
		if _, _, err := ParseDevice(good); err != nil {
			t.Errorf("ParseDevice(%q): %v", good, err)
		}
	}
}

// TestParseDeviceNarrowWarpRuns checks that an override-narrowed warp
// actually executes divergent code correctly: the mask paths must hold for
// any width in [1, 32], not just the registry's 32 and 16.
func TestParseDeviceNarrowWarpRuns(t *testing.T) {
	p := build(t, policyDivSrc, pipeline.Options{Config: pipeline.Baseline})
	launch := Launch{GridDim: 2, BlockDim: 64}
	n := int64(launch.Threads())
	args := []interp.Value{interp.IntVal(0), interp.IntVal(n)}

	var refMem []byte
	for _, spec := range []string{"V100", "V100:warpsize=1", "V100:warpsize=7", "MinSPPC:warpsize=3", "Vortex:warpsize=5"} {
		cfg, _, err := ParseDevice(spec)
		if err != nil {
			t.Fatalf("ParseDevice(%q): %v", spec, err)
		}
		mem := interp.NewMemory(1 << 14)
		for i := int64(0); i < n; i++ {
			mem.SetF64(0, i, float64(i)*0.25)
		}
		m, err := Run(p, args, mem, launch, cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if m.Warps == 0 || m.ThreadInstrs == 0 {
			t.Errorf("%s: empty metrics %+v", spec, m)
		}
		if refMem == nil {
			refMem = mem.Data
			continue
		}
		if !bytes.Equal(mem.Data, refMem) {
			t.Errorf("%s: final memory differs from the 32-wide reference", spec)
		}
	}
}
