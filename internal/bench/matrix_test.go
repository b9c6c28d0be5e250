package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"uu/internal/gpusim"
	"uu/internal/pipeline"
)

// TestNoiseGenerators checks the white-noise input dimension across the
// suite: every benchmark except the thread-id-derived ones (complex,
// mandelbrot) has a Noise generator, selecting it actually changes the
// initial memory, and selecting it on an input-invariant workload is a
// no-op.
func TestNoiseGenerators(t *testing.T) {
	inputInvariant := map[string]bool{"complex": true, "mandelbrot": true}
	for _, b := range Suite {
		w := b.NewWorkload()
		if inputInvariant[b.Name] {
			if w.Noise != nil {
				t.Errorf("%s: thread-id-derived inputs should have no Noise generator", b.Name)
			}
			w.SetInput(InputNoise)
			continue
		}
		if w.Noise == nil {
			t.Errorf("%s: missing Noise generator", b.Name)
			continue
		}
		coherent := w.NewMemory()
		w.SetInput(InputNoise)
		noise := w.NewMemory()
		if bytes.Equal(coherent.Data, noise.Data) {
			t.Errorf("%s: noise input mode produced the same memory as coherent", b.Name)
		}
	}
	if _, err := ParseInputMode("noise"); err != nil {
		t.Errorf("ParseInputMode(noise): %v", err)
	}
	if _, err := ParseInputMode("gaussian"); err == nil {
		t.Errorf("ParseInputMode accepted an unknown mode")
	}
}

// TestNoiseModeVerifies checks the correctness contract of the input
// dimension: the interpreter oracle is built from the same (swapped) Init,
// so simulated noise runs still verify.
func TestNoiseModeVerifies(t *testing.T) {
	b := ByName("rainflow")
	w := b.NewWorkload()
	w.SetInput(InputNoise)
	ref, err := Reference(b, w)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Compile(b, pipeline.Options{Config: pipeline.UUHeuristic})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(cr, w, mustDevice(t, "V100"), ref); err != nil {
		t.Fatalf("noise-mode run failed verification: %v", err)
	}
}

// TestRunMatrix runs a small device × input matrix end to end and checks
// the report: per-sweep figure tables, the robustness verdict table, and
// the complex fetch-stall cross-check.
func TestRunMatrix(t *testing.T) {
	mx, err := RunMatrixCtx(context.Background(), MatrixOptions{
		Harness: HarnessOptions{
			Apps:    []string{"complex", "rainflow"},
			Factors: []int{2},
		},
		Devices: []string{"V100", "Vortex:itsoverlap=0.5"},
		Inputs:  InputModes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mx.Sweeps) != 4 {
		t.Fatalf("got %d sweeps, want 4 (2 devices x 2 inputs)", len(mx.Sweeps))
	}
	if mx.Sweeps[1].DeviceName != "V100" || mx.Sweeps[1].Input != InputNoise {
		t.Errorf("sweep order wrong: %+v", mx.Sweeps[1])
	}
	if mx.Sweeps[2].DeviceName != "Vortex:itsoverlap=0.5" {
		t.Errorf("override spec lost from sweep name: %q", mx.Sweeps[2].DeviceName)
	}

	verdicts := mx.Verdicts()
	if len(verdicts) != 2 {
		t.Fatalf("got %d verdicts, want 2", len(verdicts))
	}
	for _, v := range verdicts {
		if len(v.Speedups) != 4 {
			t.Errorf("%s: %d speedups, want 4", v.App, len(v.Speedups))
		}
		switch v.Class {
		case "robust win", "robust loss", "neutral", "model-specific":
		default:
			t.Errorf("%s: unknown verdict class %q", v.App, v.Class)
		}
	}

	var buf bytes.Buffer
	WriteDeviceMatrix(&buf, mx)
	out := buf.String()
	for _, want := range []string{
		"sweep: device=V100 input=coherent",
		"sweep: device=Vortex:itsoverlap=0.5 input=noise",
		"cross-sweep robustness",
		"V100/noise", // input column label present when inputs vary
		"complex stall_inst_fetch",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("device-matrix report missing %q:\n%.600s", want, out)
		}
	}
}

func mustDevice(t *testing.T, spec string) gpusim.DeviceConfig {
	t.Helper()
	cfg, _, err := gpusim.ParseDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
