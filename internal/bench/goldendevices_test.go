package bench

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uu/internal/gpusim"
	"uu/internal/pipeline"
	"uu/internal/profile"
)

// updateGoldenDevices regenerates the per-device golden corpus:
//
//	go test ./internal/bench -run TestGoldenDevice -update-golden-devices
//
// testdata/goldendevices pins metrics and hotspot profiles of the four
// Section V kernels across all five pipeline configurations for the
// non-default devices (MinSPPC, Vortex). Together with the V100 corpora
// (testdata/goldenmetrics, testdata/goldenprofiles) this freezes every
// divergence backend's cost attribution.
var updateGoldenDevices = flag.Bool("update-golden-devices", false, "rewrite testdata/goldendevices from the current simulator")

// goldenDevices are the registry devices pinned by the corpus. V100 is
// excluded: its behavior is already pinned — at full 16-app scope — by the
// original corpora, and keeping it there proves the policy refactor
// byte-identical.
var goldenDevices = []string{"MinSPPC", "Vortex"}

func goldenDeviceCell(b *Benchmark, opts pipeline.Options, dev gpusim.DeviceConfig) (metrics, prof string) {
	cr, err := Compile(b, opts)
	if err != nil {
		s := fmt.Sprintf("SKIP: %v\n", err)
		return s, s
	}
	w := b.NewWorkload()
	p := gpusim.NewProfile(cr.Program)
	m, err := ExecuteCtx(context.Background(), cr, w, dev, nil, p)
	if err != nil {
		s := fmt.Sprintf("ERROR: %v\n", err)
		return s, s
	}
	rep := profile.Build(cr.Program, p)
	var sb strings.Builder
	if err := profile.WriteHotspots(&sb, rep); err != nil {
		panic(err)
	}
	sb.WriteString("\n")
	if err := profile.WriteFolded(&sb, rep); err != nil {
		panic(err)
	}
	return formatMetrics(m), sb.String()
}

func TestGoldenDeviceCorpora(t *testing.T) {
	dir := filepath.Join("testdata", "goldendevices")
	if *updateGoldenDevices {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, devName := range goldenDevices {
		dev, ok := gpusim.DeviceByName(devName)
		if !ok {
			t.Fatalf("unknown golden device %q", devName)
		}
		for _, app := range remarkCorpusApps {
			b := ByName(app)
			if b == nil {
				t.Fatalf("unknown corpus app %q", app)
			}
			devName, dev, b := devName, dev, b
			t.Run(devName+"/"+app, func(t *testing.T) {
				t.Parallel()
				for _, opts := range goldenCases() {
					stem := strings.ToLower(devName) + "-" + strings.TrimSuffix(goldenName(b.Name, opts), ".vptx")
					metrics, prof := goldenDeviceCell(b, opts, dev.Config)
					for _, art := range []struct {
						name, got string
					}{
						{stem + ".metrics", metrics},
						{stem + ".profile", prof},
					} {
						path := filepath.Join(dir, art.name)
						if *updateGoldenDevices {
							if err := os.WriteFile(path, []byte(art.got), 0o644); err != nil {
								t.Fatal(err)
							}
							continue
						}
						want, err := os.ReadFile(path)
						if err != nil {
							t.Fatalf("missing golden %s (run with -update-golden-devices to capture): %v", art.name, err)
						}
						if art.got != string(want) {
							t.Errorf("%s: differs from golden %s (%d vs %d bytes)",
								b.Name, art.name, len(art.got), len(want))
						}
					}
				}
			})
		}
	}
}
