package bench

import (
	"bytes"
	"runtime"
	"testing"

	"uu/internal/gpusim"
	"uu/internal/interp"
	"uu/internal/pipeline"
)

// generateMemory is NewMemory as it was before the image was cached: zero a
// buffer and run the selected generator over it, on every call. It is the
// oracle for the cached image.
func generateMemory(w *Workload) *interp.Memory {
	m := interp.NewMemory(w.MemSize)
	if w.Init != nil {
		w.Init(m)
	}
	return m
}

// TestCachedImageMatchesGenerator: for all 16 apps and both input modes,
// every memory the workload hands out — fresh or on a recycled buffer —
// starts from exactly the bytes the generator writes, SetInput after a first
// NewMemory switches images, and no memory handed out aliases the cache.
func TestCachedImageMatchesGenerator(t *testing.T) {
	for _, b := range Suite {
		w := b.NewWorkload()
		for _, mode := range InputModes() {
			w.SetInput(mode) // the second round follows a first NewMemory
			want := generateMemory(w).Data
			fresh := w.NewMemory()
			if !bytes.Equal(fresh.Data, want) {
				t.Errorf("%s/%s: NewMemory differs from the generator's output", b.Name, mode)
			}
			// Scribble over what was handed out: the next memories must
			// not see it, whichever buffer they land on.
			for i := range fresh.Data {
				fresh.Data[i] = 0xA5
			}
			recycled := w.AcquireMemory()
			if !bytes.Equal(recycled.Data, want) {
				t.Errorf("%s/%s: AcquireMemory differs from the generator's output", b.Name, mode)
			}
			for i := range recycled.Data {
				recycled.Data[i] = 0x5A
			}
			interp.ReleaseMemory(recycled)
			again := w.AcquireMemory()
			if !bytes.Equal(again.Data, want) {
				t.Errorf("%s/%s: a recycled buffer was not fully overwritten", b.Name, mode)
			}
			interp.ReleaseMemory(again)
			if got := w.NewMemory(); !bytes.Equal(got.Data, want) {
				t.Errorf("%s/%s: writes through a handed-out memory reached the cached image", b.Name, mode)
			}
		}
	}
}

// TestWarmExecuteAllocations pins what a repeat execution allocates: the
// Metrics it returns (one allocation today; the bound leaves room for a
// few more small objects), never the memory image or the register files —
// so neither the count nor the bytes grow with the workload's MemSize.
func TestWarmExecuteAllocations(t *testing.T) {
	const maxAllocs, maxBytes = 4, 4096
	for _, name := range []string{"complex", "xsbench", "bspline-vgh"} {
		b := ByName(name)
		w := b.NewWorkload()
		if w.MemSize < 16*maxBytes {
			t.Fatalf("%s: MemSize %d is too small to show an image allocation", name, w.MemSize)
		}
		cr, err := Compile(b, pipeline.Options{Config: pipeline.Baseline})
		if err != nil {
			t.Fatal(err)
		}
		for _, dev := range gpusim.Devices() {
			exec := func() {
				if _, err := Execute(cr, w, dev.Config, nil); err != nil {
					t.Fatal(err)
				}
			}
			exec() // warm: decode, image, free lists
			if allocs := testing.AllocsPerRun(3, exec); allocs > maxAllocs {
				t.Errorf("%s on %s: warm Execute makes %v allocations, want <= %d", name, dev.Name, allocs, maxAllocs)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			exec()
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > maxBytes {
				t.Errorf("%s on %s: warm Execute allocates %d bytes (MemSize %d), want <= %d", name, dev.Name, got, w.MemSize, maxBytes)
			}
		}
	}
}
