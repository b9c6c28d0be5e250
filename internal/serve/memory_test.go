package serve

import (
	"bytes"
	"context"
	"testing"

	"uu/internal/bench"
	"uu/internal/interp"
)

// TestRequestMemoryIsPristine is the buffer-hygiene contract of runSpec's
// recycled device memory: whatever an earlier request — here one that ran,
// and one whose buffer was scribbled over to its full capacity — left in a
// buffer, a source/IR request starts from zeros and an app request from the
// workload's input image, at exactly the requested size.
func TestRequestMemoryIsPristine(t *testing.T) {
	src, rerr := buildSpec(testRequest(10))
	if rerr != nil {
		t.Fatal(rerr)
	}
	var x execRecord
	if _, rerr := runSpec(context.Background(), src, &x); rerr != nil {
		t.Fatal(rerr) // wrote y; its buffer is back on the free list
	}
	app, rerr := buildSpec(&Request{App: "complex"})
	if rerr != nil {
		t.Fatal(rerr)
	}
	image := bench.ByName("complex").NewWorkload().NewMemory().Data

	for round := 0; round < 3; round++ {
		m := src.acquireMem()
		if len(m.Data) != 1<<12 || !bytes.Equal(m.Data, make([]byte, 1<<12)) {
			t.Fatalf("round %d: source request memory is not %d zero bytes", round, 1<<12)
		}
		a := app.acquireMem()
		if !bytes.Equal(a.Data, image) {
			t.Fatalf("round %d: app request memory differs from the workload's input image", round)
		}
		for _, dirty := range []*interp.Memory{m, a} {
			buf := dirty.Data[:cap(dirty.Data)]
			for i := range buf {
				buf[i] = 0xFF
			}
			interp.ReleaseMemory(dirty)
		}
	}
}
