package pipeline

import (
	"context"

	"uu/internal/ir"
	"uu/internal/transform"
)

// Bundle is a compilation's scratch, for tests that compile in one of their
// own instead of one from the free list.
type Bundle = scratch

// OptimizeIn is OptimizeCtx compiling in s, which is then parked as
// OptimizeCtx parks a bundle before filing it, but stays the caller's.
func OptimizeIn(ctx context.Context, f *ir.Function, opts Options, s *Bundle) (*Stats, error) {
	st, err := optimize(ctx, f, opts, s)
	s.park()
	return st, err
}

// Transform returns the storage the bundle lends the cleanup passes.
func (s *Bundle) Transform() *transform.Scratch { return &s.transform }
