package ir

import "testing"

var fingerprintSink uint64

// TestFingerprintCoversClone pins the two halves of Fingerprint's contract:
// a clone hashes like its original, and an edit to anything Clone copies —
// including the two orders the printer does not show — moves the hash. The
// guard in internal/harden reuses a snapshot exactly when the hash has not
// moved, so a field missing here is a rollback to the wrong IR.
func TestFingerprintCoversClone(t *testing.T) {
	edits := []struct {
		name string
		// silent edits leave the printed function unchanged
		silent bool
		edit   func(f *Function, nsum *Instr)
	}{
		{"SetArg", false, func(f *Function, nsum *Instr) { nsum.SetArg(1, ConstInt(I64, 7)) }},
		{"constant operand value", false, func(f *Function, nsum *Instr) {
			inc := f.BlockByName("loop").Instrs()[2]
			inc.SetArg(1, ConstInt(I64, 2))
		}},
		{"pred flip", false, func(f *Function, nsum *Instr) {
			cmp := f.BlockByName("loop").Term().Arg(0).(*Instr)
			cmp.Pred = cmp.Pred.Inverse()
		}},
		{"opcode", false, func(f *Function, nsum *Instr) { nsum.Op = OpSub }},
		{"rename instruction", false, func(f *Function, nsum *Instr) { nsum.SetName("total") }},
		{"rename block", false, func(f *Function, nsum *Instr) { f.BlockByName("exit").Name = "done" }},
		{"SetLoc", true, func(f *Function, nsum *Instr) { nsum.SetLoc(Loc{Line: 14, Iter: 2}) }},
		{"swap branch targets", false, func(f *Function, nsum *Instr) {
			// Both targets keep one edge from loop, so pred lists hold.
			br := f.BlockByName("loop").Term()
			t0, t1 := br.BlockArg(0), br.BlockArg(1)
			br.SetBlockArg(0, t1)
			br.SetBlockArg(1, t0)
		}},
		{"pred-list reorder", true, func(f *Function, nsum *Instr) {
			// Detach and re-append entry's branch: loop's preds go from
			// [entry, loop] to [loop, entry].
			entry := f.BlockByName("entry")
			br := entry.Term()
			entry.Remove(br)
			entry.Append(br)
		}},
		{"use-list reorder", true, func(f *Function, nsum *Instr) {
			// SetArg there and back: removeUse swaps the last use into the
			// freed slot and the re-add appends.
			loop := f.BlockByName("loop")
			i, inc := loop.Instrs()[1], loop.Instrs()[2] // %sum, %i, inc, ...
			inc.SetArg(0, ConstInt(I64, 0))
			inc.SetArg(0, i)
		}},
		{"ID counters", true, func(f *Function, nsum *Instr) {
			f.RemoveBlock(f.NewBlock("scratch"))
		}},
	}
	for _, e := range edits {
		f, nsum := buildCountLoop(t)
		before, text := Fingerprint(f), f.String()
		if got := Fingerprint(Clone(f)); got != before {
			t.Fatalf("Fingerprint(Clone(f)) = %#x, Fingerprint(f) = %#x", got, before)
		}
		e.edit(f, nsum)
		if Fingerprint(f) == before {
			t.Errorf("%s: fingerprint did not move", e.name)
		}
		if e.silent != (f.String() == text) {
			t.Errorf("%s: printed function changed = %v, want %v", e.name, f.String() != text, !e.silent)
		}
		if got := Fingerprint(Clone(f)); got != Fingerprint(f) {
			t.Errorf("%s: clone of the edited function hashes %#x, the function %#x", e.name, got, Fingerprint(f))
		}
	}

	f, _ := buildCountLoop(t)
	if n := testing.AllocsPerRun(100, func() { fingerprintSink = Fingerprint(f) }); n != 0 {
		t.Errorf("Fingerprint allocates %v objects a call, want 0", n)
	}
}

// TestFingerprintSurvivesRestore closes the loop the guard runs: snapshot,
// wreck the function, restore — and the function hashes as it did when the
// snapshot was taken.
func TestFingerprintSurvivesRestore(t *testing.T) {
	f, nsum := buildCountLoop(t)
	before := Fingerprint(f)
	snap := Clone(f)
	nsum.ReplaceAllUsesWith(ConstInt(I64, 0))
	f.NewBlock("junk")
	if Fingerprint(f) == before {
		t.Fatalf("edits did not move the fingerprint")
	}
	Restore(f, snap)
	if got := Fingerprint(f); got != before {
		t.Fatalf("restored function hashes %#x, the snapshotted state %#x", got, before)
	}
}
