package ir

import "math"

// Fingerprint returns a 64-bit hash of f's state: everything Clone copies and
// nothing else. Two functions Clone would render identically — same names,
// instruction and block IDs and ID counters, opcodes, predicates, types,
// operands, block operands, source locations, and the same historical
// predecessor-list and use-list orders — hash alike; in particular
// Fingerprint(Clone(f)) == Fingerprint(f). Any single edit to one of those
// fields changes the hash (every mixing step is a bijection of the running
// state), so "the fingerprint has not moved" is how a holder of a snapshot
// decides the function is still in the state the snapshot was taken in. Two
// different states collide with probability 2^-64.
//
// Constants are immutable and shared by Clone, so they are hashed by content
// (type and bits). Fingerprint allocates nothing and is a single walk over
// the function, a small fraction of what Clone costs.
func Fingerprint(f *Function) uint64 {
	f.live()
	h := fpState(len(f.blocks))
	h.str(f.Name)
	h.typ(f.RetTyp)
	h.word(uint64(f.nextID))
	h.word(uint64(f.nextBlockID))
	// The name counters are a map: combine the entries with a commutative
	// sum so iteration order cannot matter.
	var names uint64
	for name, n := range f.nameCount {
		e := fpState(n)
		e.str(name)
		names += uint64(e)
	}
	h.word(names)
	h.word(uint64(len(f.Params)))
	for _, p := range f.Params {
		h.str(p.Name)
		h.typ(p.Typ)
		idx := uint64(p.Index) << 1
		if p.Restrict {
			idx |= 1
		}
		h.word(idx)
	}
	for _, b := range f.blocks {
		h.str(b.Name)
		h.word(uint64(b.id))
		h.word(uint64(len(b.preds)))
		for _, p := range b.preds {
			h.word(uint64(p.id))
		}
		h.word(uint64(len(b.instrs)))
		for _, in := range b.instrs {
			h.word(uint64(in.Op)<<32 | uint64(in.Pred))
			h.typ(in.Typ)
			h.word(uint64(in.id))
			h.str(in.name)
			h.word(uint64(uint32(in.loc.Line)))
			h.word(uint64(uint32(in.loc.Iter))<<32 | uint64(uint32(in.loc.Dup)))
			h.word(uint64(len(in.args)))
			for _, a := range in.args {
				h.value(a)
			}
			h.word(uint64(len(in.blocks)))
			for _, tb := range in.blocks {
				h.word(uint64(tb.id))
			}
			h.word(uint64(len(in.uses)))
			for _, u := range in.uses {
				h.word(uint64(u.user.id)<<24 ^ uint64(u.idx))
			}
		}
	}
	return uint64(h)
}

// fpState is Fingerprint's running hash.
type fpState uint64

// word mixes one 64-bit word into the state. For a fixed word the step is a
// bijection of the state, and for a fixed state a bijection of the word.
func (h *fpState) word(x uint64) {
	v := (uint64(*h) ^ x) * 0x9E3779B97F4A7C15
	*h = fpState(v ^ v>>29)
}

// str mixes a length-prefixed string, eight bytes to the word.
func (h *fpState) str(s string) {
	h.word(uint64(len(s)))
	for len(s) > 0 {
		var w uint64
		n := min(len(s), 8)
		for i := 0; i < n; i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h.word(w)
		s = s[n:]
	}
}

// typ mixes a type by structure: types are interned, but a hash of their
// addresses would not survive a process, and the chain is at most a few
// pointers deep.
func (h *fpState) typ(t *Type) {
	var w uint64
	for ; t != nil; t = t.Elem {
		w = w<<4 | uint64(t.Kind+1)
	}
	h.word(w)
}

// value mixes an operand: which kind of value it is and which one.
func (h *fpState) value(v Value) {
	switch x := v.(type) {
	case *Instr:
		h.word(1<<60 | uint64(x.id))
	case *Param:
		h.word(2<<60 | uint64(x.Index))
	case *Const:
		h.word(3 << 60)
		h.typ(x.Typ)
		h.word(uint64(x.Int))
		h.word(math.Float64bits(x.Float))
	default:
		h.word(0)
	}
}
