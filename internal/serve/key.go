// Package serve is the compile-as-a-service daemon core: a long-running
// HTTP/JSON server that accepts MiniCU kernels (or raw IR, or suite
// benchmark names) plus device and pipeline configuration, compiles and
// simulates them on a bounded worker pool, and returns the measured
// metrics. Robustness is the point, not an afterthought: per-request
// deadlines cancel work at pass and warp-block boundaries, panics are
// contained per request, overload is shed with 429 + Retry-After instead
// of queueing unboundedly, duplicate submissions coalesce onto one
// compilation through a content-addressed result cache, and SIGTERM drains
// gracefully. cmd/uud wraps this package as a daemon; cmd/uuclient is the
// matching load client.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"

	"uu/internal/core"
	"uu/internal/gpusim"
	"uu/internal/ir"
	"uu/internal/irparse"
	"uu/internal/pipeline"
)

// CanonicalIR renders f in a name-independent canonical form: the function,
// its parameters, its blocks, and every value-producing instruction are
// renamed positionally before printing, so two kernels that differ only in
// the names the frontend (or a client) chose print identically. The result
// is verified to be a print→parse→print fixed point of the textual IR
// syntax — the property serve's content-addressed cache keys depend on, and
// the first line of defense against hashing IR the rest of the system
// cannot actually ingest. f is not mutated, and the two functions made on
// the way — the renamed copy and the parsed one — are released once their
// text is taken, so a canonicalization leaves the store free list as it
// found it.
func CanonicalIR(f *ir.Function) (string, error) {
	c := ir.Clone(f)
	c.Name = "k"
	var buf [24]byte // a prefix letter and any int's digits
	name := func(prefix byte, i int) string {
		buf[0] = prefix
		return string(strconv.AppendInt(buf[:1], int64(i), 10))
	}
	for i, p := range c.Params {
		p.Name = name('p', i)
	}
	for i, b := range c.Blocks() {
		b.Name = name('b', i)
	}
	n := 0
	for _, b := range c.Blocks() {
		for _, in := range b.Instrs() {
			if in.Type() != ir.Void {
				in.SetName(name('v', n))
				n++
			} else {
				in.SetName("")
			}
		}
	}
	text := c.String()
	ir.Release(c)
	rt, err := irparse.ParseFunc(text)
	if err != nil {
		return "", fmt.Errorf("serve: canonical IR does not parse back: %w", err)
	}
	again := rt.String()
	ir.Release(rt)
	if again != text {
		return "", fmt.Errorf("serve: canonical IR is not a print/parse fixed point")
	}
	return text, nil
}

// Fingerprint computes the content-addressed cache key of a compile+run
// request. It covers everything that influences the response payload —
// canonical IR, pipeline configuration (config/loop/factor, the resolved
// heuristic parameter set including per-loop profile overrides, plus the
// containment and fault-injection switches), the simulated device, the
// launch geometry, memory size and kernel arguments, and the artifact
// selection (remarks, profile) — and deliberately excludes what does not:
// the request's deadline.
//
// The heuristic line hashes the *resolved* parameters (FillDefaults plus the
// canonical override rendering): a request spelling the paper defaults
// explicitly shares the entry of one omitting them — exactly as the pipeline
// treats them — while two requests differing only in measured-profile
// overrides (the PGO feedback channel) always get distinct keys.
func Fingerprint(canonIR string, opts pipeline.Options, dev gpusim.DeviceConfig,
	launch gpusim.Launch, memSize int64, args []int64, chaos string, remarks string, profile bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "ir\n%s\n", canonIR)
	fmt.Fprintf(h, "config %s loop %d factor %d contain %t verify %t chaos %q\n",
		opts.Config, opts.LoopID, opts.Factor, opts.Contain, opts.VerifyEachPass, chaos)
	hp := opts.Heuristic.FillDefaults()
	fmt.Fprintf(h, "heuristic c %d umax %d skipdiv %t selective %t overrides %s\n",
		hp.C, hp.UMax, hp.SkipDivergent, opts.Unmerge.Selective, core.OverridesString(hp.Overrides))
	fmt.Fprintf(h, "device %+v\n", dev)
	fmt.Fprintf(h, "launch %d %d %d mem %d\n", launch.GridDim, launch.BlockDim, launch.SampleWarps, memSize)
	fmt.Fprintf(h, "args %v\n", args)
	fmt.Fprintf(h, "artifacts remarks %q profile %t\n", remarks, profile)
	return hex.EncodeToString(h.Sum(nil))
}

// identity is the hash of a request as the client spelled it; see
// requestIdentity.
type identity [sha256.Size]byte

// requestIdentity hashes every decoded request field that buildSpec reads
// into the fingerprint, without building any IR: two requests with equal
// identities are the same input to buildSpec, so they fail the same
// validation or resolve to the same fingerprint. That makes it a sound key
// for lruCache's alias index — and only that: distinct identities routinely
// share a fingerprint (renamed locals, defaults spelled out), which is why
// the fingerprint stays the cache key. DeadlineMs is left out because
// Fingerprint leaves it out: it changes how long a result may take, never
// the result. Hashing decoded fields rather than the body
// keeps JSON key order and whitespace from mattering. Fields are written in
// a fixed order, strings and slices length-prefixed, so no two requests
// render to the same bytes; TestIdentityCoversEveryRequestField fails when
// a field is added to Request and not here.
func requestIdentity(r *Request) identity {
	w := identityBytes(takeBuf())
	w.str("uu/serve request identity v1")
	w.str(r.App)
	w.str(r.Source)
	w.str(r.IR)
	w.str(r.Config)
	w.num(int64(r.Loop))
	w.num(int64(r.Factor))
	w.flag(r.Heuristic != nil)
	if hs := r.Heuristic; hs != nil {
		w.num(int64(hs.C))
		w.num(int64(hs.UMax))
		w.flag(hs.SkipDivergent)
		w.flag(hs.Selective)
		w.str(hs.Overrides)
	}
	w.str(r.Device)
	w.num(int64(r.Grid))
	w.num(int64(r.Block))
	w.num(r.MemBytes)
	w.num(int64(len(r.Args)))
	for _, a := range r.Args {
		w.num(a)
	}
	w.flag(r.Contain)
	w.str(r.Chaos)
	w.str(r.Remarks)
	w.flag(r.Profile)
	id := identity(sha256.Sum256(w))
	fileBuf(w)
	return id
}

// identityBytes is the byte string requestIdentity hashes, rendered into a
// recycled buffer: integers as eight little-endian bytes, flags as one byte,
// strings as their length then their bytes.
type identityBytes []byte

func (w *identityBytes) num(v int64) {
	*w = binary.LittleEndian.AppendUint64(*w, uint64(v))
}

func (w *identityBytes) flag(b bool) {
	var v byte
	if b {
		v = 1
	}
	*w = append(*w, v)
}

func (w *identityBytes) str(s string) {
	w.num(int64(len(s)))
	*w = append(*w, s...)
}
