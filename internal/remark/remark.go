// Package remark is the structured observability layer of the compiler and
// simulator: optimization remarks in the style of LLVM's
// -fsave-optimization-record, and wall-clock trace spans exportable as
// Chrome trace_event JSON (trace.go).
//
// Remarks are typed events a pass emits while it works — "unrolled this
// loop by 4 because f(p,s,u) = 812 < 1024", "bailed out of loop #2: it
// contains a convergent operation", "GVN deleted 17 instructions" — each
// anchored to a function, and where it makes sense a block. They are the
// paper's missing explanation channel: the metrics tables say *that* u&u
// paid off, the remark stream says *why* (which branches were removed,
// which loads became redundant, where predication backfired).
//
// Two properties are load-bearing:
//
//   - Determinism. A remark never carries a timestamp, a pointer, or a
//     duration; its identity is (kind, pass, name, anchors, args) and its
//     position is its emission order within one compilation. Campaigns
//     that compile in parallel attach one Collector per compilation and
//     concatenate in campaign order, so the assembled stream is
//     byte-identical for any -workers count.
//
//   - Zero disabled cost. Every emission site guards on
//     Collector.Enabled() (nil receiver = disabled), so a pipeline run
//     without a collector performs no remark work at all — no argument
//     formatting, no allocation, one nil check per site.
//
// remark is deliberately a leaf package: anchors are plain strings, so it
// imports nothing from the repository and every layer (analysis,
// transform, core, pipeline, codegen, gpusim, bench) can depend on it.
package remark

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Kind classifies a remark, mirroring LLVM's three remark flavours.
type Kind uint8

const (
	// Passed reports an optimization that applied.
	Passed Kind = iota
	// Missed reports an optimization that was considered and did not
	// apply, with the reason.
	Missed
	// Analysis reports a fact a pass computed that explains later
	// decisions (heuristic inputs, counters, sim metrics).
	Analysis
)

// String returns the YAML tag name of the kind.
func (k Kind) String() string {
	switch k {
	case Passed:
		return "Passed"
	case Missed:
		return "Missed"
	case Analysis:
		return "Analysis"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKinds parses a -remarks filter spec: "all" or a comma-separated
// subset of passed/missed/analysis.
func ParseKinds(spec string) (map[Kind]bool, error) {
	out := map[Kind]bool{}
	for _, part := range strings.Split(spec, ",") {
		switch strings.TrimSpace(strings.ToLower(part)) {
		case "all":
			out[Passed], out[Missed], out[Analysis] = true, true, true
		case "passed":
			out[Passed] = true
		case "missed":
			out[Missed] = true
		case "analysis":
			out[Analysis] = true
		case "":
		default:
			return nil, fmt.Errorf("remark: bad kind %q (want all, passed, missed, analysis)", part)
		}
	}
	return out, nil
}

// Arg is one typed key/value of a remark's payload. Values are
// pre-rendered strings so a stored remark is immutable and deterministic.
type Arg struct {
	Key string
	Val string
}

// Int renders an integer arg.
func Int(key string, v int64) Arg { return Arg{key, strconv.FormatInt(v, 10)} }

// Str renders a string arg.
func Str(key, v string) Arg { return Arg{key, v} }

// Float renders a float arg with a fixed format so output is
// byte-identical across platforms.
func Float(key string, v float64) Arg { return Arg{key, strconv.FormatFloat(v, 'g', 6, 64)} }

// Remark is one optimization remark. All anchors are names, not object
// references, so remarks outlive the IR they describe.
type Remark struct {
	Kind Kind
	// Pass is the emitting pass ("loop-unroll", "gvn", "uu-heuristic").
	Pass string
	// Name identifies the event within the pass ("Unrolled",
	// "ConvergentBailout", "DeadInstructions").
	Name string
	// Function is the kernel being compiled (or executed).
	Function string
	// Block optionally anchors the remark to a basic block (a loop's
	// header, an if-converted branch block).
	Block string
	// Args is the typed payload, in emission order.
	Args []Arg
}

// Collector accumulates the remarks of one compilation (or one
// compile+execute run) in emission order. A nil *Collector is the
// disabled sink: Enabled reports false and every method is a no-op, so
// emission sites can be guarded with a single nil check.
//
// A Collector is not safe for concurrent use; campaigns that compile in
// parallel give each compilation its own Collector and merge in campaign
// order (the only ordering that is deterministic across worker counts).
type Collector struct {
	remarks []Remark
}

// NewCollector returns an enabled, empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Enabled reports whether emitting to c does anything. Emission sites
// must check it before building a Remark so the disabled path costs one
// branch and zero allocations.
func (c *Collector) Enabled() bool { return c != nil }

// Emit appends r to the stream. No-op on a nil Collector.
func (c *Collector) Emit(r Remark) {
	if c == nil {
		return
	}
	c.remarks = append(c.remarks, r)
}

// Remarks returns the collected stream in emission order. The slice is
// shared; callers must not mutate it.
func (c *Collector) Remarks() []Remark {
	if c == nil {
		return nil
	}
	return c.remarks
}

// WriteYAML renders remarks as a stream of YAML documents in the style of
// LLVM's -fsave-optimization-record output: one document per remark,
// tagged with its kind. kinds filters the stream; nil means everything.
func WriteYAML(w io.Writer, remarks []Remark, kinds map[Kind]bool) error {
	var b strings.Builder
	for i := range remarks {
		r := &remarks[i]
		if kinds != nil && !kinds[r.Kind] {
			continue
		}
		b.Reset()
		fmt.Fprintf(&b, "--- !%s\n", r.Kind)
		fmt.Fprintf(&b, "Pass:     %s\n", yamlScalar(r.Pass))
		fmt.Fprintf(&b, "Name:     %s\n", yamlScalar(r.Name))
		fmt.Fprintf(&b, "Function: %s\n", yamlScalar(r.Function))
		if r.Block != "" {
			fmt.Fprintf(&b, "Block:    %s\n", yamlScalar(r.Block))
		}
		if len(r.Args) > 0 {
			b.WriteString("Args:\n")
			for _, a := range r.Args {
				fmt.Fprintf(&b, "  - %s: %s\n", yamlScalar(a.Key), yamlScalar(a.Val))
			}
		}
		b.WriteString("...\n")
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// yamlScalar quotes a scalar when it contains characters that would
// confuse a YAML parser; plain identifiers pass through unquoted.
func yamlScalar(s string) string {
	if s == "" {
		return `''`
	}
	plain := true
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.' || r == '/' || r == '#' || r == '(' || r == ')' || r == '=' || r == '<' || r == '>' || r == ' ':
		default:
			plain = false
		}
		if !plain {
			break
		}
	}
	if plain && s[0] != ' ' && s[len(s)-1] != ' ' && s[0] != '-' {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}
