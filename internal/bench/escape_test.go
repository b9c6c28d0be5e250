package bench

import (
	"reflect"
	"testing"

	"uu/internal/ir"
)

// irTypes are the IR objects a function's store owns. Run releases the
// compiled function, and its blocks and instructions are carved into the
// next compilation, so a record that still reached one would read another
// kernel's IR.
var irTypes = []reflect.Type{
	reflect.TypeFor[*ir.Function](),
	reflect.TypeFor[*ir.Block](),
	reflect.TypeFor[*ir.Instr](),
}

// TestNoIREscapesARun walks every record a two-app campaign returns, with
// remarks and profiles on, and fails on any non-nil function, block or
// instruction it can reach.
func TestNoIREscapesARun(t *testing.T) {
	res, err := RunExperiments(HarnessOptions{
		Apps:    []string{"contract", "clink"},
		Factors: []int{2},
		Remarks: true,
		Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := append([]*RunRecord(nil), res.PerLoop...)
	for _, m := range []map[string]*RunRecord{res.Baseline, res.Heuristic} {
		for _, r := range m {
			recs = append(recs, r)
		}
	}
	decisions := 0
	for _, r := range recs {
		if r.Stats != nil {
			decisions += len(r.Stats.Decisions)
		}
		if path := reachIR(reflect.ValueOf(r), "RunRecord", map[uintptr]bool{}); path != "" {
			t.Errorf("%s %s loop %d: the record reaches IR at %s", r.App, r.Config, r.LoopID, path)
		}
	}
	if decisions == 0 {
		t.Fatal("no heuristic decision among the records: the census would not see one")
	}
	t.Logf("%d records, %d heuristic decisions", len(recs), decisions)
}

// reachIR returns the path to the first non-nil IR object v reaches, or "".
// seen holds the pointers already walked.
func reachIR(v reflect.Value, path string, seen map[uintptr]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		for _, t := range irTypes {
			if v.Type() == t {
				return path
			}
		}
		if seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
		return reachIR(v.Elem(), path, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return reachIR(v.Elem(), path, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := reachIR(v.Field(i), path+"."+v.Type().Field(i).Name, seen); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := reachIR(v.Index(i), path+"[]", seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if p := reachIR(it.Key(), path+"{key}", seen); p != "" {
				return p
			}
			if p := reachIR(it.Value(), path+"{}", seen); p != "" {
				return p
			}
		}
	}
	return ""
}
