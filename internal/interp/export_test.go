package interp

import "uu/internal/ir"

// RunSteps gives the tests RunCounted with a step budget of their choosing.
var RunSteps = runSteps

// UnreachedSpecialisedCases returns the specialised cases of decode.go,
// counted from cLoadSlot, that no instruction of fs decodes to.
func UnreachedSpecialisedCases(fs []*ir.Function) []int {
	var reached [numOpcodes - cLoadSlot]bool
	for _, f := range fs {
		fr := takeFrame(f, make([]Value, len(f.Params)))
		for _, o := range fr.code {
			if o.code >= cLoadSlot {
				reached[o.code-cLoadSlot] = true
			}
		}
		putFrame(fr)
	}
	var missing []int
	for i, ok := range reached {
		if !ok {
			missing = append(missing, i)
		}
	}
	return missing
}
