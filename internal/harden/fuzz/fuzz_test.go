package fuzz

import "testing"

// FuzzPipelineDifferential is the native-fuzzing entry point: every input
// becomes a generator seed, and RunCampaign runs the kernel it determines
// through the full differential matrix under every pipeline configuration
// with containment and verify-each enabled, exactly as one seed of a
// `uuopt -fuzz` campaign. Any contained pass failure or finding fails the
// run. Seeds that merely make the pipeline refuse (e.g. an un-unrollable
// loop) are fine — refusal is an error return, not a miscompile.
func FuzzPipelineDifferential(f *testing.F) {
	for _, s := range []int64{1, 17, 42, 101, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		res, err := RunCampaign(CampaignOptions{Count: 1, Seed: seed, VerifyEach: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Failures) > 0 {
			t.Fatalf("seed %d: contained pass failure: %v", seed, res.Failures[0].String())
		}
		if len(res.Findings) > 0 {
			t.Fatalf("miscompile: %s", res.Findings[0].Div.String())
		}
	})
}
