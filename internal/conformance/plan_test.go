package conformance

import (
	"fmt"
	"testing"
)

// planCheck runs sc under one scheme byte-exact, where every pack and
// unpack job runs the compiled plan of its layout-cache entry, and asserts
// the receive buffer equals the sequential block-list model byte for byte
// (bytes outside the receive type included), that plans were compiled
// whenever the scenario moves bytes, and that nothing leaked.
func planCheck(sc Scenario, scheme string) error {
	res, err := RunScenario(sc, scheme)
	if err != nil {
		return err
	}
	if err := compare("block-list model", scheme+"/plans", Expected(sc), res.Recv); err != nil {
		return err
	}
	if sc.Send.SizeBytes*int64(sc.Count) > 0 && res.Plans == 0 {
		return fmt.Errorf("conformance: %s moved %d bytes without compiling a pack plan",
			scheme, sc.Send.SizeBytes*int64(sc.Count))
	}
	if res.Leaked != 0 || res.PendingFused != 0 || res.LiveProcs != 0 || res.LiveStaging != 0 {
		return fmt.Errorf("conformance: %s run leaked state: requests=%d fused=%d procs=%d staging=%d",
			scheme, res.Leaked, res.PendingFused, res.LiveProcs, res.LiveStaging)
	}
	return nil
}

// TestPlanDifferentialAllSchemes checks the compiled pack plans against
// the block-list model over all schemes: PRF-seeded generated scenarios,
// run byte-exact, must land exactly the bytes the sequential model packs
// and scatters through the send and receive block lists.
func TestPlanDifferentialAllSchemes(t *testing.T) {
	perScheme := 3
	if testing.Short() {
		perScheme = 1
	}
	for i, name := range SchemeNames() {
		for j := 0; j < perScheme; j++ {
			seed := int64(4000 + i*perScheme + j)
			sc := GenScenario(seed)
			if err := planCheck(sc, name); err != nil {
				t.Errorf("scheme %s seed %d: %v\n  send=%s recv=%s count=%d",
					name, seed, err, sc.SendType.TypeName(), sc.RecvType.TypeName(), sc.Count)
			}
		}
	}
}

// TestPlanDifferentialSeedInputs runs the committed known-tricky decoder
// inputs through the plan-vs-block-list check under the fused scheme.
func TestPlanDifferentialSeedInputs(t *testing.T) {
	for i, in := range SeedInputs {
		sc := DecodeScenario(in)
		if err := planCheck(sc, "Proposed-Tuned"); err != nil {
			t.Errorf("seed input %d (% x): %v", i, in, err)
		}
	}
}
