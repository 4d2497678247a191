package bench

import (
	"testing"

	"repro/internal/fault"
)

// TestFaultPlanReachesEveryWorld: the harness-wide fault plan must reach
// every world the harness builds, not only RunBulk's. Each table below
// builds its worlds its own way, and under mixed,seed=7 each must print
// something other than its fault-free output — both rows of the sync
// ablation included, so the two variants are compared under the same
// faults. Removing the plan must restore the fault-free output exactly.
func TestFaultPlanReachesEveryWorld(t *testing.T) {
	plan, err := fault.Preset("mixed", 7)
	if err != nil {
		t.Fatal(err)
	}
	defer SetFaultPlan(nil)
	tables := []struct {
		name string
		run  func() *Table
	}{
		{"approaches", Approaches},
		{"scaling", Scaling},
		{"coll-algorithms", CollAlgorithms},
		{"sync-ablation", AblationSyncVsStatusPoll},
	}
	clean := make([]*Table, len(tables))
	for i, tc := range tables {
		SetFaultPlan(nil)
		clean[i] = tc.run()
		SetFaultPlan(plan)
		faulted := tc.run()
		if faulted.String() == clean[i].String() {
			t.Errorf("%s: fault plan did not reach the table:\n%s", tc.name, faulted)
		}
		if tc.name == "sync-ablation" {
			for r := range clean[i].Rows {
				if faulted.Rows[r][1] == clean[i].Rows[r][1] {
					t.Errorf("%s: row %q unchanged under faults: %s", tc.name, clean[i].Rows[r][0], clean[i].Rows[r][1])
				}
			}
		}
	}
	SetFaultPlan(nil)
	if again := tables[0].run(); again.String() != clean[0].String() {
		t.Fatalf("fault-free output changed after the plan was removed:\n%s\nvs\n%s", clean[0], again)
	}
}
