package bench

import (
	"testing"

	"repro/internal/fault"
)

// TestFaultPlanReachesEveryWorld: the harness-wide fault plan must reach
// every world the harness builds, not only RunBulk's. Each table below
// builds its worlds its own way, and under mixed,seed=7 each must print
// something other than its shared fault-free table — both rows of the
// sync ablation included, so the two variants are compared under the same
// faults. The approaches and coll tables, which build theirs two more
// ways, are pinned under the same plan by TestFigureGoldens/faults, and
// its fault-free subtests show that removing the plan restores every
// table exactly.
func TestFaultPlanReachesEveryWorld(t *testing.T) {
	plan, err := fault.Preset("mixed", 7)
	if err != nil {
		t.Fatal(err)
	}
	tables := []struct {
		name  string
		run   func() *Table
		clean *Table
	}{
		{"scaling", Scaling, figure(t, "scaling")[0]},
		{"sync-ablation", AblationSyncVsStatusPoll, figure(t, "ablations")[0]},
	}
	defer SetFaultPlan(nil)
	for _, tc := range tables {
		SetFaultPlan(plan)
		faulted := tc.run()
		if faulted.String() == tc.clean.String() {
			t.Errorf("%s: fault plan did not reach the table:\n%s", tc.name, faulted)
		}
		if tc.name == "sync-ablation" {
			for r := range tc.clean.Rows {
				if faulted.Rows[r][1] == tc.clean.Rows[r][1] {
					t.Errorf("%s: row %q unchanged under faults: %s", tc.name, tc.clean.Rows[r][0], tc.clean.Rows[r][1])
				}
			}
		}
	}
}
