package bench

import "testing"

func TestApproachesAllVerifyAndRank(t *testing.T) {
	tab := figure(t, "approaches")[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	get := func(i int) float64 { return mustF(t, tab.Rows[i][2]) }
	alg1, alg2, alg3sync, alg3fused := get(0), get(1), get(2), get(3)

	// Alg. 2's single sync per phase beats Alg. 1's per-message sync.
	if alg2 >= alg1 {
		t.Errorf("app-level (%f) should beat per-message explicit pack (%f)", alg2, alg1)
	}
	// The proposed fusion makes the implicit approach the fastest of all
	// — the paper's thesis: productivity AND performance.
	for i, other := range []float64{alg1, alg2, alg3sync} {
		if alg3fused >= other {
			t.Errorf("fused implicit (%f) should beat approach %d (%f)", alg3fused, i, other)
		}
	}
}
