package bench

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestScaleSmoke is the CI gate on the tentpole claim: the 256-rank (64
// Lassen nodes) lazy rows of both scale patterns in the shared table
// completed well inside a wall-time budget. The budget is deliberately
// generous (the patterns finish in well under a second on any modern
// machine, even while other tables regenerate beside them) so only a
// scaling regression trips it. A failed or leaking cell is an ERROR row.
func TestScaleSmoke(t *testing.T) {
	const budgetMs = 90_000
	tab := figure(t, "scale")[0]
	for _, pattern := range []string{"a2a-hier", "halo3d"} {
		t.Run(pattern, func(t *testing.T) {
			for _, row := range tab.Rows {
				if row[0] != pattern || row[1] != "256" {
					continue
				}
				if wall := mustF(t, row[5]); wall > budgetMs {
					t.Fatalf("%s at 256 ranks took %.0f ms, budget %d ms", pattern, wall, budgetMs)
				}
				return
			}
			t.Fatalf("scale table has no 256-rank %s row", pattern)
		})
	}
}

// TestScaleDims3 pins the balanced 3D factorizations the halo rows of the
// scale sweep run on: at each swept rank count the periodic Cartesian
// communicator built over the scale world must have these dims.
func TestScaleDims3(t *testing.T) {
	cases := map[int][]int{
		8:    {2, 2, 2},
		64:   {4, 4, 4},
		256:  {8, 8, 4},
		1024: {16, 8, 8},
	}
	for ranks, want := range cases {
		w, err := scaleWorld(ranks, true, nil)
		if err != nil {
			t.Fatalf("scaleWorld(%d): %v", ranks, err)
		}
		cart := w.CartCreate(workload.Dims3(ranks), []bool{true, true, true})
		if got := cart.Dims(); !reflect.DeepEqual(got, want) {
			t.Errorf("halo cart over %d ranks has dims %v, want %v", ranks, got, want)
		}
	}
}

// TestScaleExactLazyAgree: at 8 ranks the sparse a2a pattern must produce
// the same virtual completion time and kernel count in both payload
// modes — the bench-level echo of the conformance differential.
func TestScaleExactLazyAgree(t *testing.T) {
	ex, err := runScaleA2A(8, false)
	if err != nil {
		t.Fatal(err)
	}
	lz, err := runScaleA2A(8, true)
	if err != nil {
		t.Fatal(err)
	}
	if ex.virtNs != lz.virtNs {
		t.Errorf("virtual clock differs: exact %d vs lazy %d", ex.virtNs, lz.virtNs)
	}
	if ex.kernels != lz.kernels {
		t.Errorf("kernel launches differ: exact %d vs lazy %d", ex.kernels, lz.kernels)
	}
}
