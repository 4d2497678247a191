package bench

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestScaleSmoke is the CI gate on the tentpole claim: a 256-rank (64
// Lassen nodes) run of both scale patterns in lazy mode must complete
// well inside a wall-time budget, leak-free. It runs under -short — the
// budget is deliberately generous (the patterns finish in a few seconds
// on any modern machine) so only a scaling regression trips it.
func TestScaleSmoke(t *testing.T) {
	const ranks = 256
	const budget = 90 * time.Second
	for _, pattern := range []string{"a2a-hier", "halo3d"} {
		pattern := pattern
		t.Run(pattern, func(t *testing.T) {
			var err error
			var m measure
			switch pattern {
			case "a2a-hier":
				m, err = runScaleA2A(ranks, true)
			case "halo3d":
				m, err = runScaleHalo(ranks, true)
			}
			if err != nil {
				t.Fatalf("%s at %d ranks: %v", pattern, ranks, err)
			}
			if m.wall > budget {
				t.Fatalf("%s at %d ranks took %v, budget %v", pattern, ranks, m.wall, budget)
			}
			t.Logf("%s at %d ranks: %v wall, %.1f ms virtual, %.1f MB alloc, %d kernels",
				pattern, ranks, m.wall, float64(m.virtNs)/1e6, m.allocMB, m.kernels)
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
