package workload

import (
	"reflect"
	"testing"

	"repro/internal/datatype"
)

// TestDims3 pins the balanced 3D factorizations the halo decompositions
// depend on.
func TestDims3(t *testing.T) {
	cases := map[int][]int{
		8:    {2, 2, 2},
		64:   {4, 4, 4},
		256:  {8, 8, 4},
		1024: {16, 8, 8},
	}
	for ranks, want := range cases {
		if got := Dims3(ranks); !reflect.DeepEqual(got, want) {
			t.Errorf("Dims3(%d) = %v, want %v", ranks, got, want)
		}
	}
}

// TestHaloFaces pins each face to its Comb subarray: one cell thick along
// its axis at the first or last interior plane, the full interior across.
func TestHaloFaces(t *testing.T) {
	const n = 6
	in := n - 2
	mk := func(sub, start []int) *datatype.Layout {
		return datatype.Commit(datatype.Subarray([]int{n, n, n}, sub, start, datatype.Float64))
	}
	want := [3][2]*datatype.Layout{
		{mk([]int{1, in, in}, []int{1, 1, 1}), mk([]int{1, in, in}, []int{n - 2, 1, 1})},
		{mk([]int{in, 1, in}, []int{1, 1, 1}), mk([]int{in, 1, in}, []int{1, n - 2, 1})},
		{mk([]int{in, in, 1}, []int{1, 1, 1}), mk([]int{in, in, 1}, []int{1, 1, n - 2})},
	}
	got := HaloFaces(n)
	for axis := range want {
		for side := range want[axis] {
			g, w := got[axis][side], want[axis][side]
			if !reflect.DeepEqual(g.Blocks, w.Blocks) || g.SizeBytes != int64(in*in*8) || g.ExtentBytes != w.ExtentBytes {
				t.Errorf("face [%d][%d]: %d blocks, %d bytes; want %d blocks, %d bytes",
					axis, side, len(g.Blocks), g.SizeBytes, len(w.Blocks), in*in*8)
			}
		}
	}
}
