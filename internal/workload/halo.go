package workload

import (
	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/mpi"
)

// The Comb 3D halo kernel: every rank owns an n^3 float64 grid with one
// ghost cell on each side, the ranks form a periodic balanced 3D Cartesian
// grid, and each timestep exchanges the six faces with the neighbors.
// cmd/halo3d and the ddtbench scale table build their halos from here.

// HaloFaces returns the six face subarrays of a ghosted n^3 float64 grid
// (interior n-2 per axis, mirroring Comb), indexed [axis][side] with side
// 0 the minus face and side 1 the plus face. A rank sends these regions of
// its grid and receives its neighbors' faces into the same regions of a
// separate ghost grid. n must be at least 3.
func HaloFaces(n int) [3][2]*datatype.Layout {
	sizes := []int{n, n, n}
	var faces [3][2]*datatype.Layout
	for axis := range faces {
		sub := []int{n - 2, n - 2, n - 2}
		sub[axis] = 1
		for side, corner := range []int{1, n - 2} {
			start := []int{1, 1, 1}
			start[axis] = corner
			faces[axis][side] = datatype.Commit(datatype.Subarray(sizes, sub, start, datatype.Float64))
		}
	}
	return faces
}

// HaloOps builds rank's NeighborAlltoallw legs over cart in the fixed
// (-x,+x,-y,+y,-z,+z) order, so every rank's legs line up. Same-peer legs
// match by index, so the minus-direction leg sends the minus face and
// receives the neighbor's minus face into the plus ghost region (and vice
// versa); on periodic extent-2 axes both directions reach one peer.
func HaloOps(cart *mpi.CartComm, rank int, faces [3][2]*datatype.Layout, grid, ghost *gpu.Buffer) []mpi.NeighborOp {
	ops := make([]mpi.NeighborOp, 0, 6)
	for axis, f := range faces {
		mPeer, pPeer := cart.Shift(rank, axis, 1)
		ops = append(ops,
			mpi.NeighborOp{Peer: mPeer, SendBuf: grid, SendType: f[0], RecvBuf: ghost, RecvType: f[1], Count: 1},
			mpi.NeighborOp{Peer: pPeer, SendBuf: grid, SendType: f[1], RecvBuf: ghost, RecvType: f[0], Count: 1},
		)
	}
	return ops
}

// Dims3 factors ranks into the most balanced 3D grid, largest dimension
// first (8 -> 2x2x2, 64 -> 4x4x4, 256 -> 8x8x4, 1024 -> 16x8x8).
func Dims3(ranks int) []int {
	best := [3]int{ranks, 1, 1}
	for a := 1; a*a*a <= ranks; a++ {
		if ranks%a != 0 {
			continue
		}
		m := ranks / a
		for b := a; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			c := m / b
			if c-a < best[0]-best[2] {
				best = [3]int{c, b, a}
			}
		}
	}
	return best[:]
}
