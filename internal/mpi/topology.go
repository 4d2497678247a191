package mpi

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/gpu"
)

// CartComm is a Cartesian process topology (MPI_Cart_create) over the
// first prod(dims) ranks of the world, row-major. It provides the neighbor
// arithmetic multi-dimensional domain decompositions need (Section II-B).
type CartComm struct {
	world   *World
	dims    []int
	periods []bool
	size    int
}

// CartCreate builds a Cartesian topology. The product of dims must not
// exceed the world size.
func (w *World) CartCreate(dims []int, periods []bool) *CartComm {
	if len(dims) == 0 || len(dims) != len(periods) {
		panic("mpi: CartCreate dims/periods mismatch")
	}
	size := 1
	for _, d := range dims {
		if d <= 0 {
			panic("mpi: CartCreate non-positive dimension")
		}
		size *= d
	}
	if size > w.Size() {
		panic(fmt.Sprintf("mpi: CartCreate needs %d ranks, world has %d", size, w.Size()))
	}
	return &CartComm{
		world:   w,
		dims:    append([]int(nil), dims...),
		periods: append([]bool(nil), periods...),
		size:    size,
	}
}

// Dims returns a copy of the grid dimensions.
func (c *CartComm) Dims() []int { return append([]int(nil), c.dims...) }

// Member reports whether world rank r participates in the topology.
func (c *CartComm) Member(r int) bool { return r >= 0 && r < c.size }

// Coords returns the Cartesian coordinates of world rank r
// (MPI_Cart_coords).
func (c *CartComm) Coords(r int) []int {
	if !c.Member(r) {
		panic(fmt.Sprintf("mpi: rank %d not in topology", r))
	}
	out := make([]int, len(c.dims))
	for i := len(c.dims) - 1; i >= 0; i-- {
		out[i] = r % c.dims[i]
		r /= c.dims[i]
	}
	return out
}

// RankOf returns the world rank at coords (MPI_Cart_rank), applying
// periodicity; it returns -1 (MPI_PROC_NULL) for out-of-range coordinates
// on non-periodic axes.
func (c *CartComm) RankOf(coords []int) int {
	if len(coords) != len(c.dims) {
		panic("mpi: RankOf dimension mismatch")
	}
	r := 0
	for i, v := range coords {
		if v < 0 || v >= c.dims[i] {
			if !c.periods[i] {
				return -1
			}
			v = ((v % c.dims[i]) + c.dims[i]) % c.dims[i]
		}
		r = r*c.dims[i] + v
	}
	return r
}

// Shift returns the source and destination ranks for a displacement along
// an axis (MPI_Cart_shift): src sends to the caller, the caller sends to
// dst. Either may be -1 on a non-periodic boundary.
func (c *CartComm) Shift(rank, axis, disp int) (src, dst int) {
	coords := c.Coords(rank)
	up := append([]int(nil), coords...)
	up[axis] += disp
	down := append([]int(nil), coords...)
	down[axis] -= disp
	return c.RankOf(down), c.RankOf(up)
}

// NeighborOp describes one leg of a neighborhood exchange: what to send to
// and receive from one peer, with per-peer datatypes — the shape of
// MPI_Neighbor_alltoallw, which is exactly the paper's "bulk
// non-contiguous data transfer".
type NeighborOp struct {
	Peer     int
	SendBuf  *gpu.Buffer
	SendType *datatype.Layout
	RecvBuf  *gpu.Buffer
	RecvType *datatype.Layout
	Count    int
}
