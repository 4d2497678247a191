// Package workload provides the application-kernel datatype layouts the
// paper evaluates (Section V-A), modeled on ddtbench and the LLNL Comb 3D
// domain-decomposition kernel:
//
//	specfem3D_oc — MPI indexed, sparse: thousands of single-element
//	               blocks (Geophysics, SPECFEM3D ocean/crust boundary)
//	specfem3D_cm — struct-on-indexed, sparse (crust-mantle boundary:
//	               displacement/velocity/acceleration fields)
//	MILC         — nested vector over su3 matrices, dense-ish small
//	               blocks (Lattice QCD, zdown face)
//	NAS_MG       — vector with fat blocks (Fluid dynamics, 3D grid face)
//
// Each workload maps a "dimension size" (the x-axis of the paper's figures)
// to a committed datatype, so benchmarks sweep exactly like the paper does.
package workload

import (
	"fmt"

	"repro/internal/datatype"
)

// Kind classifies a layout the way the paper's text does.
type Kind string

const (
	// Sparse layouts have thousands of tiny blocks.
	Sparse Kind = "sparse"
	// Dense layouts have fewer, fatter blocks.
	Dense Kind = "dense"
)

// Workload describes one application kernel's datatype family.
type Workload struct {
	// Name matches the paper's legends (specfem3D_oc, specfem3D_cm,
	// MILC, NAS_MG).
	Name string
	// Kind is the paper's sparse/dense classification.
	Kind Kind
	// Build returns the (uncommitted) datatype for a dimension size.
	Build func(dim int) datatype.Type
	// Dims is the representative sweep used in the figures.
	Dims []int
}

// Layout commits the datatype for dim.
func (w Workload) Layout(dim int) *datatype.Layout {
	return datatype.Commit(w.Build(dim))
}

// lcg is a tiny deterministic generator so layouts are stable across runs
// without importing math/rand into layout construction.
type lcg uint64

func (g *lcg) next(n int) int {
	*g = *g*6364136223846793005 + 1442695040888963407
	return int((uint64(*g) >> 33) % uint64(n))
}

// Specfem3DOC is the sparse indexed "ocean crust" boundary: ~2·dim² blocks
// of one float each, irregular gaps.
func Specfem3DOC() Workload {
	return Workload{
		Name: "specfem3D_oc",
		Kind: Sparse,
		Dims: []int{8, 16, 24, 32, 48, 64},
		Build: func(dim int) datatype.Type {
			n := 2 * dim * dim
			g := lcg(uint64(dim) * 1009)
			lens := make([]int, n)
			displs := make([]int, n)
			pos := 0
			for i := 0; i < n; i++ {
				lens[i] = 1
				displs[i] = pos
				pos += 2 + g.next(4) // 1-4 element holes
			}
			return datatype.Indexed(lens, displs, datatype.Float32)
		},
	}
}

// Specfem3DCM is the sparse struct-on-indexed crust-mantle boundary: three
// field arrays (displacement, velocity, acceleration), each an indexed type
// of dim² small blocks, at distinct displacements — the "struct-on-indexed"
// type the paper uses for Fig. 8 and Fig. 9.
func Specfem3DCM() Workload {
	return Workload{
		Name: "specfem3D_cm",
		Kind: Sparse,
		Dims: []int{8, 16, 24, 32, 48, 64},
		Build: func(dim int) datatype.Type {
			n := dim * dim
			field := func(seed uint64) datatype.Type {
				g := lcg(seed)
				lens := make([]int, n)
				displs := make([]int, n)
				pos := 0
				for i := 0; i < n; i++ {
					lens[i] = 1 + g.next(3) // 1-3 floats
					displs[i] = pos
					pos += lens[i] + 1 + g.next(3)
				}
				return datatype.Indexed(lens, displs, datatype.Float32)
			}
			f1 := field(uint64(dim) * 31)
			f2 := field(uint64(dim) * 37)
			f3 := field(uint64(dim) * 41)
			d1 := int64(0)
			d2 := d1 + f1.Extent() + 64
			d3 := d2 + f2.Extent() + 64
			return datatype.Struct(
				[]int{1, 1, 1},
				[]int64{d1, d2, d3},
				[]datatype.Type{f1, f2, f3},
			)
		},
	}
}

// MILC is the Lattice QCD su3 zdown face: a nested vector over su3
// matrices (3x3 single-precision complex = 72 bytes), dim² blocks of two
// matrices each — dense by the paper's classification (small block count,
// fatter blocks than specfem).
func MILC() Workload {
	return Workload{
		Name: "MILC",
		Kind: Dense,
		Dims: []int{4, 8, 12, 16, 24, 32},
		Build: func(dim int) datatype.Type {
			// The performance-relevant geometry is dim^2 blocks of
			// 144 B; the strides are compacted (one-site gaps
			// rather than whole-lattice gaps) so benchmark buffers
			// stay at O(dim^2) instead of O(dim^3) memory while the
			// pack kernels see the identical segment structure.
			su3 := datatype.Contiguous(18, datatype.Float32)           // 72 B
			site := datatype.Contiguous(2, su3)                        // 144 B
			row := datatype.Hvector(dim, 1, 2*144, site)               // dim blocks
			return datatype.Hvector(dim, 1, int64(2*144*dim)+144, row) // dim^2 blocks
		},
	}
}

// NASMG is the NAS MG y-face: a plain vector of dim blocks, each dim
// doubles long — the large dense layout of Fig. 12(d)/13(d).
func NASMG() Workload {
	return Workload{
		Name: "NAS_MG",
		Kind: Dense,
		Dims: []int{16, 32, 64, 128, 256, 384},
		Build: func(dim int) datatype.Type {
			// A y-face: dim blocks of dim doubles. The true grid
			// stride is dim^2 doubles; a 2*dim stride preserves the
			// non-contiguous block structure while keeping the
			// benchmark footprint at O(dim^2) bytes.
			return datatype.Vector(dim, dim, 2*dim, datatype.Float64)
		},
	}
}

// All returns the four paper workloads in figure order.
func All() []Workload {
	return []Workload{Specfem3DOC(), Specfem3DCM(), MILC(), NASMG()}
}

// ByName finds a workload by its paper legend name.
func ByName(name string) (Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// FillPattern writes a deterministic, offset-dependent pattern so that
// copies to the wrong place are detectable.
func FillPattern(data []byte, seed uint64) {
	g := lcg(seed | 1)
	for i := range data {
		data[i] = byte(g.next(256))
	}
}

// VerifyBlocks checks that every layout-covered byte of got equals want.
// It returns a descriptive error naming the first mismatching block.
func VerifyBlocks(l *datatype.Layout, count int, want, got []byte) error {
	for _, b := range l.Repeat(count) {
		for off := b.Offset; off < b.Offset+b.Len; off++ {
			if got[off] != want[off] {
				return fmt.Errorf("workload: mismatch at byte %d of block %+v", off, b)
			}
		}
	}
	return nil
}
