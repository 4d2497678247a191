package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The scale benchmark drives the simulator core to 1024 ranks (256 Lassen
// nodes), the regime the lazy-bytes payload mode and the pooled-worker /
// sharded-event-queue scheduler exist for. Two communication patterns:
//
//   - a2a-hier: sparse personalized Alltoallw (each rank exchanges 32 KiB
//     strided legs with its 16 wrap-around neighbors; the other legs are
//     zero, which the hierarchical schedule skips entirely) under the
//     two-level node-leader aggregation.
//   - halo3d: one 3D halo timestep — a NeighborAlltoallw of the six faces
//     of a 16^3 double grid over a periodic Cartesian decomposition.
//
// Byte-exact rows are capped at 64 ranks: real bytes make memory and copy
// cost scale with ranks x message size (the 8-rank exact row is the
// reference the conformance suite checks lazy mode against). Lazy rows
// carry payloads as span algebra, so the same patterns reach 1024 ranks
// in seconds of wall time with near-flat per-rank allocation.

// scalePollNs is the progress-engine poll period for scale runs. The
// 200 ns default generates poll events proportional to ranks x
// virtual-time/200ns — billions at 1024 ranks; 5 us keeps the event queue
// tractable without perturbing the multi-microsecond collective phases.
const scalePollNs = 5000

// scaleNeighbors is the sparse all-to-all degree: 8 wrap-around peers on
// each side.
const scaleNeighbors = 16

// scaleWorld builds the Lassen-model world of ranks/4 nodes that the
// scale, chaos-scale and rma tables share, polling every scalePollNs; mut
// is the table's own config hook. lazy flips every device to the 4 KiB
// lazy-bytes threshold.
func scaleWorld(ranks int, lazy bool, mut func(*mpi.Config)) (*mpi.World, error) {
	if ranks < 8 || ranks%4 != 0 {
		return nil, fmt.Errorf("bench: scale needs ranks >= 8 divisible by 4, got %d", ranks)
	}
	w, err := newWorld(cluster.Lassen().WithNodes(ranks/4), schemes.Factory("Proposed-Tuned"), func(c *mpi.Config) {
		c.PollIntervalNs = scalePollNs
		if mut != nil {
			mut(c)
		}
	}, "")
	if err == nil && lazy {
		for i := 0; i < w.Size(); i++ {
			w.Rank(i).Dev.LazyThreshold = 4096
		}
	}
	return w, err
}

// makeScaleA2AOps builds the sparse op matrix over the whole world.
func makeScaleA2AOps(w *mpi.World, l *datatype.Layout) [][]coll.WOp {
	members := make([]int, w.Size())
	for i := range members {
		members[i] = i
	}
	return sparseA2AOps(w, members, l, "sc")
}

// sparseA2AOps builds the sparse op matrix of a communicator whose world
// ranks members lists in comm-rank order: every rank has nonzero legs only
// with its scaleNeighbors wrap-around peers, a comm-sized op vector
// otherwise zero. prefix keeps buffer names unique per device.
func sparseA2AOps(w *mpi.World, members []int, l *datatype.Layout, prefix string) [][]coll.WOp {
	size := len(members)
	half := scaleNeighbors / 2
	ops := make([][]coll.WOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(members[r]).Dev
		ops[r] = make([]coll.WOp, size)
		for d := 1; d <= half; d++ {
			for _, peer := range []int{(r + d) % size, (r - d + size) % size} {
				if ops[r][peer].SendBuf != nil {
					continue // tiny worlds: +d and -d can alias
				}
				sb := dev.Alloc(fmt.Sprintf("%s-s-%d-%d", prefix, r, peer), int(l.ExtentBytes))
				rb := dev.Alloc(fmt.Sprintf("%s-r-%d-%d", prefix, r, peer), int(l.ExtentBytes))
				sb.FillStream(uint64(r)<<32 | uint64(peer+1))
				ops[r][peer] = coll.WOp{SendBuf: sb, SendType: l, SendCount: 1, RecvBuf: rb, RecvType: l, RecvCount: 1}
			}
		}
	}
	return ops
}

// runScaleA2A runs the sparse hierarchical Alltoallw — the shape the
// hierarchical schedule's zero-leg skipping turns from O(ranks^2) into
// O(ranks x K).
func runScaleA2A(ranks int, lazy bool) (measure, error) {
	w, err := scaleWorld(ranks, lazy, nil)
	if err != nil {
		return measure{}, err
	}
	ops := makeScaleA2AOps(w, collLayout()) // 32 KiB strided legs
	e := coll.New(w, coll.Tuning{Alltoallw: coll.Hierarchical})
	return run(w, nil, func(r *mpi.Rank, p *sim.Proc) error {
		return e.Alltoallw(p, r, ops[r.ID()])
	})
}

// runScaleHalo runs one 3D halo timestep: the six faces of an n^3 double
// grid exchanged as a fused NeighborAlltoallw over a periodic Cartesian
// decomposition of all ranks.
func runScaleHalo(ranks int, lazy bool) (measure, error) {
	w, err := scaleWorld(ranks, lazy, nil)
	if err != nil {
		return measure{}, err
	}
	cart := w.CartCreate(workload.Dims3(ranks), []bool{true, true, true})
	const n = 16
	faces := workload.HaloFaces(n)
	size := w.Size()
	gridBytes := n * n * n * 8
	ops := make([][]mpi.NeighborOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		grid := dev.Alloc(fmt.Sprintf("hg-%d", r), gridBytes)
		ghost := dev.Alloc(fmt.Sprintf("hh-%d", r), gridBytes)
		grid.FillStream(uint64(r + 1))
		ops[r] = workload.HaloOps(cart, r, faces, grid, ghost)
	}
	e := coll.New(w, coll.Tuning{})
	return run(w, nil, func(r *mpi.Rank, p *sim.Proc) error {
		return e.NeighborAlltoallw(p, r, ops[r.ID()])
	})
}

// scaleRow runs one (pattern, ranks, mode) cell of t and renders it.
func scaleRow(t *Table, pattern string, ranks int, lazy bool) []string {
	runCell := runScaleA2A
	if pattern == "halo3d" {
		runCell = runScaleHalo
	}
	mode := "exact"
	if lazy {
		mode = "lazy"
	}
	keys := []string{pattern, fmt.Sprint(ranks), fmt.Sprint(ranks / 4), mode}
	m, err := runCell(ranks, lazy)
	if err != nil {
		return t.errRow(err, keys...)
	}
	return append(keys, m.cells()...)
}

// Scale is the scaling benchmark table (ddtbench -fig scale): wall time
// and allocation volume for both patterns across rank counts up to
// maxRanks. Exact mode stops at 64 ranks by design (see the file comment).
func Scale(maxRanks int) *Table {
	t := &Table{
		Title: fmt.Sprintf("Scale: sparse Alltoallw-hier (16 peers x 32 KiB) and halo3d (16^3 doubles), Lassen model, Proposed-Tuned, poll %d ns",
			int64(scalePollNs)),
		Header: []string{"pattern", "ranks", "nodes", "mode", "virt_ms", "wall_ms", "alloc_MB", "kernels"},
	}
	for _, pattern := range []string{"a2a-hier", "halo3d"} {
		for _, ranks := range []int{8, 64, 256, 1024} {
			if ranks > maxRanks {
				continue
			}
			if ranks <= 64 {
				t.Rows = append(t.Rows, scaleRow(t, pattern, ranks, false))
			}
			t.Rows = append(t.Rows, scaleRow(t, pattern, ranks, true))
		}
	}
	return t
}
