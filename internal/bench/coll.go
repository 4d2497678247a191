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

// collLayout is the per-leg datatype for the collective benchmarks: a
// 32 KiB strided vector, large enough to cross the eager limit so the
// staging and rendezvous paths engage (the regime the hierarchical
// algorithms target).
func collLayout() *datatype.Layout {
	return datatype.Commit(datatype.Vector(64, 64, 128, datatype.Float64))
}

// collSmallLayout is a sub-eager dense vector for the small-message
// columns (256 B per count unit).
func collSmallLayout() *datatype.Layout {
	return datatype.Commit(datatype.Vector(8, 4, 8, datatype.Float64))
}

// runCollAlltoallw runs one Alltoallw over the whole world and measures
// it. disableWindows turns the collective-scope fusion windows off,
// reverting to per-message launches — the ablation baseline.
func runCollAlltoallw(alg coll.Algorithm, disableWindows bool, l *datatype.Layout) (measure, error) {
	w, err := newWorld(cluster.Lassen(), schemes.Factory("Proposed-Tuned"), nil, "")
	if err != nil {
		return measure{}, err
	}
	size := w.Size()
	ops := make([][]coll.WOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		ops[r] = make([]coll.WOp, size)
		for peer := 0; peer < size; peer++ {
			count := 1 + (r+peer)%3
			sb := dev.Alloc(fmt.Sprintf("s-%d-%d", r, peer), int(l.ExtentBytes)*3)
			rb := dev.Alloc(fmt.Sprintf("r-%d-%d", r, peer), int(l.ExtentBytes)*3)
			workload.FillPattern(sb.Data, uint64(r*1000+peer))
			ops[r][peer] = coll.WOp{SendBuf: sb, SendType: l, SendCount: count, RecvBuf: rb, RecvType: l, RecvCount: count}
		}
	}
	e := coll.New(w, coll.Tuning{Alltoallw: alg, DisableFusionWindow: disableWindows})
	return run(w, nil, func(r *mpi.Rank, p *sim.Proc) error {
		return e.Alltoallw(p, r, ops[r.ID()])
	})
}

// runCollAllgatherv runs one Allgatherv over the whole world.
func runCollAllgatherv(alg coll.Algorithm, l *datatype.Layout) (measure, error) {
	w, err := newWorld(cluster.Lassen(), schemes.Factory("Proposed-Tuned"), nil, "")
	if err != nil {
		return measure{}, err
	}
	size := w.Size()
	sends := make([]coll.VOp, size)
	recvs := make([][]coll.VOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		count := 1 + r%3
		sb := dev.Alloc(fmt.Sprintf("ags-%d", r), int(l.ExtentBytes)*3)
		workload.FillPattern(sb.Data, uint64(r))
		sends[r] = coll.VOp{Buf: sb, Type: l, Count: count}
		recvs[r] = make([]coll.VOp, size)
		for src := 0; src < size; src++ {
			rb := dev.Alloc(fmt.Sprintf("agr-%d-%d", r, src), int(l.ExtentBytes)*3)
			recvs[r][src] = coll.VOp{Buf: rb, Type: l, Count: 1 + src%3}
		}
	}
	e := coll.New(w, coll.Tuning{Allgatherv: alg})
	return run(w, nil, func(r *mpi.Rank, p *sim.Proc) error {
		return e.Allgatherv(p, r, sends[r.ID()], recvs[r.ID()])
	})
}

// CollFusion measures the headline claim of the collectives subsystem:
// collective-scope fusion windows collapse per-message pack/unpack
// launches into per-phase fused launches. Same schedule, windows on vs
// off, for each Alltoallw algorithm on the full Lassen model (2 nodes ×
// 4 GPUs).
func CollFusion() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Collective-scope kernel fusion: Alltoallw, %s, 8 ranks, 32 KiB strided legs", cluster.Lassen().Name),
		Header: []string{"algorithm", "launches_fused", "launches_permsg", "launch_cut", "t_fused_us", "t_permsg_us", "speedup"},
	}
	for _, alg := range []coll.Algorithm{coll.Linear, coll.Pairwise, coll.Hierarchical} {
		fused, err1 := runCollAlltoallw(alg, false, collLayout())
		unfused, err2 := runCollAlltoallw(alg, true, collLayout())
		if err1 == nil {
			err1 = err2
		}
		if err1 != nil {
			t.Rows = append(t.Rows, t.errRow(err1, alg.String()))
			continue
		}
		t.Rows = append(t.Rows, []string{
			alg.String(),
			fmt.Sprint(fused.kernels), fmt.Sprint(unfused.kernels),
			fmt.Sprintf("%.1fx", float64(unfused.kernels)/float64(fused.kernels)),
			fmtUs(fused.virtNs), fmtUs(unfused.virtNs),
			fmt.Sprintf("%.2fx", float64(unfused.virtNs)/float64(fused.virtNs)),
		})
	}
	return t
}

// CollAlgorithms compares the Allgatherv algorithm menu at a small and a
// rendezvous-sized per-rank contribution, showing where the selection
// policy's crossovers sit (Bruck for latency-bound small messages,
// hierarchical two-level aggregation once the inter-node legs dominate).
func CollAlgorithms() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Allgatherv algorithms, %s, 8 ranks (us)", cluster.Lassen().Name),
		Header: []string{"algorithm", "small_us", "big_us", "launches_big"},
	}
	algs := []coll.Algorithm{coll.Linear, coll.Ring, coll.Bruck, coll.RecursiveDoubling, coll.Hierarchical}
	for _, alg := range algs {
		small, err1 := runCollAllgatherv(alg, collSmallLayout())
		big, err2 := runCollAllgatherv(alg, collLayout())
		if err1 == nil {
			err1 = err2
		}
		if err1 != nil {
			t.Rows = append(t.Rows, t.errRow(err1, alg.String()))
			continue
		}
		t.Rows = append(t.Rows, []string{
			alg.String(), fmtUs(small.virtNs), fmtUs(big.virtNs), fmt.Sprint(big.kernels),
		})
	}
	return t
}

// Coll bundles the collectives-subsystem experiment tables (ddtbench
// -fig coll).
func Coll() []*Table {
	return []*Table{CollFusion(), CollAlgorithms()}
}
