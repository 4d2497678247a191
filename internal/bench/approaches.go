package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file reproduces the paper's Section III analysis: the three ways an
// application can move bulk non-contiguous GPU data with MPI (Fig. 4 and
// Algorithms 1-3), measured head to head.
//
//	Algorithm 1 — MPI-level explicit: blocking MPI_Pack / MPI_Unpack
//	              around contiguous sends; every pack synchronizes.
//	Algorithm 2 — application-level explicit: the app launches its own
//	              pack/unpack kernels with one synchronization per phase,
//	              then sends contiguous buffers.
//	Algorithm 3 — MPI-level implicit: non-contiguous buffers passed
//	              straight to Isend/Irecv; the runtime's DDT scheme
//	              (including the proposed fusion) handles packing.
type approachFn func(r *mpi.Rank, p *sim.Proc, l *datatype.Layout, it int, sb, rb []*gpu.Buffer, peer int, sender bool) error

// Algorithm 1: MPI-level explicit pack/unpack.
func algorithm1(r *mpi.Rank, p *sim.Proc, l *datatype.Layout, it int, sb, rb []*gpu.Buffer, peer int, sender bool) error {
	packedType := datatype.Commit(datatype.Contiguous(int(l.SizeBytes), datatype.Byte))
	var reqs []*mpi.Request
	if sender {
		for i := range sb {
			staging := r.Dev.Alloc(fmt.Sprintf("alg1-s%d-%d", it, i), int(l.SizeBytes))
			var pos int64
			r.Pack(p, sb[i], l, 1, staging, &pos) // blocking (red line in Fig. 4a)
			reqs = append(reqs, r.Isend(p, peer, i, staging, packedType, 1))
		}
		return r.Waitall(p, reqs)
	}
	stagings := make([]*gpu.Buffer, len(rb))
	for i := range rb {
		stagings[i] = r.Dev.Alloc(fmt.Sprintf("alg1-r%d-%d", it, i), int(l.SizeBytes))
		reqs = append(reqs, r.Irecv(p, peer, i, stagings[i], packedType, 1))
	}
	if err := r.Waitall(p, reqs); err != nil {
		return err
	}
	for i := range rb {
		var pos int64
		r.Unpack(p, stagings[i], &pos, rb[i], l, 1) // blocking
	}
	return nil
}

// Algorithm 2: application-level explicit pack/unpack — custom kernels,
// one synchronization per phase, no overlap with communication.
func algorithm2(r *mpi.Rank, p *sim.Proc, l *datatype.Layout, it int, sb, rb []*gpu.Buffer, peer int, sender bool) error {
	packedType := datatype.Commit(datatype.Contiguous(int(l.SizeBytes), datatype.Byte))
	st := r.Dev.NewStream("app-pack")
	var reqs []*mpi.Request
	if sender {
		stagings := make([]*gpu.Buffer, len(sb))
		for i := range sb {
			stagings[i] = r.Dev.Alloc(fmt.Sprintf("alg2-s%d-%d", it, i), int(l.SizeBytes))
			job := pack.NewJob(pack.OpPack, sb[i], stagings[i], l.Blocks)
			st.Launch(p, job.KernelSpec())
		}
		st.Synchronize(p) // single sync at the kernel boundary (Alg. 2 line 6)
		for i := range sb {
			reqs = append(reqs, r.Isend(p, peer, i, stagings[i], packedType, 1))
		}
		return r.Waitall(p, reqs)
	}
	stagings := make([]*gpu.Buffer, len(rb))
	for i := range rb {
		stagings[i] = r.Dev.Alloc(fmt.Sprintf("alg2-r%d-%d", it, i), int(l.SizeBytes))
		reqs = append(reqs, r.Irecv(p, peer, i, stagings[i], packedType, 1))
	}
	if err := r.Waitall(p, reqs); err != nil {
		return err
	}
	for i := range rb {
		job := pack.NewJob(pack.OpUnpack, stagings[i], rb[i], l.Blocks)
		st.Launch(p, job.KernelSpec())
	}
	st.Synchronize(p) // Alg. 2 line 17
	return nil
}

// Algorithm 3: MPI-level implicit — the 10-line productive version.
func algorithm3(r *mpi.Rank, p *sim.Proc, l *datatype.Layout, it int, sb, rb []*gpu.Buffer, peer int, sender bool) error {
	var reqs []*mpi.Request
	if sender {
		for i := range sb {
			reqs = append(reqs, r.Isend(p, peer, i, sb[i], l, 1))
		}
	} else {
		for i := range rb {
			reqs = append(reqs, r.Irecv(p, peer, i, rb[i], l, 1))
		}
	}
	return r.Waitall(p, reqs)
}

// runApproach measures one approach under one underlying scheme on Lassen.
func runApproach(scheme string, wl workload.Workload, dim, nbuf int, fn approachFn) BulkResult {
	const warmup, iters = 2, 3
	res := BulkResult{Scheme: scheme}
	system := cluster.Lassen()
	w, err := newWorld(system, schemes.Factory(scheme), nil, "")
	if err != nil {
		res.VerifyErr = err
		return res
	}
	l := wl.Layout(dim)
	res.MsgBytes, res.Blocks = l.SizeBytes, l.NumBlocks()
	a, bPeer := 0, system.GPUsPerNode
	sb := make([]*gpu.Buffer, nbuf)
	rb := make([]*gpu.Buffer, nbuf)
	for i := range sb {
		sb[i] = w.Rank(a).Dev.Alloc(fmt.Sprintf("s%d", i), int(l.ExtentBytes))
		rb[i] = w.Rank(bPeer).Dev.Alloc(fmt.Sprintf("r%d", i), int(l.ExtentBytes))
		workload.FillPattern(sb[i].Data, uint64(i+1))
	}
	var total int64
	if _, err := run(w, nil, func(r *mpi.Rank, p *sim.Proc) error {
		t, err := timedSteps(w, p, warmup, iters, nil, func(it int) error {
			switch r.ID() {
			case a:
				return fn(r, p, l, it, sb, rb, bPeer, true)
			case bPeer:
				return fn(r, p, l, it, sb, rb, a, false)
			}
			return nil
		})
		if r.ID() == a {
			total = t
		}
		return err
	}); err != nil {
		res.VerifyErr = err
		return res
	}
	res.AvgNs = total / iters
	for i := range sb {
		if err := workload.VerifyBlocks(l, 1, sb[i].Data, rb[i].Data); err != nil {
			res.VerifyErr = fmt.Errorf("buffer %d: %w", i, err)
			return res
		}
	}
	return res
}

// Approaches compares the three Section III approaches on a sparse
// workload: explicit MPI pack (Alg. 1), application-level kernels (Alg. 2),
// and implicit DDT under both a legacy scheme and the proposed fusion.
func Approaches() *Table {
	wl := workload.Specfem3DCM()
	const dim, nbuf = 32, 16
	t := &Table{
		Title: fmt.Sprintf("Section III approaches: %s dim=%d, %d buffers, %s (us, lower is better)",
			wl.Name, dim, nbuf, cluster.Lassen().Name),
		Header: []string{"approach", "ddt_scheme", "latency_us"},
	}
	rows := []struct {
		name   string
		scheme string
		fn     approachFn
	}{
		{"Alg1 MPI explicit pack", "GPU-Sync", algorithm1},
		{"Alg2 app-level kernels", "GPU-Sync", algorithm2},
		{"Alg3 implicit (GPU-Sync)", "GPU-Sync", algorithm3},
		{"Alg3 implicit (Proposed)", "Proposed-Tuned", algorithm3},
	}
	for _, row := range rows {
		r := runApproach(row.scheme, wl, dim, nbuf, row.fn)
		t.Rows = append(t.Rows, []string{row.name, row.scheme, t.cell(r)})
	}
	return t
}
