package bench

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/workload"
)

// CSV renders the table as comma-separated values (for plotting).
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// ExtendedWorkloads sweeps every implemented ddtbench workload (the
// paper's four plus WRF, LAMMPS_full, NAS_LU, FFT2D) under the legacy
// GPU-Sync scheme, the tuned proposal, and the auto-tuned variant.
func ExtendedWorkloads() *Table {
	system := cluster.Lassen()
	schemesList := []string{"GPU-Sync", "Proposed-Tuned", "Proposed-Auto"}
	t := &Table{
		Title:  fmt.Sprintf("Extended workloads, 16 buffers, %s (us, lower is better)", system.Name),
		Header: append([]string{"workload", "dim", "blocks", "msg_KB"}, schemesList...),
	}
	for _, wl := range workload.Extended() {
		dim := wl.Dims[len(wl.Dims)/2]
		l := wl.Layout(dim)
		row := []string{wl.Name, fmt.Sprint(dim), fmt.Sprint(l.NumBlocks()),
			fmt.Sprintf("%.1f", float64(l.SizeBytes)/1024)}
		for _, s := range schemesList {
			r := RunBulk(BulkOptions{System: system, Scheme: s, Workload: wl, Dim: dim, Buffers: 16})
			row = append(row, t.cell(r))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Scaling runs a ring halo exchange of MILC dim=16 across an increasing
// number of Lassen nodes (one active GPU per node), the paper's "running
// at scale" future-work direction: per-step latency should stay flat as
// the ring grows because every link carries the same load.
func Scaling() *Table {
	base, wl, dim := cluster.Lassen(), workload.MILC(), 16
	t := &Table{
		Title:  fmt.Sprintf("Node scaling: ring exchange, %s dim=%d, %s (us per step)", wl.Name, dim, base.Name),
		Header: []string{"nodes", "GPU-Sync", "Proposed-Tuned"},
	}
	for _, nodes := range []int{2, 4, 8} {
		row := []string{fmt.Sprint(nodes)}
		for _, scheme := range []string{"GPU-Sync", "Proposed-Tuned"} {
			row = append(row, t.cell(runRing(base.WithNodes(nodes), scheme, wl, dim)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// runRing measures a node-ring exchange: GPU 0 of each node sends to GPU 0
// of the next node and receives from the previous, 8 buffers per step.
func runRing(spec cluster.Spec, scheme string, wl workload.Workload, dim int) BulkResult {
	const nbuf, warmup, iters = 8, 2, 3
	res := BulkResult{Scheme: scheme}
	w, err := newWorld(spec, schemes.Factory(scheme), nil, "")
	if err != nil {
		res.VerifyErr = err
		return res
	}
	l := wl.Layout(dim)
	res.MsgBytes, res.Blocks = l.SizeBytes, l.NumBlocks()
	g := spec.GPUsPerNode
	nodes := spec.Nodes
	actor := func(rank int) (node int, active bool) {
		return rank / g, rank%g == 0
	}
	sbufs := make(map[int][]*gpu.Buffer)
	rbufs := make(map[int][]*gpu.Buffer)
	for rk := 0; rk < w.Size(); rk++ {
		if _, active := actor(rk); !active {
			continue
		}
		for i := 0; i < nbuf; i++ {
			sb := w.Rank(rk).Dev.Alloc(fmt.Sprintf("s%d-%d", rk, i), int(l.ExtentBytes))
			workload.FillPattern(sb.Data, uint64(rk*97+i))
			sbufs[rk] = append(sbufs[rk], sb)
			rbufs[rk] = append(rbufs[rk], w.Rank(rk).Dev.Alloc(fmt.Sprintf("r%d-%d", rk, i), int(l.ExtentBytes)))
		}
	}
	var total int64
	if _, err := run(w, nil, func(r *mpi.Rank, p *sim.Proc) error {
		node, active := actor(r.ID())
		next := ((node + 1) % nodes) * g
		prev := ((node + nodes - 1) % nodes) * g
		t, err := timedSteps(w, p, warmup, iters, nil, func(int) error {
			if !active {
				return nil
			}
			var reqs []*mpi.Request
			for i := 0; i < nbuf; i++ {
				reqs = append(reqs, r.Irecv(p, prev, i, rbufs[r.ID()][i], l, 1))
			}
			for i := 0; i < nbuf; i++ {
				reqs = append(reqs, r.Isend(p, next, i, sbufs[r.ID()][i], l, 1))
			}
			return r.Waitall(p, reqs)
		})
		if r.ID() == 0 {
			total = t
		}
		return err
	}); err != nil {
		res.VerifyErr = err
		return res
	}
	res.AvgNs = total / iters
	// Verify the whole ring.
	for rk := range rbufs {
		node := rk / g
		prevRank := ((node + nodes - 1) % nodes) * g
		for i := 0; i < nbuf; i++ {
			if err := workload.VerifyBlocks(l, 1, sbufs[prevRank][i].Data, rbufs[rk][i].Data); err != nil {
				res.VerifyErr = fmt.Errorf("rank %d buffer %d: %w", rk, i, err)
				return res
			}
		}
	}
	return res
}

// IPCPaths compares the three ways a same-node exchange can travel on
// Lassen: DirectIPC fused into kernels (zero-copy over NVLink), the packed
// path with IPC disabled (pack -> peer copy -> unpack), and the equivalent
// inter-node exchange over InfiniBand — quantifying the zero-copy win of
// [24] that the fusion framework inherits as its third request type.
func IPCPaths() *Table {
	system := cluster.Lassen()
	wl := workload.MILC()
	const dim, nbuf = 16, 8
	t := &Table{
		Title:  fmt.Sprintf("DirectIPC paths: %s dim=%d, %d buffers, %s (us)", wl.Name, dim, nbuf, system.Name),
		Header: []string{"path", "latency_us"},
	}
	cases := []struct {
		name  string
		intra bool
		mut   func(*mpi.Config)
	}{
		{"intra-node DirectIPC (fused)", true, nil},
		{"intra-node packed (IPC off)", true, func(c *mpi.Config) { c.DisableIPC = true }},
		{"inter-node over IB", false, nil},
	}
	for _, cse := range cases {
		r := RunBulk(BulkOptions{
			System: system, Scheme: "Proposed-Tuned", Workload: wl,
			Dim: dim, Buffers: nbuf, IntraNode: cse.intra, MutateMPI: cse.mut,
		})
		t.Rows = append(t.Rows, []string{cse.name, t.cell(r)})
	}
	return t
}
