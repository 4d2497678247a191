package bench

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig1 reproduces the motivating breakdown: pack-kernel execution time vs
// kernel-launch overhead across GPU generations for the Specfem3D and MILC
// packing shapes. Launch dominates on every modern generation.
func Fig1() *Table {
	t := &Table{
		Title:  "Fig 1: packing kernel vs launch overhead across GPU generations (us)",
		Header: []string{"gpu", "workload", "kernel_us", "launch_us", "launch_share"},
	}
	wls := []struct {
		w   workload.Workload
		dim int
	}{
		{workload.Specfem3DCM(), 32},
		{workload.MILC(), 16},
	}
	for _, arch := range cluster.FigureOneArchs() {
		env := sim.NewEnv()
		dev := gpu.NewDevice(env, arch, 0, 0)
		for _, wl := range wls {
			l := wl.w.Layout(wl.dim)
			k := dev.EstimateKernelNs(l.SizeBytes, l.NumBlocks(), l.MaxBlockBytes)
			launch := arch.LaunchOverheadNs
			t.Rows = append(t.Rows, []string{
				arch.Name, wl.w.Name, fmtUs(k), fmtUs(launch),
				fmt.Sprintf("%.0f%%", 100*float64(launch)/float64(launch+k)),
			})
		}
	}
	return t
}

// Fig8 reproduces the fusion-threshold sweep on Lassen: specfem3D_cm with
// 32 outstanding operations, latency vs input size for several thresholds —
// under-fused at the low end, over-fused at the high end.
func Fig8() *Table {
	system := cluster.Lassen()
	thresholds := []int64{16 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20, 4 << 20}
	wl := workload.Specfem3DCM()
	dims := wl.Dims
	t := &Table{
		Title:  fmt.Sprintf("Fig 8: fused-kernel threshold sweep, %s, 32 ops, %s (us)", wl.Name, system.Name),
		Header: []string{"dim", "msg_KB"},
	}
	for _, th := range thresholds {
		t.Header = append(t.Header, fmt.Sprintf("thr=%dKB", th>>10))
	}
	for _, d := range dims {
		l := wl.Layout(d)
		row := []string{fmt.Sprint(d), fmt.Sprintf("%.1f", float64(l.SizeBytes)/1024)}
		for _, th := range thresholds {
			r := RunBulk(BulkOptions{
				System: system, Scheme: "Proposed", Workload: wl, Dim: d,
				Buffers: 16, FusionThreshold: th,
			})
			row = append(row, t.cell(r))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// bulkSchemes are the series of Figs. 9-13.
var bulkSchemes = []string{"GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "Proposed", "Proposed-Tuned"}

// cell formats one measurement of t, flagging verification failures
// loudly: the cell reads CORRUPT and the error joins t.Corrupt.
func (t *Table) cell(r BulkResult) string {
	if r.VerifyErr != nil {
		t.Corrupt = append(t.Corrupt, r.VerifyErr)
		return "CORRUPT"
	}
	return fmtUs(r.AvgNs)
}

// figBuffersSweep runs a Fig-9/10-shaped sweep: latency vs number of
// exchanged buffers at a fixed dimension.
func figBuffersSweep(title string, system cluster.Spec, wl workload.Workload, dim int) *Table {
	t := &Table{Title: title, Header: []string{"buffers"}}
	for _, s := range bulkSchemes {
		t.Header = append(t.Header, s)
	}
	for _, nbuf := range []int{1, 2, 4, 8, 16} {
		row := []string{fmt.Sprint(nbuf)}
		for _, s := range bulkSchemes {
			r := RunBulk(BulkOptions{System: system, Scheme: s, Workload: wl, Dim: dim, Buffers: nbuf})
			row = append(row, t.cell(r))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig9 reproduces bulk sparse inter-node transfer on Lassen: specfem3D_cm,
// 1-16 buffers (lower is better; proposed wins up to ~6X).
func Fig9() *Table {
	return figBuffersSweep(
		"Fig 9: bulk sparse inter-node, specfem3D_cm dim=32, Lassen (us, lower is better)",
		cluster.Lassen(), workload.Specfem3DCM(), 32)
}

// Fig10 reproduces bulk dense transfer on Lassen: MILC, 1-16 buffers
// (CPU-GPU-Hybrid wins the small dense cases). The paper's point is made
// with small messages: dim=8 is a ~9 KiB eager-range dense payload.
func Fig10() *Table {
	return figBuffersSweep(
		"Fig 10: bulk dense inter-node, MILC dim=8, Lassen (us, lower is better)",
		cluster.Lassen(), workload.MILC(), 8)
}

// Fig11 reproduces the time breakdown of the GPU-driven designs: MILC with
// 16 back-to-back transfers on ABCI, costs split per the paper's taxonomy.
func Fig11() *Table {
	t := &Table{
		Title:  "Fig 11: time breakdown, MILC dim=16 x16 buffers, ABCI (us per iteration)",
		Header: []string{"scheme"},
	}
	iters := 3
	var pers []trace.Breakdown
	schemeNames := []string{"GPU-Sync", "GPU-Async", "Proposed-Tuned"}
	for _, s := range schemeNames {
		r := RunBulk(BulkOptions{
			System: cluster.ABCI(), Scheme: s, Workload: workload.MILC(),
			Dim: 16, Buffers: 16, Iterations: iters,
		})
		pers = append(pers, r.Breakdown.Scale(int64(iters)))
	}
	// Figure runs are fault-free, so the Retrans bucket (and any future
	// recovery-only category) stays out of the table unless it accrued.
	var cats []trace.Category
	for _, c := range trace.Categories() {
		keep := c <= trace.Other
		for _, per := range pers {
			if per.Get(c) != 0 {
				keep = true
			}
		}
		if keep {
			cats = append(cats, c)
		}
	}
	for _, c := range cats {
		t.Header = append(t.Header, c.String())
	}
	for i, s := range schemeNames {
		row := []string{s}
		for _, c := range cats {
			row = append(row, fmtUs(pers[i].Get(c)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// figWorkloadSweep runs a Fig-12/13-shaped sweep: latency vs dimension for
// one workload with 32 outstanding operations.
func figWorkloadSweep(fig string, system cluster.Spec, wl workload.Workload) *Table {
	t := &Table{
		Title:  fmt.Sprintf("%s: 3D halo (32 ops), %s, %s (us, lower is better)", fig, wl.Name, system.Name),
		Header: []string{"dim", "msg_KB"},
	}
	for _, s := range bulkSchemes {
		t.Header = append(t.Header, s)
	}
	for _, d := range wl.Dims {
		l := wl.Layout(d)
		row := []string{fmt.Sprint(d), fmt.Sprintf("%.1f", float64(l.SizeBytes)/1024)}
		for _, s := range bulkSchemes {
			r := RunBulk(BulkOptions{System: system, Scheme: s, Workload: wl, Dim: d, Buffers: 16})
			row = append(row, t.cell(r))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// figHalo runs the four sub-figures of Fig. 12 or 13 on system
// (a: specfem3D_oc, b: specfem3D_cm, c: MILC, d: NAS_MG).
func figHalo(fig int, system cluster.Spec) []*Table {
	var out []*Table
	for i, wl := range workload.All() {
		out = append(out, figWorkloadSweep(fmt.Sprintf("Fig %d(%c)", fig, 'a'+i), system, wl))
	}
	return out
}

// Fig12 reproduces the four Lassen sub-figures.
func Fig12() []*Table { return figHalo(12, cluster.Lassen()) }

// Fig13 reproduces the same four sweeps on ABCI.
func Fig13() []*Table { return figHalo(13, cluster.ABCI()) }

// Fig14 compares against production libraries on Lassen, normalized to
// SpectrumMPI (higher is better): SpectrumMPI and OpenMPI use the naive
// per-block memcpy path, MVAPICH2-GDR the adaptive hybrid, plus the
// proposed design.
func Fig14() *Table {
	libs := []string{"SpectrumMPI", "OpenMPI", "MVAPICH2-GDR", "Proposed-Tuned"}
	t := &Table{
		Title:  "Fig 14: production libraries, Lassen, normalized to SpectrumMPI (higher is better)",
		Header: append([]string{"workload", "dim"}, libs...),
	}
	cases := []struct {
		wl  workload.Workload
		dim int
	}{
		{workload.Specfem3DOC(), 16},
		{workload.Specfem3DCM(), 16},
		{workload.MILC(), 8},
		{workload.NASMG(), 64},
	}
	for _, c := range cases {
		lat := make([]int64, len(libs))
		for i, lib := range libs {
			r := RunBulk(BulkOptions{
				System: cluster.Lassen(), Scheme: lib, Workload: c.wl,
				Dim: c.dim, Buffers: 4, Iterations: 2, Warmup: 1,
			})
			if r.VerifyErr != nil {
				lat[i] = -1
			} else {
				lat[i] = r.AvgNs
			}
		}
		row := []string{c.wl.Name, fmt.Sprint(c.dim)}
		base := lat[0]
		for _, v := range lat {
			if v <= 0 {
				row = append(row, "CORRUPT")
				continue
			}
			row = append(row, fmt.Sprintf("%.1fx", float64(base)/float64(v)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// registry is the one table registry: every ddtbench table by id, in the
// order -fig all runs them — the paper's figures, its other evaluation
// tables, then this repository's own experiments.
var registry = []struct {
	id  string
	run func() []*Table
}{
	{"1", one(Fig1)},
	{"8", one(Fig8)},
	{"9", one(Fig9)},
	{"10", one(Fig10)},
	{"11", one(Fig11)},
	{"12", Fig12},
	{"13", Fig13},
	{"14", one(Fig14)},
	{"approaches", one(Approaches)},
	{"table1", one(TableOne)},
	{"ablations", Ablations},
	{"extended", one(ExtendedWorkloads)},
	{"scaling", one(Scaling)},
	{"coll", Coll},
	{"scale", func() []*Table { return []*Table{Scale(1024)} }},
	{"chaos-scale", func() []*Table { return []*Table{ChaosScale(1024)} }},
	{"rma", func() []*Table { return []*Table{RMAFig(256), RMAA2AFig(256)} }},
}

// one lifts a single-table runner into a registry entry.
func one(f func() *Table) func() []*Table {
	return func() []*Table { return []*Table{f()} }
}

// Run regenerates the tables of one registry id.
func Run(id string) ([]*Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run(), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown figure %q (have %s)", id, strings.Join(Figures(), ", "))
}

// Figures lists every registry id, in registry order.
func Figures() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// mutRendezvous returns a config mutator selecting the rendezvous mode
// (used by ablations and tests).
func mutRendezvous(m mpi.RendezvousMode) func(*mpi.Config) {
	return func(c *mpi.Config) { c.Rendezvous = m }
}
