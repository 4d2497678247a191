package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fusion"
	"repro/internal/gpu"
	"repro/internal/layoutcache"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file holds the ablation experiments called out in DESIGN.md §4:
// each isolates one design decision of the fusion framework and compares
// the chosen design against its alternative.

// boundarySyncFusion wraps the fusion scheme but waits for the whole fused
// kernel at every flush — reintroducing the kernel-boundary synchronization
// the paper's response-status protocol eliminates (step ③ of Fig. 5).
type boundarySyncFusion struct {
	inner *schemes.Fusion
}

func newBoundarySyncFusion(r *mpi.Rank) mpi.Scheme {
	return &boundarySyncFusion{inner: schemes.NewFusion(r).(*schemes.Fusion)}
}

func (s *boundarySyncFusion) Name() string { return "Fusion+BoundarySync" }

func (s *boundarySyncFusion) Pack(p *sim.Proc, job pack.Job) mpi.Handle {
	return s.inner.Pack(p, job)
}

func (s *boundarySyncFusion) Unpack(p *sim.Proc, job pack.Job) mpi.Handle {
	return s.inner.Unpack(p, job)
}

func (s *boundarySyncFusion) DirectIPC(p *sim.Proc, job pack.Job) (mpi.Handle, bool) {
	return s.inner.DirectIPC(p, job)
}

// Flush launches pending work and then blocks until the whole fused stream
// drains — an explicit CPU-GPU synchronization at the kernel boundary.
func (s *boundarySyncFusion) Flush(p *sim.Proc) {
	s.inner.Flush(p)
	s.inner.SyncStream(p)
}

// AblationSyncVsStatusPoll compares the paper's GPU-written response-status
// completion (no kernel-boundary sync) against an explicit synchronize
// after every fused launch.
func AblationSyncVsStatusPoll() *Table {
	wl := workload.Specfem3DCM()
	t := &Table{
		Title:  "Ablation: response-status polling vs kernel-boundary sync (specfem3D_cm dim=32, 16 buffers, Lassen, us)",
		Header: []string{"variant", "latency_us"},
	}
	opt := BulkOptions{System: cluster.Lassen(), Scheme: "Proposed-Tuned", Workload: wl, Dim: 32, Buffers: 16}
	t.Rows = append(t.Rows, []string{"status-poll (paper)", t.cell(RunBulk(opt))})
	opt.Scheme = "Fusion+BoundarySync"
	t.Rows = append(t.Rows, []string{"boundary-sync", t.cell(runBulk(opt, newBoundarySyncFusion))})
	return t
}

// AblationFlushPolicy sweeps the flush policy: fuse-nothing (launch every
// request alone), the tuned byte threshold, and fuse-everything (only the
// Waitall flush launches).
func AblationFlushPolicy() *Table {
	wl := workload.Specfem3DCM()
	t := &Table{
		Title:  "Ablation: flush policy (specfem3D_cm dim=32, 16 buffers, Lassen, us)",
		Header: []string{"policy", "latency_us"},
	}
	cases := []struct {
		name      string
		threshold int64
	}{
		{"fuse-nothing (thr=1B)", 1},
		{"tuned (thr=512KB)", 512 << 10},
		{"fuse-everything (thr=inf)", 1 << 50},
	}
	for _, c := range cases {
		r := RunBulk(BulkOptions{
			System: cluster.Lassen(), Scheme: "Proposed", Workload: wl,
			Dim: 32, Buffers: 16, FusionThreshold: c.threshold,
		})
		t.Rows = append(t.Rows, []string{c.name, t.cell(r)})
	}
	return t
}

// AblationPartitioning compares work-proportional cooperative-group
// partitioning against a naive uniform split. The experiment fuses a
// heterogeneous batch — many tiny sparse packs plus a few fat dense packs
// — directly on the fusion scheduler: a uniform split hands the fat
// requests the same number of thread blocks as the tiny ones and stretches
// the kernel span (the Partition phase of paper Fig. 6 exists precisely to
// avoid this).
func AblationPartitioning() *Table {
	t := &Table{
		Title:  "Ablation: cooperative-group partitioning (15 trivial + 1 huge sparse request fused, Lassen, us)",
		Header: []string{"partitioning", "fused_span_us"},
	}
	huge := workload.Specfem3DCM().Layout(64) // ~12k tiny blocks
	for _, uniform := range []bool{false, true} {
		arch := cluster.VoltaV100NVLink()
		arch.UniformFusedPartition = uniform
		env := sim.NewEnv()
		dev := gpu.NewDevice(env, arch, 0, 0)
		sched := fusion.NewScheduler(dev, dev.NewStream("f"), fusion.Config{ThresholdBytes: 1 << 50})
		var span int64
		env.Spawn("pe", func(p *sim.Proc) {
			var uids []int64
			enq := func(bytes int64, segs int, max int64) {
				src := dev.Alloc(fmt.Sprintf("s%d", len(uids)), 1)
				dst := dev.Alloc(fmt.Sprintf("d%d", len(uids)), 1)
				j := pack.Job{Op: pack.OpPack, Origin: src, Target: dst,
					Shape: &layoutcache.Shape{Bytes: bytes, Segments: segs, MaxBlock: max}}
				uids = append(uids, sched.Enqueue(p, &j))
			}
			for i := 0; i < 15; i++ {
				enq(4<<10, 4, 1<<10) // trivial dense requests
			}
			enq(huge.SizeBytes, huge.NumBlocks(), huge.MaxBlockBytes)
			start := p.Now()
			sched.Flush(p)
			for _, u := range uids {
				if ev := sched.DoneEvent(u); ev != nil {
					p.Wait(ev)
				}
				sched.Release(u)
			}
			span = p.Now() - start
		})
		if err := env.Run(); err != nil {
			t.Rows = append(t.Rows, []string{"error", err.Error()})
			continue
		}
		name := "work-proportional (paper)"
		if uniform {
			name = "uniform split"
		}
		t.Rows = append(t.Rows, []string{name, fmtUs(span)})
	}
	return t
}

// AblationRendezvous compares RGET (RTS after packing) against RPUT (RTS
// overlaps packing) for a large dense workload — Section IV-B1.
func AblationRendezvous() *Table {
	t := &Table{
		Title:  "Ablation: rendezvous protocol (NAS_MG dim=128, 8 buffers, Lassen, us)",
		Header: []string{"protocol", "latency_us"},
	}
	for _, mode := range []mpi.RendezvousMode{mpi.RGET, mpi.RPUT} {
		r := RunBulk(BulkOptions{
			System: cluster.Lassen(), Scheme: "Proposed-Tuned",
			Workload: workload.NASMG(), Dim: 128, Buffers: 8,
			MutateMPI: mutRendezvous(mode),
		})
		t.Rows = append(t.Rows, []string{mode.String(), t.cell(r)})
	}
	return t
}

// AblationLayoutCache compares the cached datatype layouts of [24] against
// re-flattening on every message.
func AblationLayoutCache() *Table {
	wl := workload.Specfem3DCM()
	t := &Table{
		Title:  "Ablation: layout cache (specfem3D_cm dim=32, 16 buffers, Lassen, us)",
		Header: []string{"variant", "latency_us"},
	}
	for _, disabled := range []bool{false, true} {
		r := RunBulk(BulkOptions{
			System: cluster.Lassen(), Scheme: "Proposed-Tuned",
			Workload: wl, Dim: 32, Buffers: 16,
			MutateMPI: func(c *mpi.Config) { c.DisableLayoutCache = disabled },
		})
		name := "cached (paper)"
		if disabled {
			name = "flatten every message"
		}
		t.Rows = append(t.Rows, []string{name, t.cell(r)})
	}
	return t
}

// Ablations runs every ablation experiment.
func Ablations() []*Table {
	return []*Table{
		AblationSyncVsStatusPoll(),
		AblationFlushPolicy(),
		AblationPartitioning(),
		AblationRendezvous(),
		AblationLayoutCache(),
		AblationPipeline(),
		IPCPaths(),
	}
}

// AblationPipeline measures chunked (pipelined) rendezvous against the
// whole-message path for a large sparse exchange. On the modeled systems
// this is a negative result worth recording: V100-class packing is far
// faster than the EDR wire, so overlapping pack chunks with transfers buys
// almost nothing while the per-chunk control traffic costs a few percent —
// the economics behind the paper's choice to fuse packs rather than
// pipeline them.
func AblationPipeline() *Table {
	wl := workload.Specfem3DCM()
	t := &Table{
		Title:  "Ablation: chunked pipelined rendezvous (specfem3D_cm dim=64, 8 buffers, Lassen, us)",
		Header: []string{"rendezvous", "latency_us"},
	}
	for _, chunk := range []int64{0, 32 << 10} {
		r := RunBulk(BulkOptions{
			System: cluster.Lassen(), Scheme: "Proposed-Tuned",
			Workload: wl, Dim: 64, Buffers: 8,
			MutateMPI: func(c *mpi.Config) { c.PipelineChunkBytes = chunk },
		})
		name := "whole-message (paper)"
		if chunk > 0 {
			name = "chunked 32KB"
		}
		t.Rows = append(t.Rows, []string{name, t.cell(r)})
	}
	return t
}
