// Package schemes implements every DDT-processing scheme the paper
// evaluates (Section V-A), all behind the mpi.Scheme interface:
//
//	GPUSync       — GPU kernels with explicit cudaStreamSynchronize [8,22]
//	GPUAsync      — GPU kernels with cudaEventRecord/Query polling [23]
//	CPUGPUHybrid  — adaptive GDRCopy CPU path for small dense layouts,
//	                GPU-Sync otherwise [24]; also models MVAPICH2-GDR
//	NaiveMemcpy   — one cudaMemcpyAsync per contiguous block, the
//	                SpectrumMPI / OpenMPI production-library behaviour
//	Fusion        — the proposed dynamic kernel fusion (internal/fusion)
package schemes

import (
	"fmt"

	"repro/internal/fusion"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/sim"
	"repro/internal/trace"
)

// doneHandle is an already-complete operation (blocking schemes).
type doneHandle struct{}

func (doneHandle) Done(*sim.Proc) bool { return true }
func (doneHandle) DoneEv() *sim.Event  { return nil }
func (doneHandle) Err() error          { return nil }

// --- GPU-Sync ---

// GPUSync launches one kernel per operation and synchronizes the stream
// before returning: zero overlap, maximal synchronization cost.
type GPUSync struct {
	r  *mpi.Rank
	st *gpu.Stream
}

// NewGPUSync builds the scheme for one rank.
func NewGPUSync(r *mpi.Rank) mpi.Scheme {
	return &GPUSync{r: r, st: r.Dev.NewStream("gpusync")}
}

// Name implements mpi.Scheme.
func (s *GPUSync) Name() string { return "GPU-Sync" }

func (s *GPUSync) run(p *sim.Proc, job pack.Job) mpi.Handle {
	c := s.st.Launch(p, job.KernelSpec())
	over := s.r.Dev.Arch.LaunchOverheadNs
	s.r.Charge(trace.Launch, "launch", p.Now()-over, over)
	s.r.Charge(trace.PackKernel, "kernel", c.Start, c.End-c.Start)
	before := p.Now()
	s.st.Synchronize(p)
	s.r.Charge(trace.Sync, "stream-sync", before, p.Now()-before)
	return doneHandle{}
}

// Pack implements mpi.Scheme.
func (s *GPUSync) Pack(p *sim.Proc, job pack.Job) mpi.Handle { return s.run(p, job) }

// Unpack implements mpi.Scheme.
func (s *GPUSync) Unpack(p *sim.Proc, job pack.Job) mpi.Handle { return s.run(p, job) }

// DirectIPC implements mpi.Scheme: supported, as a synchronous kernel.
func (s *GPUSync) DirectIPC(p *sim.Proc, job pack.Job) (mpi.Handle, bool) {
	return s.run(p, job), true
}

// Flush implements mpi.Scheme (nothing is deferred).
func (s *GPUSync) Flush(*sim.Proc) {}

// --- GPU-Async ---

// GPUAsync launches kernels asynchronously and tracks completion with
// events, polled via cudaEventQuery — the multi-stream asynchronous design
// of [23]. The extra event traffic is exactly the "Scheduling"/"Sync" cost
// Fig. 11 charges this scheme.
type GPUAsync struct {
	r       *mpi.Rank
	streams []*gpu.Stream
	next    int
}

// NewGPUAsync builds the scheme with a small stream pool.
func NewGPUAsync(r *mpi.Rank) mpi.Scheme {
	s := &GPUAsync{r: r}
	for i := 0; i < 4; i++ {
		s.streams = append(s.streams, r.Dev.NewStream("gpuasync"))
	}
	return s
}

// Name implements mpi.Scheme.
func (s *GPUAsync) Name() string { return "GPU-Async" }

type asyncHandle struct {
	r  *mpi.Rank
	ev *gpu.Event
}

func (h asyncHandle) Done(p *sim.Proc) bool {
	before := p.Now()
	fired := h.ev.Query(p)
	h.r.Charge(trace.Sync, "event-query", before, p.Now()-before)
	return fired
}

func (h asyncHandle) DoneEv() *sim.Event { return nil }
func (h asyncHandle) Err() error         { return nil }

func (s *GPUAsync) run(p *sim.Proc, job pack.Job) mpi.Handle {
	st := s.streams[s.next%len(s.streams)]
	s.next++
	c := st.Launch(p, job.KernelSpec())
	over := s.r.Dev.Arch.LaunchOverheadNs
	s.r.Charge(trace.Launch, "launch", p.Now()-over, over)
	s.r.Charge(trace.PackKernel, "kernel", c.Start, c.End-c.Start)
	before := p.Now()
	ev := st.Record(p, job.Op.String())
	s.r.Charge(trace.Scheduling, "event-record", before, p.Now()-before)
	return asyncHandle{r: s.r, ev: ev}
}

// Pack implements mpi.Scheme.
func (s *GPUAsync) Pack(p *sim.Proc, job pack.Job) mpi.Handle { return s.run(p, job) }

// Unpack implements mpi.Scheme.
func (s *GPUAsync) Unpack(p *sim.Proc, job pack.Job) mpi.Handle { return s.run(p, job) }

// DirectIPC implements mpi.Scheme.
func (s *GPUAsync) DirectIPC(p *sim.Proc, job pack.Job) (mpi.Handle, bool) {
	return s.run(p, job), true
}

// Flush implements mpi.Scheme.
func (s *GPUAsync) Flush(*sim.Proc) {}

// --- CPU-GPU-Hybrid ---

// The hybrid scheme packs on the CPU only payloads of at most
// hybridMaxBytes whose average contiguous block is at least
// hybridMinAvgBlock bytes (dense layouts have fat blocks; GDRCopy over tiny
// strided blocks is hopeless): CPU for small dense messages, GPU otherwise,
// matching the behaviour in [24].
const (
	hybridMaxBytes    = 256 << 10
	hybridMinAvgBlock = 32
)

// CPUGPUHybrid adaptively packs on the CPU through a GDRCopy window (small
// dense layouts: zero driver overhead) or falls back to GPU-Sync. This is
// both the "CPU-GPU-Hybrid" baseline and the optimized MVAPICH2-GDR
// behaviour in Fig. 14.
type CPUGPUHybrid struct {
	r   *mpi.Rank
	gpu *GPUSync
	cpu pack.CPUEngine
	// UsedCPU / UsedGPU count routing decisions (for tests).
	UsedCPU, UsedGPU int64
}

// NewCPUGPUHybrid builds the scheme.
func NewCPUGPUHybrid(r *mpi.Rank) mpi.Scheme {
	return &CPUGPUHybrid{
		r:   r,
		gpu: &GPUSync{r: r, st: r.Dev.NewStream("hybrid-gpu")},
		cpu: pack.CPUEngine{Dev: r.Dev},
	}
}

// Name implements mpi.Scheme.
func (s *CPUGPUHybrid) Name() string { return "CPU-GPU-Hybrid" }

func (s *CPUGPUHybrid) wantsCPU(job pack.Job) bool {
	if job.Bytes > hybridMaxBytes || job.Segments == 0 {
		return false
	}
	return job.Bytes/int64(job.Segments) >= hybridMinAvgBlock
}

func (s *CPUGPUHybrid) run(p *sim.Proc, job pack.Job) mpi.Handle {
	if s.wantsCPU(job) {
		s.UsedCPU++
		before := p.Now()
		s.cpu.Run(p, &job)
		s.r.Charge(trace.PackKernel, "gdrcopy", before, p.Now()-before)
		return doneHandle{}
	}
	s.UsedGPU++
	return s.gpu.run(p, job)
}

// Pack implements mpi.Scheme.
func (s *CPUGPUHybrid) Pack(p *sim.Proc, job pack.Job) mpi.Handle { return s.run(p, job) }

// Unpack implements mpi.Scheme.
func (s *CPUGPUHybrid) Unpack(p *sim.Proc, job pack.Job) mpi.Handle { return s.run(p, job) }

// DirectIPC implements mpi.Scheme: the zero-copy scheme of [24].
func (s *CPUGPUHybrid) DirectIPC(p *sim.Proc, job pack.Job) (mpi.Handle, bool) {
	return s.gpu.run(p, job), true
}

// Flush implements mpi.Scheme.
func (s *CPUGPUHybrid) Flush(*sim.Proc) {}

// --- NaiveMemcpy (SpectrumMPI / OpenMPI) ---

// NaiveMemcpy issues one cudaMemcpyAsync per contiguous block, then a
// stream synchronize — the unoptimized production-library datatype path
// the paper measures as "thousands of times slower" in Fig. 14.
type NaiveMemcpy struct {
	r  *mpi.Rank
	st *gpu.Stream
}

// NewNaiveMemcpy builds the scheme.
func NewNaiveMemcpy(r *mpi.Rank) mpi.Scheme {
	return &NaiveMemcpy{r: r, st: r.Dev.NewStream("naive")}
}

// Name implements mpi.Scheme.
func (s *NaiveMemcpy) Name() string { return "NaiveMemcpy" }

func (s *NaiveMemcpy) run(p *sim.Proc, job pack.Job) mpi.Handle {
	// One driver call per block; bytes move when the last copy retires.
	n := job.Segments
	if n == 0 {
		n = 1
	}
	var last *gpu.Completion
	for i := 0; i < n; i++ {
		var exec func()
		if i == n-1 {
			exec = job.Execute // the last copy keeps the job
		}
		var bytes int64
		if i < len(job.Blocks) {
			bytes = job.Blocks[i].Len
		} else {
			bytes = job.Bytes
		}
		before := p.Now()
		last = s.st.MemcpyAsync(p, gpu.CopyD2D, bytes, exec)
		s.r.Charge(trace.Launch, "memcpy-post", before, p.Now()-before)
	}
	before := p.Now()
	s.st.Synchronize(p)
	s.r.Charge(trace.Sync, "stream-sync", before, p.Now()-before)
	if last != nil {
		s.r.Charge(trace.PackKernel, "memcpy", last.Start, last.End-last.Start)
	}
	return doneHandle{}
}

// Pack implements mpi.Scheme.
func (s *NaiveMemcpy) Pack(p *sim.Proc, job pack.Job) mpi.Handle { return s.run(p, job) }

// Unpack implements mpi.Scheme.
func (s *NaiveMemcpy) Unpack(p *sim.Proc, job pack.Job) mpi.Handle { return s.run(p, job) }

// DirectIPC implements mpi.Scheme: production libraries have no zero-copy
// DDT path.
func (s *NaiveMemcpy) DirectIPC(*sim.Proc, pack.Job) (mpi.Handle, bool) { return nil, false }

// Flush implements mpi.Scheme.
func (s *NaiveMemcpy) Flush(*sim.Proc) {}

// --- Proposed: dynamic kernel fusion ---

// Fusion is the proposed scheme: operations are enqueued into the fusion
// scheduler; fused kernels launch on threshold or at Waitall flush; the
// progress engine polls the request list's response status.
type Fusion struct {
	r     *mpi.Rank
	Sched *fusion.Scheduler
	// Fallbacks counts queue-full unfused launches.
	Fallbacks int64
	fallback  *GPUSync
}

// NewFusion builds the scheme with the tuned default configuration.
func NewFusion(r *mpi.Rank) mpi.Scheme {
	return NewFusionWith(r, fusion.DefaultConfig())
}

// NewFusionWith builds the scheme with an explicit fusion configuration.
func NewFusionWith(r *mpi.Rank, cfg fusion.Config) mpi.Scheme {
	sched := fusion.NewScheduler(r.Dev, r.Dev.NewStream("fusion"), cfg)
	sched.Trace = r.Trace
	sched.TL = r.Timeline()
	return &Fusion{
		r:        r,
		Sched:    sched,
		fallback: &GPUSync{r: r, st: r.Dev.NewStream("fusion-fallback")},
	}
}

// Name implements mpi.Scheme.
func (s *Fusion) Name() string { return "Proposed-Fusion" }

type fusionHandle struct {
	sched *fusion.Scheduler
	uid   int64
	// err caches a terminal scheduler failure (degraded launch also
	// failed); the progress engine reads it via Err.
	err error
}

func (h *fusionHandle) Done(p *sim.Proc) bool {
	if h.err != nil {
		return false
	}
	done, err := h.sched.Done(p, h.uid)
	if err != nil {
		h.err = err
		return false
	}
	return done
}
func (h *fusionHandle) DoneEv() *sim.Event { return h.sched.DoneEvent(h.uid) }
func (h *fusionHandle) Err() error         { return h.err }

// run enqueues job, which the request-list entry copies, so job stays on
// the caller's stack; only the queue-full fallback's kernel keeps a heap
// copy.
func (s *Fusion) run(p *sim.Proc, job pack.Job) mpi.Handle {
	uid := s.Sched.Enqueue(p, &job)
	if uid == fusion.ErrQueueFull {
		// Negative UID: the progress engine takes the fallback path
		// (paper Section IV-A2).
		s.Fallbacks++
		return s.fallback.run(p, job)
	}
	return &fusionHandle{sched: s.Sched, uid: uid}
}

// Pack implements mpi.Scheme.
func (s *Fusion) Pack(p *sim.Proc, job pack.Job) mpi.Handle { return s.run(p, job) }

// Unpack implements mpi.Scheme.
func (s *Fusion) Unpack(p *sim.Proc, job pack.Job) mpi.Handle { return s.run(p, job) }

// DirectIPC implements mpi.Scheme: IPC requests fuse with pack/unpack
// requests in the same kernel (paper Fig. 6).
func (s *Fusion) DirectIPC(p *sim.Proc, job pack.Job) (mpi.Handle, bool) {
	return s.run(p, job), true
}

// Flush implements mpi.Scheme: Waitall reached, launch whatever is pending.
func (s *Fusion) Flush(p *sim.Proc) { s.Sched.Flush(p) }

// OpenBatch opens a collective-scope fusion window (see
// fusion.Scheduler.OpenWindow); the collective engine discovers this hook
// by interface assertion, so only fusion-capable schemes batch.
func (s *Fusion) OpenBatch() { s.Sched.OpenWindow() }

// CloseBatch closes the window, launching the accumulated requests as one
// fused kernel.
func (s *Fusion) CloseBatch(p *sim.Proc) { s.Sched.CloseWindow(p) }

// SyncStream blocks until the fused-kernel stream drains (ablation use
// only; the paper's design never does this).
func (s *Fusion) SyncStream(p *sim.Proc) { s.Sched.SyncStream(p) }

// PendingFused reports requests still parked in the fusion scheduler —
// the leak observable the error-path teardown invariant asserts on
// (mpi.World.PendingFusedJobs sums it across live ranks).
func (s *Fusion) PendingFused() int { return s.Sched.PendingCount() }

// --- factories ---

// Factory returns a SchemeFactory for a named scheme. Names follow the
// paper's legends: "GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid",
// "NaiveMemcpy", "Proposed", "Proposed-Tuned".
func Factory(name string) mpi.SchemeFactory {
	switch name {
	case "GPU-Sync":
		return NewGPUSync
	case "GPU-Async":
		return NewGPUAsync
	case "CPU-GPU-Hybrid", "MVAPICH2-GDR":
		return NewCPUGPUHybrid
	case "NaiveMemcpy", "SpectrumMPI", "OpenMPI":
		return NewNaiveMemcpy
	case "Proposed":
		return fusionAt(256 << 10) // untuned default
	case "Proposed-Tuned":
		return NewFusion
	case "Proposed-Auto":
		return NewFusionAuto
	case "StagedHost":
		return NewStagedHost
	default:
		panic("schemes: unknown scheme " + name)
	}
}

// ThresholdFactory is Factory(name) with the fusion flush threshold set to
// threshold bytes; a threshold of zero or less keeps the scheme's own. Only
// the fixed-threshold fusion schemes, Proposed and Proposed-Tuned, take a
// threshold: any other scheme given one is an error, never a silent swap
// for fusion.
func ThresholdFactory(name string, threshold int64) (mpi.SchemeFactory, error) {
	if threshold <= 0 {
		return Factory(name), nil
	}
	if name != "Proposed" && name != "Proposed-Tuned" {
		return nil, fmt.Errorf("schemes: %s takes no fusion threshold (only Proposed and Proposed-Tuned do)", name)
	}
	return fusionAt(threshold), nil
}

// fusionAt builds the fusion scheme with a fixed flush threshold.
func fusionAt(threshold int64) mpi.SchemeFactory {
	return func(r *mpi.Rank) mpi.Scheme {
		cfg := fusion.DefaultConfig()
		cfg.ThresholdBytes = threshold
		return NewFusionWith(r, cfg)
	}
}

// NewFusionAuto builds the fusion scheme with the model-based threshold
// predictor seeding an online auto-tuner — the paper's future-work design
// (Section VII).
func NewFusionAuto(r *mpi.Rank) mpi.Scheme {
	cfg := fusion.DefaultConfig()
	// Seed the prediction with a representative sparse shape; the tuner
	// adapts from there as real traffic flows.
	seed := fusion.PredictThreshold(r.Dev.Arch, fusion.ModelInput{
		AvgRequestBytes: 32 << 10,
		AvgSegments:     2048,
		NetBWBytesPerNs: 25,
	})
	cfg.ThresholdBytes = seed
	s := NewFusionWith(r, cfg).(*Fusion)
	tuner := fusion.NewAutoTuner(seed)
	tuner.Window = 32
	s.Sched.EnableAutoTune(tuner)
	return s
}

// Names lists the factory-known scheme names in display order.
func Names() []string {
	return []string{"GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "NaiveMemcpy", "StagedHost", "Proposed", "Proposed-Tuned", "Proposed-Auto"}
}

// --- StagedHost (no GPUDirect) ---

// StagedHost is the classic pre-GPUDirect path: pack on the GPU, stage the
// packed buffer to host memory over the CPU-GPU link, and hand the NIC
// host memory (reverse on the receive side). Two extra link crossings and
// a synchronization per operation — the baseline GPUDirect-era work
// eliminated, kept for systems without peer DMA.
type StagedHost struct {
	r  *mpi.Rank
	st *gpu.Stream
}

// NewStagedHost builds the scheme.
func NewStagedHost(r *mpi.Rank) mpi.Scheme {
	return &StagedHost{r: r, st: r.Dev.NewStream("staged")}
}

// Name implements mpi.Scheme.
func (s *StagedHost) Name() string { return "StagedHost" }

func (s *StagedHost) run(p *sim.Proc, job pack.Job, toHost bool) mpi.Handle {
	kind := gpu.CopyD2H
	if !toHost {
		kind = gpu.CopyH2D
	}
	over := s.r.Dev.Arch.LaunchOverheadNs
	if toHost {
		// Pack on device, then stage the packed bytes down to host.
		c := s.st.Launch(p, job.KernelSpec())
		s.r.Charge(trace.Launch, "launch", p.Now()-over, over)
		s.r.Charge(trace.PackKernel, "kernel", c.Start, c.End-c.Start)
		before := p.Now()
		s.st.MemcpyAsync(p, kind, job.Bytes, nil)
		s.r.Charge(trace.Launch, "stage-copy", before, p.Now()-before)
	} else {
		// Stage up to device, then unpack.
		before := p.Now()
		s.st.MemcpyAsync(p, kind, job.Bytes, nil)
		s.r.Charge(trace.Launch, "stage-copy", before, p.Now()-before)
		c := s.st.Launch(p, job.KernelSpec())
		s.r.Charge(trace.Launch, "launch", p.Now()-over, over)
		s.r.Charge(trace.PackKernel, "kernel", c.Start, c.End-c.Start)
	}
	before := p.Now()
	s.st.Synchronize(p)
	s.r.Charge(trace.Sync, "stream-sync", before, p.Now()-before)
	return doneHandle{}
}

// Pack implements mpi.Scheme.
func (s *StagedHost) Pack(p *sim.Proc, job pack.Job) mpi.Handle { return s.run(p, job, true) }

// Unpack implements mpi.Scheme.
func (s *StagedHost) Unpack(p *sim.Proc, job pack.Job) mpi.Handle { return s.run(p, job, false) }

// DirectIPC implements mpi.Scheme: without GPUDirect there is no peer path.
func (s *StagedHost) DirectIPC(*sim.Proc, pack.Job) (mpi.Handle, bool) { return nil, false }

// Flush implements mpi.Scheme.
func (s *StagedHost) Flush(*sim.Proc) {}
