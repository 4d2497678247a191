package schemes_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/fusion"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/trace"
)

// rig builds a 1-node world so we can drive a scheme directly on rank 0.
func rig(factory mpi.SchemeFactory) (*mpi.World, *mpi.Rank) {
	env := sim.NewEnv()
	spec := cluster.Lassen()
	spec.Nodes = 1
	c := cluster.MustBuild(env, spec)
	w := mpi.NewWorld(c, mpi.DefaultConfig(), factory)
	return w, w.Rank(0)
}

// jobSeq makes buffer names unique across sparseJob calls on one device
// (the device rejects duplicate names).
var jobSeq int

// sparseJob returns a pack job with the given segment geometry.
func sparseJob(r *mpi.Rank, segments, blockBytes int) pack.Job {
	lens := make([]int, segments)
	displs := make([]int, segments)
	for i := range lens {
		lens[i] = blockBytes
		displs[i] = i * (blockBytes + 5)
	}
	l := datatype.Commit(datatype.Indexed(lens, displs, datatype.Byte))
	jobSeq++
	src := r.Dev.Alloc(fmt.Sprintf("src%d", jobSeq), int(l.ExtentBytes))
	dst := r.Dev.Alloc(fmt.Sprintf("dst%d", jobSeq), int(l.SizeBytes))
	return *pack.NewJob(pack.OpPack, src, dst, l.Blocks)
}

func TestGPUSyncHandleImmediatelyDone(t *testing.T) {
	w, r := rig(schemes.Factory("GPU-Sync"))
	var launches, syncs int64
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		h := r.Scheme().Pack(p, sparseJob(r, 100, 4))
		if !h.Done(p) {
			t.Error("GPU-Sync handle must be done at return")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	launches, syncs = r.Dev.Stats.KernelLaunches, r.Dev.Stats.StreamSyncs
	if launches != 1 || syncs != 1 {
		t.Fatalf("launches=%d syncs=%d, want 1/1", launches, syncs)
	}
	if r.Trace.Get(trace.Sync) == 0 {
		t.Fatal("GPU-Sync must charge Sync time")
	}
}

func TestGPUAsyncQueriesCostSyncTime(t *testing.T) {
	w, r := rig(schemes.Factory("GPU-Async"))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		h := r.Scheme().Pack(p, sparseJob(r, 3000, 2))
		polls := 0
		for !h.Done(p) {
			polls++
			p.Sleep(200)
		}
		if polls == 0 {
			t.Error("kernel finished before any poll — test shape too small")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Dev.Stats.EventRecords != 1 {
		t.Fatalf("event records = %d, want 1", r.Dev.Stats.EventRecords)
	}
	if r.Dev.Stats.EventQueries < 2 {
		t.Fatalf("event queries = %d, want >= 2", r.Dev.Stats.EventQueries)
	}
	if r.Dev.Stats.StreamSyncs != 0 {
		t.Fatal("GPU-Async must not stream-synchronize")
	}
	if r.Trace.Get(trace.Sync) == 0 || r.Trace.Get(trace.Scheduling) == 0 {
		t.Fatalf("trace: %s", r.Trace.String())
	}
}

func TestHybridRoutesSmallDenseToCPU(t *testing.T) {
	w, r := rig(schemes.Factory("CPU-GPU-Hybrid"))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		s := r.Scheme().(*schemes.CPUGPUHybrid)
		// Small dense: 64 blocks x 256B = 16KB, avg block 256 >= 32.
		s.Pack(p, sparseJob(r, 64, 256))
		if s.UsedCPU != 1 || s.UsedGPU != 0 {
			t.Errorf("small dense: cpu=%d gpu=%d", s.UsedCPU, s.UsedGPU)
		}
		// Sparse: avg block 2 < 32 -> GPU.
		s.Pack(p, sparseJob(r, 2000, 2))
		if s.UsedGPU != 1 {
			t.Errorf("sparse should go to GPU: cpu=%d gpu=%d", s.UsedCPU, s.UsedGPU)
		}
		// Large dense: 4MB > MaxBytes -> GPU.
		s.Pack(p, sparseJob(r, 64, 64<<10))
		if s.UsedGPU != 2 {
			t.Errorf("large should go to GPU: cpu=%d gpu=%d", s.UsedCPU, s.UsedGPU)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Dev.Stats.KernelLaunches != 2 {
		t.Fatalf("kernel launches = %d, want 2", r.Dev.Stats.KernelLaunches)
	}
}

func TestNaiveMemcpyOneDriverCallPerBlock(t *testing.T) {
	w, r := rig(schemes.Factory("SpectrumMPI"))
	const blocks = 500
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		r.Scheme().Pack(p, sparseJob(r, blocks, 4))
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Dev.Stats.MemcpyCalls != blocks {
		t.Fatalf("memcpy calls = %d, want %d", r.Dev.Stats.MemcpyCalls, blocks)
	}
	if r.Dev.Stats.KernelLaunches != 0 {
		t.Fatal("naive path must not launch kernels")
	}
}

func TestNaiveOrdersOfMagnitudeSlowerThanFusion(t *testing.T) {
	run := func(name string, segments int) int64 {
		w, _ := rig(schemes.Factory(name))
		var took int64
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			h := r.Scheme().Pack(p, sparseJob(r, segments, 4))
			r.Scheme().Flush(p)
			for !h.Done(p) {
				p.Sleep(200)
			}
			took = p.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		return took
	}
	naive := run("SpectrumMPI", 2000)
	fused := run("Proposed-Tuned", 2000)
	if fused*100 >= naive {
		t.Fatalf("naive %dns vs fused %dns: want >=100x gap", naive, fused)
	}
}

func TestFusionFallbackOnQueueFull(t *testing.T) {
	factory := func(r *mpi.Rank) mpi.Scheme {
		cfg := fusion.DefaultConfig()
		cfg.QueueCapacity = 1
		cfg.ThresholdBytes = 1 << 40
		return schemes.NewFusionWith(r, cfg)
	}
	w, r := rig(factory)
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		s := r.Scheme().(*schemes.Fusion)
		h1 := s.Pack(p, sparseJob(r, 50, 4))
		h2 := s.Pack(p, sparseJob(r, 50, 4)) // queue full -> unfused fallback
		if s.Fallbacks != 1 {
			t.Errorf("fallbacks = %d, want 1", s.Fallbacks)
		}
		if !h2.Done(p) {
			t.Error("fallback handle must be synchronous")
		}
		s.Flush(p)
		for !h1.Done(p) {
			p.Sleep(200)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Dev.Stats.FusedKernels != 1 || r.Dev.Stats.KernelLaunches != 2 {
		t.Fatalf("stats: %+v", r.Dev.Stats)
	}
}

func TestFactoryNamesAndUnknownPanics(t *testing.T) {
	for _, n := range schemes.Names() {
		if schemes.Factory(n) == nil {
			t.Fatalf("factory %q nil", n)
		}
	}
	for _, alias := range []string{"MVAPICH2-GDR", "SpectrumMPI", "OpenMPI"} {
		if schemes.Factory(alias) == nil {
			t.Fatalf("alias %q nil", alias)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown scheme")
		}
	}()
	schemes.Factory("nope")
}

func TestSchemeNamesMatchLegends(t *testing.T) {
	w, _ := rig(schemes.Factory("Proposed-Tuned"))
	if got := w.Rank(0).SchemeName(); got != "Proposed-Fusion" {
		t.Fatalf("name = %q", got)
	}
}

func TestStagedHostPaysTwoLinkCrossings(t *testing.T) {
	w, r := rig(schemes.Factory("StagedHost"))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		r.Scheme().Pack(p, sparseJob(r, 100, 64))
		r.Scheme().Unpack(p, sparseJob(r, 100, 64))
	})
	if err != nil {
		t.Fatal(err)
	}
	// One pack kernel + one unpack kernel, plus one staging memcpy each.
	if r.Dev.Stats.KernelLaunches != 2 || r.Dev.Stats.MemcpyCalls != 2 {
		t.Fatalf("stats: %+v", r.Dev.Stats)
	}
	if _, ok := r.Scheme().DirectIPC(nil, pack.Job{}); ok {
		t.Fatal("StagedHost must not claim a GPUDirect peer path")
	}
}

func TestStagedHostSlowerThanGPUSync(t *testing.T) {
	run := func(name string) int64 {
		w, _ := rig(schemes.Factory(name))
		var took int64
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			h := r.Scheme().Pack(p, sparseJob(r, 500, 64))
			for !h.Done(p) {
				p.Sleep(200)
			}
			took = p.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		return took
	}
	if staged, sync := run("StagedHost"), run("GPU-Sync"); staged <= sync {
		t.Fatalf("staging (%d) should cost more than GPUDirect (%d)", staged, sync)
	}
}

func TestHybridDirectIPCSupported(t *testing.T) {
	w, r := rig(schemes.Factory("CPU-GPU-Hybrid"))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		h, ok := r.Scheme().DirectIPC(p, sparseJob(r, 16, 64))
		if !ok {
			t.Error("hybrid scheme should support DirectIPC (the zero-copy path of [24])")
		}
		if !h.Done(p) {
			t.Error("hybrid IPC runs synchronously")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestGPUAsyncDirectIPCAndUnpack(t *testing.T) {
	w, r := rig(schemes.Factory("GPU-Async"))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		h1, ok := r.Scheme().DirectIPC(p, sparseJob(r, 1000, 8))
		if !ok {
			t.Fatal("async IPC unsupported")
		}
		h2 := r.Scheme().Unpack(p, sparseJob(r, 1000, 8))
		r.Scheme().Flush(p) // no-op, but exercises the path
		for !h1.Done(p) || !h2.Done(p) {
			p.Sleep(500)
		}
		if h1.DoneEv() != nil {
			t.Error("async handles are poll-only")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Dev.Stats.KernelLaunches != 2 || r.Dev.Stats.EventRecords != 2 {
		t.Fatalf("stats: %+v", r.Dev.Stats)
	}
}

func TestFusionHandleDoneEvAndSyncStream(t *testing.T) {
	w, r := rig(schemes.Factory("Proposed-Tuned"))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		s := r.Scheme().(*schemes.Fusion)
		h := s.Pack(p, sparseJob(r, 200, 8))
		if h.DoneEv() == nil {
			t.Fatal("fusion handles expose completion events")
		}
		s.Flush(p)
		p.Wait(h.DoneEv())
		s.SyncStream(p) // stream already drained: cheap
		if !h.Done(p) {
			t.Fatal("handle not done after event")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestNaiveMemcpyUnpackAndEmptyJob(t *testing.T) {
	w, r := rig(schemes.Factory("OpenMPI"))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		h := r.Scheme().Unpack(p, sparseJob(r, 64, 4))
		if !h.Done(p) {
			t.Error("naive unpack is synchronous")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Dev.Stats.MemcpyCalls != 64 {
		t.Fatalf("memcpy calls = %d", r.Dev.Stats.MemcpyCalls)
	}
}

func TestProposedAutoSeedsFromModel(t *testing.T) {
	w, r := rig(schemes.Factory("Proposed-Auto"))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		s := r.Scheme().(*schemes.Fusion)
		th := s.Sched.Config().ThresholdBytes
		if th < 16<<10 || th > 4<<20 {
			t.Errorf("auto seed threshold %d out of model bounds", th)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestStagedHostUnpackDirection(t *testing.T) {
	w, r := rig(schemes.Factory("StagedHost"))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		h := r.Scheme().Unpack(p, sparseJob(r, 32, 16))
		if !h.Done(p) {
			t.Error("staged unpack is synchronous")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Dev.Stats.MemcpyCalls != 1 || r.Dev.Stats.KernelLaunches != 1 {
		t.Fatalf("stats: %+v", r.Dev.Stats)
	}
}

// TestThresholdFactory pins which schemes take a fixed fusion threshold:
// Proposed and Proposed-Tuned run fusion at the given threshold, a zero
// threshold keeps the scheme's own, and any other scheme given one is an
// error rather than a silent swap for fusion.
func TestThresholdFactory(t *testing.T) {
	for _, name := range []string{"Proposed", "Proposed-Tuned"} {
		f, err := schemes.ThresholdFactory(name, 1<<20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, r := rig(f)
		if got := r.Scheme().(*schemes.Fusion).Sched.Config().ThresholdBytes; got != 1<<20 {
			t.Errorf("%s: threshold %d, want %d", name, got, 1<<20)
		}
	}
	for _, name := range schemes.Names() {
		if _, err := schemes.ThresholdFactory(name, 0); err != nil {
			t.Fatalf("%s without threshold: %v", name, err)
		}
		if name == "Proposed" || name == "Proposed-Tuned" {
			continue
		}
		if _, err := schemes.ThresholdFactory(name, 1<<20); err == nil {
			t.Errorf("%s accepted a fusion threshold", name)
		}
	}
}
