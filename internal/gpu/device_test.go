package gpu

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// testArch is a V100-like parameter set used across the package tests.
func testArch() Arch {
	return Arch{
		Name:                   "testV100",
		LaunchOverheadNs:       6500,
		KernelStartupNs:        1200,
		SMCount:                80,
		MaxBlocksPerSM:         16,
		MemBWBytesPerNs:        900,
		BlockCopyBWBytesPerNs:  12,
		SegmentFixedNs:         180,
		EventRecordNs:          900,
		EventQueryNs:           600,
		StreamSyncBaseNs:       1100,
		MemcpyAsyncOverheadNs:  4200,
		CopyEngineLatencyNs:    1300,
		CPUGPULinkBWBytesPerNs: 75,
		GdrCopyLatencyNs:       400,
		GdrCopyBWBytesPerNs:    6,
		GdrSegmentFixedNs:      90,
	}
}

func newTestDevice(t *testing.T) (*sim.Env, *Device) {
	t.Helper()
	env := sim.NewEnv()
	return env, NewDevice(env, testArch(), 0, 0)
}

func TestArchValidatePanicsOnBadParams(t *testing.T) {
	bad := testArch()
	bad.LaunchOverheadNs = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bad.Validate()
}

func TestLaunchChargesCPUOverhead(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	var afterLaunch int64
	env.Spawn("host", func(p *sim.Proc) {
		st.Launch(p, KernelSpec{Name: "k", Bytes: 1024, Segments: 4})
		afterLaunch = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if afterLaunch != d.Arch.LaunchOverheadNs {
		t.Fatalf("launch returned at %d, want %d", afterLaunch, d.Arch.LaunchOverheadNs)
	}
	if d.Stats.KernelLaunches != 1 || d.Stats.LaunchCPUNs != d.Arch.LaunchOverheadNs {
		t.Fatalf("stats wrong: %+v", d.Stats)
	}
}

func TestKernelExecMovesRealBytes(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	src := d.Alloc("src", 64)
	dst := d.Alloc("dst", 64)
	for i := range src.Data {
		src.Data[i] = byte(i * 3)
	}
	env.Spawn("host", func(p *sim.Proc) {
		c := st.Launch(p, KernelSpec{
			Name: "copy", Bytes: 64, Segments: 1,
			Work: sim.HandlerFunc(func() { copy(dst.Data, src.Data) }),
		})
		if c.Done() {
			t.Error("kernel done immediately after launch")
		}
		if dst.Data[10] != 0 {
			t.Error("bytes moved before kernel retired")
		}
		st.Synchronize(p)
		if !c.Done() {
			t.Error("kernel not done after stream sync")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range dst.Data {
		if dst.Data[i] != byte(i*3) {
			t.Fatalf("dst[%d] = %d, want %d", i, dst.Data[i], byte(i*3))
		}
	}
}

func TestStreamFIFOOrdering(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	var c1, c2 *Completion
	env.Spawn("host", func(p *sim.Proc) {
		c1 = st.Launch(p, KernelSpec{Name: "k1", Bytes: 1 << 20, Segments: 64})
		c2 = st.Launch(p, KernelSpec{Name: "k2", Bytes: 1 << 10, Segments: 2})
		st.Synchronize(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if c2.Start < c1.End {
		t.Fatalf("k2 started (%d) before k1 ended (%d)", c2.Start, c1.End)
	}
}

func TestSeparateStreamsOverlap(t *testing.T) {
	env, d := newTestDevice(t)
	s1 := d.NewStream("s1")
	s2 := d.NewStream("s2")
	var c1, c2 *Completion
	env.Spawn("host", func(p *sim.Proc) {
		// Kernels long enough to outlast the second launch's CPU cost.
		c1 = s1.Launch(p, KernelSpec{Name: "k1", Bytes: 64 << 20, Segments: 64})
		c2 = s2.Launch(p, KernelSpec{Name: "k2", Bytes: 64 << 20, Segments: 64})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if c2.Start >= c1.End {
		t.Fatalf("streams serialized: k2 start %d >= k1 end %d", c2.Start, c1.End)
	}
}

func TestKernelCostSparseDominatedBySegments(t *testing.T) {
	d := NewDevice(sim.NewEnv(), testArch(), 0, 0)
	// Same bytes, wildly different segment counts.
	dense := d.EstimateKernelNs(1<<20, 8, 0)
	sparse := d.EstimateKernelNs(1<<20, 50_000, 0)
	if sparse <= dense {
		t.Fatalf("sparse (%d) should cost more than dense (%d)", sparse, dense)
	}
}

func TestKernelCostScalesWithBytes(t *testing.T) {
	d := NewDevice(sim.NewEnv(), testArch(), 0, 0)
	small := d.EstimateKernelNs(1<<14, 16, 0)
	big := d.EstimateKernelNs(1<<26, 16, 0)
	if big <= small {
		t.Fatalf("64MB (%d) should cost more than 16KB (%d)", big, small)
	}
}

func TestLaunchOverheadDominatesSmallKernels(t *testing.T) {
	// The paper's Fig. 1 phenomenon: for representative packing shapes,
	// launch overhead exceeds kernel execution time on modern GPUs.
	d := NewDevice(sim.NewEnv(), testArch(), 0, 0)
	kernel := d.EstimateKernelNs(96<<10, 4000, 32) // specfem-like sparse
	if kernel >= d.Arch.LaunchOverheadNs {
		t.Fatalf("kernel %dns not dominated by launch %dns", kernel, d.Arch.LaunchOverheadNs)
	}
}

func TestEventRecordQuerySync(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	env.Spawn("host", func(p *sim.Proc) {
		c := st.Launch(p, KernelSpec{Name: "k", Bytes: 1 << 22, Segments: 128})
		ev := st.Record(p, "after-k")
		if ev.Query(p) {
			t.Error("event fired while kernel still running")
		}
		ev.Synchronize(p)
		if !ev.Query(p) {
			t.Error("event not fired after synchronize")
		}
		if p.Now() < c.End {
			t.Errorf("sync returned at %d before kernel end %d", p.Now(), c.End)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.EventRecords != 1 || d.Stats.EventQueries != 2 {
		t.Fatalf("event stats wrong: %+v", d.Stats)
	}
}

func TestRecordOnIdleStreamFiresImmediately(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	env.Spawn("host", func(p *sim.Proc) {
		ev := st.Record(p, "idle")
		if !ev.Done() {
			t.Error("event on idle stream should fire immediately")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMemcpyAsyncPaths(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	var d2d, h2d *Completion
	env.Spawn("host", func(p *sim.Proc) {
		d2d = st.MemcpyAsync(p, CopyD2D, 1<<20, nil)
		h2d = st.MemcpyAsync(p, CopyH2D, 1<<20, nil)
		st.Synchronize(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	d2dDur := d2d.End - d2d.Start
	h2dDur := h2d.End - h2d.Start
	if h2dDur <= d2dDur {
		t.Fatalf("H2D (%d) should be slower than D2D (%d): link slower than HBM", h2dDur, d2dDur)
	}
	if d.Stats.MemcpyCalls != 2 || d.Stats.MemcpyBytes != 2<<20 {
		t.Fatalf("memcpy stats wrong: %+v", d.Stats)
	}
}

func TestStreamSynchronizeIdleIsCheap(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	var took int64
	env.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		st.Synchronize(p)
		took = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if took != d.Arch.StreamSyncBaseNs {
		t.Fatalf("idle sync took %d, want just the base cost %d", took, d.Arch.StreamSyncBaseNs)
	}
}

func TestAllocTracksBytes(t *testing.T) {
	_, d := newTestDevice(t)
	d.Alloc("a", 100)
	d.Alloc("b", 28)
	if d.AllocatedBytes() != 128 {
		t.Fatalf("allocated = %d, want 128", d.AllocatedBytes())
	}
	b := HostAlloc("h", 16)
	if b.Space != SpaceHost || b.Len() != 16 || b.Dev != nil {
		t.Fatalf("host alloc wrong: %+v", b)
	}
}

// Property: kernel cost is monotone in bytes and in segments.
func TestPropertyKernelCostMonotone(t *testing.T) {
	d := NewDevice(sim.NewEnv(), testArch(), 0, 0)
	f := func(b1, b2 uint32, s1, s2 uint16) bool {
		bytes1, bytes2 := int64(b1%(1<<24))+1, int64(b2%(1<<24))+1
		if bytes1 > bytes2 {
			bytes1, bytes2 = bytes2, bytes1
		}
		segs1, segs2 := int(s1%5000)+1, int(s2%5000)+1
		if segs1 > segs2 {
			segs1, segs2 = segs2, segs1
		}
		// more bytes, same segments
		if d.EstimateKernelNs(bytes2, segs1, 0) < d.EstimateKernelNs(bytes1, segs1, 0) {
			return false
		}
		// more segments, same bytes: cost may only grow once the
		// grid saturates; with one block per segment below the cap
		// it can shrink, so compare at the same grid saturation.
		if segs1 >= d.Arch.MaxResidentBlocks() {
			if d.EstimateKernelNs(bytes1, segs2, 0) < d.EstimateKernelNs(bytes1, segs1, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitMatchesLaunch: a kernel nobody waits on (Submit) starts, ends
// and runs its work exactly where Launch would, at the same place among
// events queued for the same time.
func TestSubmitMatchesLaunch(t *testing.T) {
	run := func(submit bool) (spans [][2]int64, order []string) {
		env, d := newTestDevice(t)
		st := d.NewStream("s0")
		work := func(name string) sim.Handler {
			return sim.HandlerFunc(func() { order = append(order, fmt.Sprintf("%s@%d", name, env.Now())) })
		}
		env.Spawn("host", func(p *sim.Proc) {
			for i, segs := range []int{4, 1, 64} {
				spec := KernelSpec{Name: "k", Bytes: 4096, Segments: segs, Work: work(fmt.Sprint(i))}
				var start, end int64
				if submit {
					start, end = st.Submit(p, spec)
				} else {
					c := st.Launch(p, spec)
					start, end = c.Start, c.End
				}
				spans = append(spans, [2]int64{start, end})
				env.At(end, func() { order = append(order, fmt.Sprintf("after%d", i)) })
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return spans, order
	}
	ls, lo := run(false)
	ss, so := run(true)
	if fmt.Sprint(ls) != fmt.Sprint(ss) || fmt.Sprint(lo) != fmt.Sprint(so) {
		t.Fatalf("Launch: spans %v, order %v\nSubmit: spans %v, order %v", ls, lo, ss, so)
	}
}

// TestWarmSubmitAllocs: a warm Submit whose work already exists allocates
// nothing, where Launch makes the Completion.
func TestWarmSubmitAllocs(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	spec := KernelSpec{Name: "k", Bytes: 4096, Segments: 4, Work: sim.HandlerFunc(func() {})}
	submit, launch := -1.0, -1.0
	env.Spawn("host", func(p *sim.Proc) {
		st.Submit(p, spec)
		st.Launch(p, spec) // warm: queue buckets
		submit = testing.AllocsPerRun(100, func() { st.Submit(p, spec) })
		launch = testing.AllocsPerRun(100, func() { st.Launch(p, spec) })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if submit != 0 || launch != 1 {
		t.Fatalf("a warm Submit allocates %v times and Launch %v, want 0 and 1", submit, launch)
	}
}
