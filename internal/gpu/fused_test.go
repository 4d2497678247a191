package gpu

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/timeline"
)

// kernelName names a fused kernel by a fixed string.
type kernelName string

func (n kernelName) EventName() string { return string(n) }

// countingName names a fused kernel batch-7 and counts how often the name
// is read.
type countingName struct{ reads int }

func (n *countingName) EventName() string {
	n.reads++
	return "batch-7"
}

// TestLaunchNamesFormatOnlyWhenRead: on an untraced device, a fused launch
// never reads the fused kernel's name, and a panic text reads a kernel's
// and a copy's completion event names as <op>@<stream>.
func TestLaunchNamesFormatOnlyWhenRead(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	n := &countingName{}
	var evs []*sim.Event
	env.Spawn("host", func(p *sim.Proc) {
		c := st.Launch(p, KernelSpec{Name: "k", Bytes: 1024, Segments: 4})
		m := st.MemcpyAsync(p, CopyH2D, 1024, nil)
		if _, _, err := st.LaunchFused(p, n, works{{Bytes: 1024, Segments: 4}}); err != nil {
			t.Error(err)
		}
		evs = []*sim.Event{c.Event(), m.Event()}
		p.WaitAll(evs...)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if n.reads != 0 {
		t.Fatalf("an untraced fused launch read its name %d times", n.reads)
	}
	nameOf := func(ev *sim.Event) (name any) {
		defer func() { name = recover() }()
		ev.Fire()
		return nil
	}
	for i, want := range []string{"k@s0", "memcpy-H2D@s0"} {
		if got := nameOf(evs[i]); got != "sim: event fired twice: "+want {
			t.Errorf("event %d: double fire panicked with %v, want the name %q", i, got, want)
		}
	}
}

func TestFusedSingleLaunchOverhead(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	reqs := make(works, 16)
	for i := range reqs {
		reqs[i] = FusedWork{Bytes: 32 << 10, Segments: 1000}
	}
	var afterLaunch int64
	env.Spawn("host", func(p *sim.Proc) {
		st.LaunchFused(p, kernelName("fused16"), reqs)
		afterLaunch = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if afterLaunch != d.Arch.LaunchOverheadNs {
		t.Fatalf("fused launch CPU cost = %d, want one launch overhead %d", afterLaunch, d.Arch.LaunchOverheadNs)
	}
	if d.Stats.KernelLaunches != 1 || d.Stats.FusedKernels != 1 || d.Stats.FusedRequests != 16 {
		t.Fatalf("stats wrong: %+v", d.Stats)
	}
}

func TestFusedBeatsSerialLaunches(t *testing.T) {
	// The headline claim: N small packing operations fused into one
	// kernel finish far sooner than N individually launched kernels.
	arch := testArch()
	mkReqs := func() works {
		reqs := make(works, 16)
		for i := range reqs {
			reqs[i] = FusedWork{Bytes: 24 << 10, Segments: 2000}
		}
		return reqs
	}

	envA := sim.NewEnv()
	dA := NewDevice(envA, arch, 0, 0)
	stA := dA.NewStream("s")
	var serialEnd int64
	envA.Spawn("host", func(p *sim.Proc) {
		for i, r := range mkReqs() {
			stA.Launch(p, KernelSpec{Name: fmt.Sprintf("r%d", i), Bytes: r.Bytes, Segments: r.Segments})
		}
		stA.Synchronize(p)
		serialEnd = p.Now()
	})
	if err := envA.Run(); err != nil {
		t.Fatal(err)
	}

	envB := sim.NewEnv()
	dB := NewDevice(envB, arch, 0, 0)
	stB := dB.NewStream("s")
	var fusedEnd int64
	envB.Spawn("host", func(p *sim.Proc) {
		_, end, _ := stB.LaunchFused(p, kernelName("fused"), mkReqs())
		p.Sleep(end - p.Now())
		fusedEnd = p.Now()
	})
	if err := envB.Run(); err != nil {
		t.Fatal(err)
	}

	if fusedEnd*3 >= serialEnd {
		t.Fatalf("fused (%d) not at least 3x faster than serial (%d)", fusedEnd, serialEnd)
	}
}

func TestFusedPerRequestCompletionSignalling(t *testing.T) {
	env, d := newTestDevice(t)
	d.TL = timeline.NewRecorder(0, 0)
	st := d.NewStream("s0")
	// One tiny request and one huge one: the tiny one must signal
	// completion well before the kernel retires.
	ends := []int64{-1, -1}
	reqs := signalling{
		works: works{{Bytes: 512, Segments: 4}, {Bytes: 256 << 20, Segments: 4096}},
		done:  func(i int) { ends[i] = env.Now() },
	}
	var end int64
	env.Spawn("host", func(p *sim.Proc) {
		_, end, _ = st.LaunchFused(p, kernelName("mix"), reqs)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ends[0] < 0 {
		t.Fatal("tiny request never signalled completion")
	}
	if ends[0] >= end || ends[1] != end {
		t.Fatalf("tiny completed at %d and huge at %d, want before and at kernel end %d", ends[0], ends[1], end)
	}
	spanEnd := int64(-1)
	for _, ev := range d.TL.Events() {
		if ev.Name == "fused-req:r0" {
			spanEnd = ev.End()
		}
	}
	if spanEnd != ends[0] {
		t.Fatalf("the tiny request's span ends at %d, want %d", spanEnd, ends[0])
	}
}

// TestFusedRequestsCompleteInTimeThenIndexOrder: requests complete in
// (completion time, index) order, whether they share a completion time
// with their neighbours (one queued run) or not.
func TestFusedRequestsCompleteInTimeThenIndexOrder(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	var order []string
	names := []string{"a", "b", "big", "c", "d"}
	reqs := signalling{
		works: works{{Bytes: 512, Segments: 4}, {Bytes: 512, Segments: 4}, {Bytes: 1 << 20, Segments: 4},
			{Bytes: 512, Segments: 4}, {Bytes: 512, Segments: 4}},
		done: func(i int) { order = append(order, names[i]) },
	}
	env.Spawn("host", func(p *sim.Proc) { st.LaunchFused(p, kernelName("mix"), reqs) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[a b c d big]" {
		t.Fatalf("completion order %s, want [a b c d big]", got)
	}
}

func TestFusedExecMovesBytesPerRequest(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	src := d.Alloc("src", 256)
	dst := d.Alloc("dst", 256)
	for i := range src.Data {
		src.Data[i] = byte(255 - i)
	}
	reqs := signalling{
		works: works{{Bytes: 128, Segments: 2}, {Bytes: 128, Segments: 2}},
		done:  func(i int) { copy(dst.Data[i*128:(i+1)*128], src.Data[i*128:(i+1)*128]) },
	}
	env.Spawn("host", func(p *sim.Proc) { st.LaunchFused(p, kernelName("two"), reqs) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range dst.Data {
		if dst.Data[i] != byte(255-i) {
			t.Fatalf("dst[%d] = %d, want %d", i, dst.Data[i], byte(255-i))
		}
	}
}

func TestFusedEmptyPanics(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	env.Spawn("host", func(p *sim.Proc) { st.LaunchFused(p, kernelName("none"), works(nil)) })
	_ = env.Run()
}

func TestFusedSpanCloseToSingleKernel(t *testing.T) {
	// Paper Section IV: with enough SMs, the fused kernel's execution
	// time stays close to a single kernel's. 8 identical small requests
	// should cost far less than 8x one request.
	_, d := newTestDevice(t)
	one := d.EstimateFusedNs([]FusedWork{{Bytes: 16 << 10, Segments: 500}})
	reqs := make([]FusedWork, 8)
	for i := range reqs {
		reqs[i] = FusedWork{Bytes: 16 << 10, Segments: 500}
	}
	eight := d.EstimateFusedNs(reqs)
	if eight >= 4*one {
		t.Fatalf("8 fused requests cost %d, want < 4x single (%d)", eight, one)
	}
}

func TestFusedRespectsBandwidthFloor(t *testing.T) {
	_, d := newTestDevice(t)
	// Aggregate payload so large that HBM bandwidth must bound the span.
	reqs := make([]FusedWork, 16)
	var total int64
	for i := range reqs {
		reqs[i] = FusedWork{Bytes: 64 << 20, Segments: 64}
		total += reqs[i].Bytes
	}
	span := d.EstimateFusedNs(reqs)
	floor := int64(float64(total) / d.Arch.MemBWBytesPerNs)
	if span < floor {
		t.Fatalf("span %d below bandwidth floor %d", span, floor)
	}
}

// Property: the fused span is never shorter than the largest individual
// request's modeled duration, and never longer than the sum of all
// individually-launched kernel durations.
func TestPropertyFusedSpanBounds(t *testing.T) {
	d := NewDevice(sim.NewEnv(), testArch(), 0, 0)
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 24 {
			return true
		}
		reqs := make([]FusedWork, len(sizes))
		var sum int64
		var maxOne int64
		for i, s := range sizes {
			bytes := int64(s)*64 + 64
			segs := int(s%300) + 1
			reqs[i] = FusedWork{Bytes: bytes, Segments: segs}
			one := d.Arch.kernelCost(bytes, segs, d.gridFor(bytes, segs, 0), 0)
			sum += one
			if one > maxOne {
				maxOne = one
			}
		}
		span := d.EstimateFusedNs(reqs)
		// The fused model gives each request at least 1 block, so a
		// request can run slower than solo; bound loosely below by
		// the max single-request solo time divided is not sound —
		// instead check the hard invariants:
		return span >= d.Arch.KernelStartupNs && span <= sum+d.Arch.KernelStartupNs*int64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFusedMinDurationFloor(t *testing.T) {
	_, d := newTestDevice(t)
	withFloor := d.EstimateFusedNs([]FusedWork{{Bytes: 1024, Segments: 2, MinDurationNs: 500_000}})
	if withFloor < 500_000 {
		t.Fatalf("floor ignored: %d", withFloor)
	}
	without := d.EstimateFusedNs([]FusedWork{{Bytes: 1024, Segments: 2}})
	if without >= 500_000 {
		t.Fatalf("baseline unexpectedly slow: %d", without)
	}
}

func TestUniformPartitionHurtsHeterogeneousBatches(t *testing.T) {
	mixed := []FusedWork{
		{Bytes: 2 << 20, Segments: 20_000}, // huge sparse request
	}
	for i := 0; i < 15; i++ {
		mixed = append(mixed, FusedWork{Bytes: 4 << 10, Segments: 4})
	}
	arch := testArch()
	prop := NewDevice(sim.NewEnv(), arch, 0, 0).EstimateFusedNs(mixed)
	arch.UniformFusedPartition = true
	uniform := NewDevice(sim.NewEnv(), arch, 0, 0).EstimateFusedNs(mixed)
	if prop >= uniform {
		t.Fatalf("work-proportional (%d) should beat uniform (%d) on skewed batches", prop, uniform)
	}
}

// TestCompletionEventsBeforeAndAfterRetirement: the completion event of a
// kernel or a copy asked for before retirement fires once, at End, and
// wakes its waiters then; one asked for only after retirement has already
// fired at End, and a wait on it returns at once. Done reads the
// retirement flag either way.
func TestCompletionEventsBeforeAndAfterRetirement(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	woke := map[*Completion][]int64{}
	// launch launches a kernel and a copy; each is passed to asked right
	// after its own launch, before it can retire.
	launch := func(p *sim.Proc, asked func(*Completion)) []*Completion {
		c := st.Launch(p, KernelSpec{Name: "k", Bytes: 1024, Segments: 4})
		asked(c)
		m := st.MemcpyAsync(p, CopyD2D, 1<<20, nil)
		asked(m)
		return []*Completion{c, m}
	}
	env.Spawn("host", func(p *sim.Proc) {
		early := launch(p, func(c *Completion) {
			ev := c.Event()
			if ev.Fired() || c.Done() {
				t.Error("a completion retired at launch")
			}
			if c.Event() != ev {
				t.Error("a second Event call made a second event")
			}
			for i := 0; i < 2; i++ {
				env.Spawn("waiter", func(q *sim.Proc) { q.Wait(ev); woke[c] = append(woke[c], q.Now()) })
			}
		})
		late := launch(p, func(*Completion) {})
		p.Sleep(late[1].End - p.Now()) // all retired, no event asked for
		for _, c := range append(early, late...) {
			ev := c.Event()
			if !c.Done() || !ev.Fired() || ev.FiredAt() != c.End {
				t.Errorf("after retirement: done %v, fired %v, want both at %d", c.Done(), ev.Fired(), c.End)
			}
			mustPanic(t, "fired twice", ev.Fire)
		}
		for _, c := range late {
			t0 := p.Now()
			p.Wait(c.Event())
			if p.Now() != t0 {
				t.Error("a wait on an event made after retirement blocked")
			}
		}
		for _, c := range early {
			if w := woke[c]; len(w) != 2 || w[0] != c.End || w[1] != c.End {
				t.Errorf("waiters woke at %v, want twice at %d", w, c.End)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmLaunchFusedAllocs: a warm fused launch allocates nothing. The
// kernel reads the batch in place, computes its durations into the
// stream's scratch and makes no completion.
func TestWarmLaunchFusedAllocs(t *testing.T) {
	env, d := newTestDevice(t)
	st := d.NewStream("s0")
	reqs := make(works, 64)
	for i := range reqs {
		reqs[i] = FusedWork{Bytes: 4096, Segments: 4 + i%3}
	}
	allocs := -1.0
	env.Spawn("host", func(p *sim.Proc) {
		st.LaunchFused(p, kernelName("k"), &reqs) // warm: the scratch
		allocs = testing.AllocsPerRun(100, func() { st.LaunchFused(p, kernelName("k"), &reqs) })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a warm fused launch allocates %v times, want 0", allocs)
	}
}
