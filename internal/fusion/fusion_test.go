package fusion

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/layoutcache"
	"repro/internal/pack"
	"repro/internal/sim"
	"repro/internal/trace"
)

func newSched(cfg Config) (*sim.Env, *gpu.Device, *Scheduler) {
	env := sim.NewEnv()
	dev := gpu.NewDevice(env, cluster.VoltaV100NVLink(), 0, 0)
	return env, dev, NewScheduler(dev, dev.NewStream("fusion"), cfg)
}

// jobSeq makes buffer names unique across mkPackJob calls on one device
// (the device rejects duplicate names).
var jobSeq int

// mkPackJob builds a sparse pack job with real buffers and returns the job
// plus a verifier closure.
func mkPackJob(dev *gpu.Device, seed int64, blocks, blockLen int) (*pack.Job, func() error) {
	lens := make([]int, blocks)
	displs := make([]int, blocks)
	for i := range lens {
		lens[i] = blockLen
		displs[i] = i * (blockLen + 3)
	}
	l := datatype.Commit(datatype.Indexed(lens, displs, datatype.Float32))
	jobSeq++
	src := dev.Alloc(fmt.Sprintf("src%d", jobSeq), int(l.ExtentBytes))
	dst := dev.Alloc(fmt.Sprintf("dst%d", jobSeq), int(l.SizeBytes))
	rng := rand.New(rand.NewSource(seed))
	rng.Read(src.Data)
	job := pack.NewJob(pack.OpPack, src, dst, l.Blocks)
	verify := func() error {
		ref := make([]byte, l.SizeBytes)
		l.Pack(src.Data, ref)
		if !bytes.Equal(dst.Data, ref) {
			return fmt.Errorf("packed bytes wrong for job seed %d", seed)
		}
		return nil
	}
	return job, verify
}

func TestEnqueueReturnsIncreasingUIDs(t *testing.T) {
	env, dev, s := newSched(Config{ThresholdBytes: 1 << 30})
	env.Spawn("pe", func(p *sim.Proc) {
		j1, _ := mkPackJob(dev, 1, 100, 2)
		j2, _ := mkPackJob(dev, 2, 100, 2)
		u1 := s.Enqueue(p, j1)
		u2 := s.Enqueue(p, j2)
		if u1 <= 0 || u2 <= u1 {
			t.Errorf("uids not increasing: %d %d", u1, u2)
		}
		if s.PendingCount() != 2 {
			t.Errorf("pending = %d", s.PendingCount())
		}
		s.Flush(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitFlushRunsAllAndSignalsCompletion(t *testing.T) {
	env, dev, s := newSched(Config{ThresholdBytes: 1 << 30})
	var verifiers []func() error
	env.Spawn("pe", func(p *sim.Proc) {
		var uids []int64
		for i := 0; i < 8; i++ {
			j, v := mkPackJob(dev, int64(i), 200, 1)
			verifiers = append(verifiers, v)
			uids = append(uids, s.Enqueue(p, j))
		}
		s.Flush(p)
		for _, uid := range uids {
			ev := s.DoneEvent(uid)
			if ev == nil {
				t.Errorf("uid %d unknown", uid)
				continue
			}
			p.Wait(ev)
			if ok, _ := s.Done(p, uid); !ok {
				t.Errorf("uid %d not done after event", uid)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, v := range verifiers {
		if err := v(); err != nil {
			t.Error(err)
		}
	}
	if dev.Stats.KernelLaunches != 1 {
		t.Fatalf("launches = %d, want exactly 1 fused", dev.Stats.KernelLaunches)
	}
	if s.Stats.FusedRequests != 8 || s.Stats.ExplicitFlushes != 1 {
		t.Fatalf("stats: %+v", s.Stats)
	}
}

func TestThresholdFlushFires(t *testing.T) {
	env, dev, s := newSched(Config{ThresholdBytes: 4 << 10})
	env.Spawn("pe", func(p *sim.Proc) {
		// Each job is 200 blocks * 4B = 800B; the 6th crosses 4 KiB.
		for i := 0; i < 6; i++ {
			j, _ := mkPackJob(dev, int64(i), 200, 1)
			s.Enqueue(p, j)
		}
		if s.Stats.ThresholdFlushes != 1 {
			t.Errorf("threshold flushes = %d", s.Stats.ThresholdFlushes)
		}
		if s.PendingCount() != 0 {
			t.Errorf("pending after threshold flush = %d", s.PendingCount())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.Stats.FusedKernels != 1 {
		t.Fatalf("fused kernels = %d", dev.Stats.FusedKernels)
	}
}

func TestQueueFullFallback(t *testing.T) {
	env, dev, s := newSched(Config{QueueCapacity: 2, ThresholdBytes: 1 << 40})
	env.Spawn("pe", func(p *sim.Proc) {
		j1, _ := mkPackJob(dev, 1, 10, 1)
		j2, _ := mkPackJob(dev, 2, 10, 1)
		j3, _ := mkPackJob(dev, 3, 10, 1)
		if s.Enqueue(p, j1) <= 0 || s.Enqueue(p, j2) <= 0 {
			t.Error("first two enqueues must succeed")
		}
		if got := s.Enqueue(p, j3); got != ErrQueueFull {
			t.Errorf("third enqueue = %d, want ErrQueueFull", got)
		}
		if s.Stats.Rejected != 1 {
			t.Errorf("rejected = %d", s.Stats.Rejected)
		}
		s.Flush(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEntriesRecycleAfterRelease(t *testing.T) {
	env, dev, s := newSched(Config{QueueCapacity: 2, ThresholdBytes: 1 << 40})
	env.Spawn("pe", func(p *sim.Proc) {
		for round := 0; round < 5; round++ {
			j1, _ := mkPackJob(dev, int64(round), 10, 1)
			j2, _ := mkPackJob(dev, int64(round+100), 10, 1)
			u1, u2 := s.Enqueue(p, j1), s.Enqueue(p, j2)
			if u1 <= 0 || u2 <= 0 {
				t.Fatalf("round %d: queue full despite releases", round)
			}
			s.Flush(p)
			p.Wait(s.DoneEvent(u1))
			p.Wait(s.DoneEvent(u2))
			s.Release(u1)
			s.Release(u2)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRequestListGrowsInBlocks: a scheduler makes its request-list
// entries a block at a time, reuses released ones before it makes more,
// and makes none past QueueCapacity.
func TestRequestListGrowsInBlocks(t *testing.T) {
	const capacity = entryBlock + 10
	env, dev, s := newSched(Config{QueueCapacity: capacity, ThresholdBytes: 1 << 40})
	if s.made != entryBlock {
		t.Fatalf("a new scheduler made %d entries, want %d", s.made, entryBlock)
	}
	env.Spawn("pe", func(p *sim.Proc) {
		var uids []int64
		for i := 0; i < entryBlock; i++ {
			j, _ := mkPackJob(dev, int64(i), 4, 1)
			uids = append(uids, s.Enqueue(p, j))
		}
		s.Flush(p)
		for _, u := range uids {
			p.Wait(s.DoneEvent(u))
			s.Release(u)
		}
		// Never launched: these only hold entries.
		for i := 0; i < capacity; i++ {
			if u := s.Enqueue(p, &pack.Job{Shape: &layoutcache.Shape{Bytes: 1}}); u <= 0 {
				t.Fatalf("enqueue %d of %d rejected", i+1, capacity)
			}
		}
		if u := s.Enqueue(p, &pack.Job{Shape: &layoutcache.Shape{Bytes: 1}}); u != ErrQueueFull {
			t.Errorf("enqueue past capacity = %d, want ErrQueueFull", u)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if s.made != capacity || s.Stats.Rejected != 1 {
		t.Fatalf("made %d entries and rejected %d, want %d and 1", s.made, s.Stats.Rejected, capacity)
	}
}

// TestDoneEventNamesSurviveEntryReuse: a request's completion event is
// named fusion-req-<uid> by the UID it was enqueued with, also after its
// request-list entry was released and reused by a later request. The
// name is read through the double-fire panic text.
func TestDoneEventNamesSurviveEntryReuse(t *testing.T) {
	env, dev, s := newSched(Config{QueueCapacity: 1, ThresholdBytes: 1 << 40})
	nameOf := func(ev *sim.Event) (name any) {
		defer func() { name = recover() }()
		ev.Fire()
		return nil
	}
	env.Spawn("pe", func(p *sim.Proc) {
		var uids []int64
		var evs []*sim.Event
		for seed := int64(1); seed <= 2; seed++ {
			j, _ := mkPackJob(dev, seed, 10, 1)
			u := s.Enqueue(p, j)
			uids, evs = append(uids, u), append(evs, s.DoneEvent(u))
			s.Flush(p)
			p.Wait(evs[len(evs)-1])
			s.Release(u)
		}
		for i, ev := range evs {
			if got, want := nameOf(ev), fmt.Sprintf("sim: event fired twice: fusion-req-%d", uids[i]); got != want {
				t.Errorf("request %d: %v, want %q", i, got, want)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleUIDAfterSlotReuse: a UID addresses its request-list slot, so a
// released request's UID must stay done and unknown once a later request
// reuses that slot, and acting on it must leave the later request alone.
func TestStaleUIDAfterSlotReuse(t *testing.T) {
	const capacity = 4
	env, dev, s := newSched(Config{QueueCapacity: capacity, ThresholdBytes: 1 << 40})
	env.Spawn("pe", func(p *sim.Proc) {
		ja, _ := mkPackJob(dev, 1, 10, 1)
		a := s.Enqueue(p, ja)
		s.Flush(p)
		p.Wait(s.DoneEvent(a))
		s.Release(a)
		jb, verify := mkPackJob(dev, 2, 10, 1)
		b := s.Enqueue(p, jb)
		if a%capacity != b%capacity {
			t.Fatalf("B (uid %d) did not reuse A's (uid %d) slot", b, a)
		}
		if b <= a {
			t.Errorf("B's uid %d not above A's %d", b, a)
		}
		if ok, err := s.Done(p, a); !ok || err != nil {
			t.Errorf("Done(A) = %v, %v; want true", ok, err)
		}
		if ev := s.DoneEvent(a); ev != nil {
			t.Error("DoneEvent(A) made an event for a released request")
		}
		s.Release(a)
		if s.PendingCount() != 1 {
			t.Fatalf("Release(A) left %d pending, want B", s.PendingCount())
		}
		if ok, _ := s.Done(p, b); ok {
			t.Error("B done before its launch")
		}
		evB := s.DoneEvent(b)
		s.Flush(p)
		p.Wait(evB)
		if _, ok := s.RequestLatency(a); ok {
			t.Error("RequestLatency(A) reported B's completion")
		}
		if _, ok := s.RequestLatency(b); !ok {
			t.Error("RequestLatency(B) not ok after its completion")
		}
		func() {
			defer func() {
				if got, want := recover(), "sim: event fired twice: fusion-req-2"; got != want {
					t.Errorf("B's event: %v, want %q", got, want)
				}
			}()
			evB.Fire()
		}()
		if err := verify(); err != nil {
			t.Error(err)
		}
		if ok, err := s.Done(p, b); !ok || err != nil {
			t.Errorf("Done(B) = %v, %v; want true", ok, err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDoneEventAfterCompletionHasFired: a request's completion event asked
// for only after the request completed, and before its entry is released,
// has already fired at the completion time, and a wait on it returns at
// once.
func TestDoneEventAfterCompletionHasFired(t *testing.T) {
	env, dev, s := newSched(Config{ThresholdBytes: 1 << 40})
	env.Spawn("pe", func(p *sim.Proc) {
		j, _ := mkPackJob(dev, 1, 10, 1)
		u := s.Enqueue(p, j)
		enq := p.Now()
		s.Flush(p)
		p.Sleep(1 << 20)
		lat, ok := s.RequestLatency(u)
		if !ok {
			t.Error("request not complete after 1 ms")
			return
		}
		ev := s.DoneEvent(u)
		t0 := p.Now()
		p.Wait(ev)
		if !ev.Fired() || ev.FiredAt() != enq+lat || p.Now() != t0 {
			t.Errorf("event fired %v at %d, wait took %d ns; want fired at %d, no wait",
				ev.Fired(), ev.FiredAt(), p.Now()-t0, enq+lat)
		}
		if ok, err := s.Done(p, u); !ok || err != nil {
			t.Errorf("Done = %v, %v", ok, err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoneOnUnknownUIDIsTrue(t *testing.T) {
	env, _, s := newSched(Config{})
	env.Spawn("pe", func(p *sim.Proc) {
		if ok, _ := s.Done(p, 9999); !ok {
			t.Error("unknown uid should report done")
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyFlushIsCheapNoop(t *testing.T) {
	env, dev, s := newSched(Config{})
	env.Spawn("pe", func(p *sim.Proc) {
		s.Flush(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.Stats.KernelLaunches != 0 || s.Stats.EmptyFlushes != 1 {
		t.Fatalf("empty flush launched something: %+v %+v", dev.Stats, s.Stats)
	}
}

func TestNoKernelBoundarySync(t *testing.T) {
	// Completion arrives via response-status update, never via stream
	// synchronize: the device sync counter must stay zero.
	env, dev, s := newSched(Config{ThresholdBytes: 1 << 40})
	env.Spawn("pe", func(p *sim.Proc) {
		j, _ := mkPackJob(dev, 7, 500, 2)
		uid := s.Enqueue(p, j)
		s.Flush(p)
		for {
			if ok, _ := s.Done(p, uid); ok {
				break
			}
			p.Sleep(500)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.Stats.StreamSyncs != 0 || dev.Stats.EventRecords != 0 {
		t.Fatalf("fusion used explicit sync: %+v", dev.Stats)
	}
}

func TestRequestLatencyVisible(t *testing.T) {
	env, dev, s := newSched(Config{ThresholdBytes: 1 << 40})
	env.Spawn("pe", func(p *sim.Proc) {
		j, _ := mkPackJob(dev, 3, 500, 2)
		uid := s.Enqueue(p, j)
		if _, ok := s.RequestLatency(uid); ok {
			t.Error("latency available before completion")
		}
		s.Flush(p)
		p.Wait(s.DoneEvent(uid))
		lat, ok := s.RequestLatency(uid)
		if !ok || lat <= 0 {
			t.Errorf("latency = %d ok=%v", lat, ok)
		}
		s.Release(uid)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceAccrual(t *testing.T) {
	env, dev, s := newSched(Config{ThresholdBytes: 1 << 40})
	var bd trace.Breakdown
	s.Trace = &bd
	env.Spawn("pe", func(p *sim.Proc) {
		j, _ := mkPackJob(dev, 3, 100, 2)
		uid := s.Enqueue(p, j)
		s.Flush(p)
		p.Wait(s.DoneEvent(uid))
		s.Done(p, uid)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if bd.Get(trace.Scheduling) == 0 || bd.Get(trace.Launch) != dev.Arch.LaunchOverheadNs || bd.Get(trace.PackKernel) == 0 {
		t.Fatalf("trace wrong: %s", bd.String())
	}
}

func TestFusionVsSerialLatency(t *testing.T) {
	// End-to-end: 16 sparse packs via fusion vs 16 sync'd kernel
	// launches. Fusion must win by a wide margin (paper: up to 8X).
	arch := cluster.VoltaV100NVLink()

	envA := sim.NewEnv()
	devA := gpu.NewDevice(envA, arch, 0, 0)
	stA := devA.NewStream("s")
	var serial int64
	envA.Spawn("pe", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			j, _ := mkPackJob(devA, int64(i), 2000, 1)
			stA.Launch(p, j.KernelSpec())
			stA.Synchronize(p)
		}
		serial = p.Now()
	})
	if err := envA.Run(); err != nil {
		t.Fatal(err)
	}

	envB := sim.NewEnv()
	devB := gpu.NewDevice(envB, arch, 0, 0)
	sB := NewScheduler(devB, devB.NewStream("s"), Config{ThresholdBytes: 1 << 40})
	var fused int64
	envB.Spawn("pe", func(p *sim.Proc) {
		var uids []int64
		for i := 0; i < 16; i++ {
			j, _ := mkPackJob(devB, int64(i), 2000, 1)
			uids = append(uids, sB.Enqueue(p, j))
		}
		sB.Flush(p)
		for _, u := range uids {
			p.Wait(sB.DoneEvent(u))
			sB.Release(u)
		}
		fused = p.Now()
	})
	if err := envB.Run(); err != nil {
		t.Fatal(err)
	}
	if fused*4 >= serial {
		t.Fatalf("fusion end-to-end %dns, serial %dns: want >=4x win", fused, serial)
	}
}

// Property: after any sequence of enqueues and a final flush, every UID
// completes, every payload byte is correct, and exactly
// (threshold+cap+explicit) launches happened.
func TestPropertyAllRequestsComplete(t *testing.T) {
	f := func(seed int64, nRaw uint8, thrRaw uint16) bool {
		n := int(nRaw%24) + 1
		threshold := int64(thrRaw)*64 + 1024
		env, dev, s := func() (*sim.Env, *gpu.Device, *Scheduler) {
			env := sim.NewEnv()
			dev := gpu.NewDevice(env, cluster.VoltaV100NVLink(), 0, 0)
			return env, dev, NewScheduler(dev, dev.NewStream("f"), Config{ThresholdBytes: threshold})
		}()
		rng := rand.New(rand.NewSource(seed))
		ok := true
		var verifiers []func() error
		env.Spawn("pe", func(p *sim.Proc) {
			var uids []int64
			for i := 0; i < n; i++ {
				j, v := mkPackJob(dev, rng.Int63(), rng.Intn(300)+1, rng.Intn(3)+1)
				verifiers = append(verifiers, v)
				uid := s.Enqueue(p, j)
				if uid <= 0 {
					ok = false
					return
				}
				uids = append(uids, uid)
			}
			s.Flush(p)
			for _, u := range uids {
				if ev := s.DoneEvent(u); ev != nil {
					p.Wait(ev)
				}
				if done, _ := s.Done(p, u); !done {
					ok = false
				}
			}
		})
		if err := env.Run(); err != nil {
			return false
		}
		for _, v := range verifiers {
			if v() != nil {
				return false
			}
		}
		launches := s.Stats.ThresholdFlushes + s.Stats.ExplicitFlushes
		return ok && dev.Stats.KernelLaunches == launches && s.Stats.FusedRequests == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLaunchesFromTwoProcsOverlap: two procs share one scheduler, and the
// second launches while the first is still in its launch call (paying the
// driver overhead). Each launch keeps its own batch, so every request of
// both completes with its bytes moved.
func TestLaunchesFromTwoProcsOverlap(t *testing.T) {
	env, dev, s := newSched(Config{ThresholdBytes: 1 << 40})
	var verifiers []func() error
	for _, name := range []string{"pe0", "pe1"} {
		var jobs []*pack.Job
		for i := 0; i < 3; i++ {
			j, v := mkPackJob(dev, int64(len(verifiers)), 32, 2)
			jobs, verifiers = append(jobs, j), append(verifiers, v)
		}
		env.Spawn(name, func(p *sim.Proc) {
			var uids []int64
			for _, j := range jobs {
				uids = append(uids, s.Enqueue(p, j))
			}
			s.Flush(p)
			for _, u := range uids {
				p.Wait(s.DoneEvent(u))
				if ok, err := s.Done(p, u); !ok || err != nil {
					t.Errorf("%s: request %d: done %v, %v", name, u, ok, err)
				}
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, v := range verifiers {
		if err := v(); err != nil {
			t.Error(err)
		}
	}
	if s.Stats.FusedLaunches != 2 || s.Stats.FusedRequests != 6 {
		t.Fatalf("%d launches of %d requests, want 2 of 6", s.Stats.FusedLaunches, s.Stats.FusedRequests)
	}
}

// TestEnqueueCopiesJob checks that a request-list entry holds its own
// copy of the job: reusing the caller's job for the next request and then
// editing it changes neither the pending requests' bytes nor their fused
// kernel's cost, and each request still moves the bytes it was enqueued
// with.
func TestEnqueueCopiesJob(t *testing.T) {
	run := func(reuse bool) (latencies []int64) {
		env, dev, s := newSched(Config{ThresholdBytes: 1 << 40})
		var pending int64
		a, verifyA := mkPackJob(dev, 1, 64, 4)
		b, verifyB := mkPackJob(dev, 2, 8, 512)
		env.Spawn("pe", func(p *sim.Proc) {
			var uids []int64
			if reuse {
				j := *a
				uids = append(uids, s.Enqueue(p, &j))
				j = *b
				uids = append(uids, s.Enqueue(p, &j))
				j.Op, j.Target, j.TargetOff = pack.OpUnpack, a.Origin, 1
				j.Shape = &layoutcache.Shape{Bytes: 1 << 30, Segments: 1 << 20, MaxBlock: 4}
			} else {
				uids = append(uids, s.Enqueue(p, a), s.Enqueue(p, b))
			}
			pending = s.pendingBytes
			s.Flush(p)
			for _, u := range uids {
				p.Wait(s.DoneEvent(u))
				d, ok := s.RequestLatency(u)
				if !ok {
					t.Errorf("request %d not completed", u)
				}
				latencies = append(latencies, d)
				s.Release(u)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		for _, verify := range []func() error{verifyA, verifyB} {
			if err := verify(); err != nil {
				t.Errorf("reuse=%v: %v", reuse, err)
			}
		}
		if want := a.Bytes + b.Bytes; pending != want {
			t.Errorf("reuse=%v: %d bytes pending, want %d", reuse, pending, want)
		}
		return latencies
	}
	fresh, reused := run(false), run(true)
	if fmt.Sprint(reused) != fmt.Sprint(fresh) {
		t.Errorf("latencies with a reused job %v, with separate jobs %v", reused, fresh)
	}
}
