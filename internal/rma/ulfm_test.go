package rma_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/rma"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// crashPlan plans the deterministic death of one rank.
func crashPlan(victim int, atNs int64) *fault.Plan {
	return &fault.Plan{
		Seed: 7,
		Proc: fault.ProcPlan{Crashes: []fault.Crash{{Rank: victim, AtNs: atNs}}},
	}
}

// TestReapInFlightPut: a put whose wire leg is still in flight when the
// target is declared dead must be reaped — Quiet drains with a typed
// *OpError wrapping *mpi.RankFailedError instead of waiting out the wire
// leg, and the late delivery is suppressed idempotently.
func TestReapInFlightPut(t *testing.T) {
	const (
		victim  = 5
		crashAt = 20_000
		n       = 32 << 20 // ~670 µs on the IB leg, far beyond the detection bound
	)
	w := testWorld(2, true, crashPlan(victim, crashAt), false)
	f := rma.New(w)
	var putErr error
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			win, err := f.OpenWindow(0, "reap", n)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			src := r.Dev.Alloc("reap-src", n)
			src.FillStream(99)
			p.Sleep(crashAt + 5_000 - p.Now()) // issue after the crash, before detection
			ep := f.Endpoint(0)
			if err := ep.Put(p, win, victim, 0, src, 0, n); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			putErr = ep.Quiet(p)
		case victim:
			p.Sleep(10_000_000) // killed mid-sleep at crashAt
		}
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	var oe *rma.OpError
	if !errors.As(putErr, &oe) || !errors.Is(putErr, mpi.ErrRankFailed) {
		t.Fatalf("Quiet returned %v, want *OpError wrapping ErrRankFailed", putErr)
	}
	var rf *mpi.RankFailedError
	if !errors.As(putErr, &rf) || rf.Rank != victim {
		t.Fatalf("Quiet error %v, want RankFailedError{Rank:%d}", putErr, victim)
	}
	if f.PendingOps() != 0 {
		t.Fatalf("%d ops still pending after reap", f.PendingOps())
	}
	if got := f.TotalStats().Reaped; got != 1 {
		t.Fatalf("Reaped = %d, want 1", got)
	}
}

// TestWaitSignalObservesFailure: a signal wait whose producer died returns
// the typed failure on the virtual clock instead of stalling.
func TestWaitSignalObservesFailure(t *testing.T) {
	const victim = 3
	w := testWorld(2, false, crashPlan(victim, 20_000), false)
	f := rma.New(w)
	var waitErr error
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			sig, err := f.OpenSignal("never", 2)
			if err != nil {
				t.Errorf("signal: %v", err)
				return
			}
			waitErr = f.Endpoint(0).WaitSignal(p, sig, 0, 1)
		case victim:
			p.Sleep(10_000_000)
		}
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	var rf *mpi.RankFailedError
	if !errors.As(waitErr, &rf) || rf.Rank != victim {
		t.Fatalf("WaitSignal returned %v, want *RankFailedError{Rank:%d}", waitErr, victim)
	}
	if rf.DetectedAt <= 20_000 {
		t.Fatalf("DetectedAt = %d, want after the crash", rf.DetectedAt)
	}
}

// TestWaitSignalStall: with no injector and no failure tolerance, a signal
// that never arrives must surface the sim watchdog bound as a graceful
// per-rank *sim.StallError — one poll before the scheduler-side watchdog
// would abort the whole run.
func TestWaitSignalStall(t *testing.T) {
	env := sim.NewEnv()
	c := cluster.MustBuild(env, cluster.Lassen())
	cfg := mpi.DefaultConfig()
	cfg.StallTimeoutNs = 50_000
	w := mpi.NewWorld(c, cfg, schemes.Factory("Proposed-Tuned"))
	f := rma.New(w)
	var waitErr error
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() != 0 {
			return
		}
		sig, serr := f.OpenSignal("lost", 1)
		if serr != nil {
			t.Errorf("signal: %v", serr)
			return
		}
		waitErr = f.Endpoint(0).WaitSignal(p, sig, 0, 1)
	})
	if err != nil {
		t.Fatalf("world aborted instead of the graceful per-rank unwind: %v", err)
	}
	var se *sim.StallError
	if !errors.As(waitErr, &se) {
		t.Fatalf("WaitSignal returned %v, want *sim.StallError", waitErr)
	}
	if se.TimeoutNs != 50_000 {
		t.Fatalf("StallError.TimeoutNs = %d, want 50000", se.TimeoutNs)
	}
}

// TestFailFastToDeclaredDead: once the detector has declared a rank, every
// verb aimed at it fails fast with the same typed shape a reaped op would
// produce — no op is created, nothing is left pending.
func TestFailFastToDeclaredDead(t *testing.T) {
	const victim = 2
	w := testWorld(2, false, crashPlan(victim, 20_000), false)
	f := rma.New(w)
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			win, err := f.OpenWindow(0, "ff", 4096)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			sig, err := f.OpenSignal("ff-sig", 1)
			if err != nil {
				t.Errorf("signal: %v", err)
				return
			}
			for !w.RankFailed(victim) {
				p.Sleep(5_000)
			}
			src := r.Dev.Alloc("ff-src", 4096)
			ep := f.Endpoint(0)
			for verb, call := range map[string]func() error{
				"put":    func() error { return ep.Put(p, win, victim, 0, src, 0, 128) },
				"get":    func() error { return ep.Get(p, win, victim, 0, src, 0, 128) },
				"signal": func() error { return ep.SignalPut(p, sig, victim, 0, 1) },
			} {
				err := call()
				var oe *rma.OpError
				if !errors.As(err, &oe) || !errors.Is(err, mpi.ErrRankFailed) {
					t.Errorf("%s to dead rank: %v, want *OpError wrapping ErrRankFailed", verb, err)
				}
			}
			if err := ep.Quiet(p); err != nil {
				t.Errorf("quiet after fail-fast: %v", err)
			}
		case victim:
			p.Sleep(10_000_000)
		}
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	if f.PendingOps() != 0 {
		t.Fatalf("%d ops pending after fail-fast verbs", f.PendingOps())
	}
}

// TestReseatRebuild drives the full survivor re-rendezvous: crash →
// detect → revoke → shrink → Reseat, then asserts the dense re-rank, the
// invalidation of old-epoch handles, and a byte-exact put ring among the
// survivors on the rebuilt symmetric heap.
func TestReseatRebuild(t *testing.T) {
	const (
		victim = 1
		n      = 2048
	)
	w := testWorld(2, false, crashPlan(victim, 20_000), false)
	f := rma.New(w)
	size := w.Size()
	nSurv := size - 1
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		id := r.ID()
		if id == victim {
			p.Sleep(10_000_000)
			return
		}
		// Epoch 0: everyone opens a window and completes a clean put.
		win0, err := f.OpenWindow(id, "epoch0", 4096)
		if err != nil {
			t.Errorf("rank %d: open: %v", id, err)
			return
		}
		src := r.Dev.Alloc(fmt.Sprintf("e0-src-%d", id), n)
		src.FillStream(uint64(id) + 1)
		ep := f.Endpoint(id)
		if err := ep.Put(p, win0, id, 0, src, 0, n); err != nil {
			t.Errorf("rank %d: self put: %v", id, err)
			return
		}
		if err := ep.Quiet(p); err != nil {
			t.Errorf("rank %d: quiet: %v", id, err)
			return
		}
		// Wait out detection, revoke, shrink.
		for !w.RankFailed(victim) {
			p.Sleep(5_000)
		}
		wc := w.WorldComm()
		if !wc.Revoked(r) {
			wc.Revoke(p, r)
		}
		sub, serr := wc.Shrink(p, r)
		if serr != nil {
			t.Errorf("rank %d: shrink: %v", id, serr)
			return
		}
		if err := f.Reseat(p, r, sub); err != nil {
			t.Errorf("rank %d: reseat: %v", id, err)
			return
		}
		// Old-epoch handles are poison now.
		var re *rma.RevokedError
		err = ep.Put(p, win0, 0, 0, src, 0, 64)
		if !errors.As(err, &re) || !errors.Is(err, mpi.ErrCommRevoked) {
			t.Errorf("rank %d: put on old window: %v, want *RevokedError", id, err)
		}
		// Reseating back onto a stale epoch is rejected.
		if err := f.Reseat(p, r, wc); err == nil {
			t.Errorf("rank %d: Reseat onto the revoked world comm succeeded", id)
		}
		// Fresh epoch: dense members, mirrored heap, byte-exact ring.
		m := f.MemberOf(id)
		if m < 0 || f.WorldRank(m) != id {
			t.Errorf("rank %d: member index %d does not round-trip", id, m)
			return
		}
		win1, err := f.OpenWindow(m, "ring1", 4096)
		if err != nil {
			t.Errorf("rank %d: open epoch1: %v", id, err)
			return
		}
		sig, err := f.OpenSignal("ring1-sig", 1)
		if err != nil {
			t.Errorf("rank %d: signal epoch1: %v", id, err)
			return
		}
		src.FillStream(uint64(100 + id))
		right := (m + 1) % nSurv
		if err := ep.PutSignal(p, win1, right, 0, src, 0, n, sig, 0, 1); err != nil {
			t.Errorf("rank %d: epoch1 put: %v", id, err)
			return
		}
		if err := ep.WaitSignal(p, sig, 0, 1); err != nil {
			t.Errorf("rank %d: epoch1 wait: %v", id, err)
			return
		}
		if err := ep.Quiet(p); err != nil {
			t.Errorf("rank %d: epoch1 quiet: %v", id, err)
			return
		}
		leftWorld := f.WorldRank((m - 1 + nSurv) % nSurv)
		got := win1.Buf(m).ChecksumRange(0, n)
		want := refChecksum(r, fmt.Sprintf("ref1-%d", id), uint64(100+leftWorld), n)
		if got != want {
			t.Errorf("rank %d: epoch1 window checksum %#x, want %#x (from rank %d)", id, got, want, leftWorld)
		}
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	if f.Epoch() != 1 {
		t.Fatalf("fabric epoch %d, want 1", f.Epoch())
	}
	if f.Size() != nSurv {
		t.Fatalf("fabric size %d, want %d", f.Size(), nSurv)
	}
	if f.MemberOf(victim) != -1 {
		t.Fatalf("dead rank still a member (index %d)", f.MemberOf(victim))
	}
	for m, wr := range f.Members() {
		if f.MemberOf(wr) != m {
			t.Fatalf("member table not dense: member %d world %d maps back to %d", m, wr, f.MemberOf(wr))
		}
	}
	if f.PendingOps() != 0 {
		t.Fatalf("%d ops pending after reseat", f.PendingOps())
	}
	// The reseat itself must have been recorded for replay comparison.
	found := false
	for _, ev := range w.FaultEvents() {
		if ev.Kind == fault.Reseat {
			found = true
		}
	}
	if !found {
		t.Fatal("no reseat fault event recorded")
	}
}

// TestReapedOpNotReused: under failure tolerance a reaped op is never
// given back for reuse. Rank 0's signalled put to a crashed target is
// reaped while its wire leg is still in flight; the survivor puts issued
// after it run while that leg lands, and its late delivery must touch
// none of them: every survivor signal counts each of its puts once, the
// bytes land, and no op goes back to the free list.
func TestReapedOpNotReused(t *testing.T) {
	const (
		victim  = 5
		crashAt = 20_000
		n       = 32 << 20 // ~670 µs on the IB leg, far beyond the detection bound
		small   = 64 << 10
		until   = 1_500_000 // well after the reaped leg has landed
	)
	w := testWorld(2, true, crashPlan(victim, crashAt), false)
	f := rma.New(w)
	win, err := f.AllocWindow("reap", n)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := f.OpenSignal("reap-sig", 1)
	if err != nil {
		t.Fatal(err)
	}
	src := w.Rank(0).Dev.Alloc("reap-src", n)
	src.FillStream(99)
	var reapErr error
	var puts [8]uint64
	err = w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			p.Sleep(crashAt + 5_000 - p.Now()) // issue after the crash, before detection
			ep := f.Endpoint(0)
			if err := ep.PutSignal(p, win, victim, 0, src, 0, n, sig, 0, 1); err != nil {
				t.Errorf("put to the victim: %v", err)
				return
			}
			reapErr = ep.Quiet(p)
			for i := 0; p.Now() < until; i++ {
				tgt, dst, from := []int{1, 4}[i%2], int64(i%8)*small, int64(i)*small%n
				if err := ep.PutSignal(p, win, tgt, dst, src, from, small, sig, 0, 1); err != nil {
					t.Errorf("survivor put %d: %v", i, err)
					return
				}
				puts[tgt]++
				if err := ep.Quiet(p); err != nil {
					t.Errorf("survivor quiet %d: %v", i, err)
					return
				}
				if got := sig.Value(tgt, 0); got != puts[tgt] {
					t.Errorf("after survivor put %d, rank %d's signal reads %d, want %d", i, tgt, got, puts[tgt])
					return
				}
				if got, want := win.Buf(tgt).ChecksumRange(dst, small), src.ChecksumRange(from, small); got != want {
					t.Errorf("survivor put %d: rank %d's window reads %#x, want %#x", i, tgt, got, want)
					return
				}
			}
		case victim:
			p.Sleep(10_000_000) // killed mid-sleep at crashAt
		}
	})
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	if !errors.Is(reapErr, mpi.ErrRankFailed) {
		t.Fatalf("Quiet after the crash returned %v, want ErrRankFailed", reapErr)
	}
	if puts[1] < 2 || puts[4] < 2 {
		t.Fatalf("survivor puts %d to rank 1 and %d to rank 4, want several of each", puts[1], puts[4])
	}
	if got := f.TotalStats().Reaped; got != 1 {
		t.Fatalf("Reaped = %d, want 1", got)
	}
	if n := f.PendingOps(); n != 0 {
		t.Fatalf("%d ops still pending", n)
	}
	if n := rma.FreeOps(f); n != 0 {
		t.Fatalf("%d ops were given back for reuse under failure tolerance", n)
	}
}
