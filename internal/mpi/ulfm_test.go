package mpi_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// crashPlan schedules the death of rank at atNs.
func crashPlan(seed uint64, rank int, atNs int64) *fault.Plan {
	return &fault.Plan{
		Seed: seed,
		Proc: fault.ProcPlan{Crashes: []fault.Crash{{Rank: rank, AtNs: atNs}}},
	}
}

// ftOnlyPlan activates failure tolerance without any reachable crash (the
// planned crash targets a rank number the world doesn't have).
func ftOnlyPlan(seed uint64) *fault.Plan {
	return &fault.Plan{
		Seed: seed,
		Proc: fault.ProcPlan{Crashes: []fault.Crash{{Rank: 1 << 20, AtNs: 1}}},
	}
}

func TestRankCrashDetectedWithTypedErrors(t *testing.T) {
	w := newWorld("Proposed-Tuned", func(c *mpi.Config) {
		c.Faults = crashPlan(1, 1, 20_000)
	})
	l := datatype.Commit(datatype.Contiguous(256, datatype.Float64))
	errs := make([]error, w.Size())
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 1:
			// Victim: sit in a long sleep; the kill lands mid-sleep.
			p.Sleep(10 * sim.Millisecond)
		default:
			// Every survivor waits on a receive from the victim that can
			// never be satisfied.
			buf := r.Dev.Alloc(fmt.Sprintf("rb%d", r.ID()), int(l.ExtentBytes))
			errs[r.ID()] = r.Wait(p, r.Irecv(p, 1, 5, buf, l, 1))
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := w.CrashedRanks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("crashed = %v", got)
	}
	if got := w.FailedRanks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("failed = %v", got)
	}
	for id, e := range errs {
		if id == 1 {
			continue
		}
		var rf *mpi.RankFailedError
		if !errors.As(e, &rf) || rf.Rank != 1 {
			t.Fatalf("rank %d error = %v, want *RankFailedError{Rank:1}", id, e)
		}
		if !errors.Is(e, mpi.ErrRankFailed) {
			t.Fatalf("rank %d error does not unwrap to ErrRankFailed: %v", id, e)
		}
		var op *mpi.OpError
		if !errors.As(e, &op) {
			t.Fatalf("rank %d error not wrapped in *OpError: %v", id, e)
		}
	}
	if n := w.LeakedRequests(); n != 0 {
		t.Fatalf("leaked requests = %d", n)
	}
	// Detection must complete within the heartbeat bound, far under the
	// watchdog stall timeout.
	bound := int64(20_000 + 150_000 + 2*25_000)
	for id, e := range errs {
		if id == 1 || e == nil {
			continue
		}
		var rf *mpi.RankFailedError
		errors.As(e, &rf)
		if rf.DetectedAt > bound {
			t.Fatalf("rank %d detected at %dns, beyond bound %dns", id, rf.DetectedAt, bound)
		}
	}
}

func TestCrashIsDeterministic(t *testing.T) {
	run := func() (int64, []string) {
		w := newWorld("Proposed", func(c *mpi.Config) {
			c.Faults = crashPlan(3, 2, 30_000)
		})
		l := datatype.Commit(datatype.Vector(32, 64, 128, datatype.Float32))
		w.Run(func(r *mpi.Rank, p *sim.Proc) {
			buf := r.Dev.Alloc(fmt.Sprintf("b%d", r.ID()), int(l.ExtentBytes))
			next := (r.ID() + 1) % w.Size()
			prev := (r.ID() + w.Size() - 1) % w.Size()
			rq := r.Irecv(p, prev, 9, buf, l, 1)
			sq := r.Isend(p, next, 9, buf, l, 1)
			r.Waitall(p, []*mpi.Request{rq, sq})
		})
		var evs []string
		for _, ev := range w.FaultEvents() {
			evs = append(evs, fmt.Sprintf("%d %s %s %s", ev.At, ev.Site, ev.Kind, ev.Detail))
		}
		return w.Env.Now(), evs
	}
	c1, e1 := run()
	c2, e2 := run()
	if c1 != c2 {
		t.Fatalf("final clock differs: %d vs %d", c1, c2)
	}
	if len(e1) != len(e2) {
		t.Fatalf("event counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs:\n%s\n%s", i, e1[i], e2[i])
		}
	}
}

func TestRevokeFailsPendingAndPropagatesInBand(t *testing.T) {
	w := newWorld("Proposed-Tuned", func(c *mpi.Config) {
		c.Faults = ftOnlyPlan(1)
	})
	l := datatype.Commit(datatype.Contiguous(64, datatype.Float64))
	c := w.WorldComm()
	errs := make([]error, w.Size())
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() == 0 {
			p.Sleep(5_000)
			c.Revoke(p, r)
			return
		}
		// Every other rank parks a receive (bound to the world comm) that
		// nothing will ever match; the revocation must fail it in place.
		buf := r.Dev.Alloc(fmt.Sprintf("rb%d", r.ID()), int(l.ExtentBytes))
		q := r.Irecv(p, 0, 11, buf, l, 1)
		c.Bind(q)
		errs[r.ID()] = r.Wait(p, q)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for id, e := range errs {
		if id == 0 {
			continue
		}
		if !errors.Is(e, mpi.ErrCommRevoked) {
			t.Fatalf("rank %d error = %v, want ErrCommRevoked", id, e)
		}
	}
	if !c.Revoked(w.Rank(0)) || !c.Revoked(w.Rank(3)) {
		t.Fatal("revocation did not propagate to all ranks")
	}
	if n := w.LeakedRequests(); n != 0 {
		t.Fatalf("leaked requests = %d", n)
	}
}

func TestShrinkAndAgreeAfterCrash(t *testing.T) {
	w := newWorld("Proposed-Tuned", func(c *mpi.Config) {
		c.Faults = crashPlan(2, 1, 20_000)
	})
	c := w.WorldComm()
	type res struct {
		flag  uint64
		aerr  error
		shrnk *mpi.Comm
	}
	out := make([]res, w.Size())
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() == 1 {
			p.Sleep(10 * sim.Millisecond)
			return
		}
		flag, aerr := c.Agree(p, r, uint64(2+r.ID()%2)) // 2 or 3: AND has bit 1 iff all contribute it
		sc, serr := c.Shrink(p, r)
		if serr != nil {
			t.Errorf("rank %d shrink: %v", r.ID(), serr)
		}
		out[r.ID()] = res{flag: flag, aerr: aerr, shrnk: sc}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want := out[0].flag
	for id, o := range out {
		if id == 1 {
			continue
		}
		if o.flag != want {
			t.Fatalf("rank %d agreed flag %#x, rank 0 agreed %#x", id, o.flag, want)
		}
		// A member died: ULFM's Agree still returns the flag but reports
		// the failure.
		var rf *mpi.RankFailedError
		if !errors.As(o.aerr, &rf) || rf.Rank != 1 {
			t.Fatalf("rank %d agree error = %v, want *RankFailedError{Rank:1}", id, o.aerr)
		}
		if o.shrnk == nil {
			t.Fatalf("rank %d got nil shrunken comm", id)
		}
		if o.shrnk != out[0].shrnk {
			t.Fatalf("ranks got different shrunken comms")
		}
	}
	sc := out[0].shrnk
	if sc.Size() != w.Size()-1 {
		t.Fatalf("shrunken size = %d, want %d", sc.Size(), w.Size()-1)
	}
	if sc.Epoch() == 0 {
		t.Fatal("shrunken comm kept epoch 0")
	}
	if sc.Contains(1) {
		t.Fatal("shrunken comm still contains the dead rank")
	}
	// Dense re-ranking: world ranks 0,2,3,... become comm ranks 0,1,2,...
	wantCR := 0
	for wr := 0; wr < w.Size(); wr++ {
		if wr == 1 {
			if sc.CommRank(wr) != -1 {
				t.Fatalf("dead rank has comm rank %d", sc.CommRank(wr))
			}
			continue
		}
		if sc.CommRank(wr) != wantCR || sc.WorldRank(wantCR) != wr {
			t.Fatalf("world rank %d -> comm rank %d, want %d", wr, sc.CommRank(wr), wantCR)
		}
		wantCR++
	}
}

// TestWaitallErrorOrderDeterministic locks in the deterministic error
// selection of a mixed failure batch: errors come back in request index
// order, never in failure-time order. Request 0 fails late (its peer's
// death is detected after ~175 µs); request 1 fails almost immediately
// (truncation at match time). The joined error must still list request 0's
// failure first.
func TestWaitallErrorOrderDeterministic(t *testing.T) {
	w := newWorld("Proposed-Tuned", func(c *mpi.Config) {
		c.Faults = crashPlan(1, 1, 20_000)
	})
	small := datatype.Commit(datatype.Contiguous(64, datatype.Float64))
	big := datatype.Commit(datatype.Contiguous(128, datatype.Float64))
	var joined error
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			rb0 := r.Dev.Alloc("rb0", int(small.ExtentBytes))
			rb1 := r.Dev.Alloc("rb1", int(small.ExtentBytes))
			q0 := r.Irecv(p, 1, 5, rb0, small, 1) // fails at detection (late)
			q1 := r.Irecv(p, 2, 6, rb1, small, 1) // fails by truncation (early)
			joined = r.Waitall(p, []*mpi.Request{q0, q1})
		case 1:
			p.Sleep(10 * sim.Millisecond)
		case 2:
			sb := r.Dev.Alloc("sb", int(big.ExtentBytes))
			r.Wait(p, r.Isend(p, 0, 6, sb, big, 1)) // oversized: truncates
		default:
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	u, ok := joined.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("joined error %T does not unwrap to a list: %v", joined, joined)
	}
	errs := u.Unwrap()
	if len(errs) != 2 {
		t.Fatalf("got %d errors, want 2: %v", len(errs), joined)
	}
	if !errors.Is(errs[0], mpi.ErrRankFailed) {
		t.Fatalf("errs[0] = %v, want request 0's rank-failure first", errs[0])
	}
	if !errors.Is(errs[1], mpi.ErrTruncate) {
		t.Fatalf("errs[1] = %v, want request 1's truncation second", errs[1])
	}
	// The failure times prove the order is by index, not by time.
	var rf *mpi.RankFailedError
	errors.As(errs[0], &rf)
	if rf == nil || rf.DetectedAt < 20_000 {
		t.Fatalf("request 0 should have failed late (detection), got %v", errs[0])
	}
}

func TestPostToFailedPeerFailsFast(t *testing.T) {
	w := newWorld("Proposed-Tuned", func(c *mpi.Config) {
		c.Faults = crashPlan(1, 1, 10_000)
	})
	l := datatype.Commit(datatype.Contiguous(64, datatype.Float64))
	var postErr error
	var postedAt, settledAt int64
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			// Outwait detection, then post to the dead rank: the request
			// must fail immediately, not after a retransmit storm.
			p.Sleep(400_000)
			sb := r.Dev.Alloc("sb", int(l.ExtentBytes))
			postedAt = p.Now()
			q := r.Isend(p, 1, 5, sb, l, 1)
			postErr = r.Wait(p, q)
			settledAt = p.Now()
		case 1:
			p.Sleep(10 * sim.Millisecond)
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !errors.Is(postErr, mpi.ErrRankFailed) {
		t.Fatalf("post error = %v, want ErrRankFailed", postErr)
	}
	if settledAt != postedAt {
		t.Fatalf("fail-fast post still took %dns", settledAt-postedAt)
	}
}

func TestFTBarrierCompletesAmongSurvivors(t *testing.T) {
	w := newWorld("Proposed-Tuned", func(c *mpi.Config) {
		c.Faults = crashPlan(1, 2, 15_000)
	})
	reached := make([]bool, w.Size())
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() == 2 {
			p.Sleep(10 * sim.Millisecond)
			return
		}
		w.Barrier(p)
		reached[r.ID()] = true
	})
	if err != nil {
		t.Fatalf("run: %v (barrier must not deadlock on a dead rank)", err)
	}
	for id, ok := range reached {
		if id != 2 && !ok {
			t.Fatalf("rank %d never passed the barrier", id)
		}
	}
}

func TestShrinkCommCarriesTraffic(t *testing.T) {
	// After a crash + shrink, point-to-point traffic between survivors must
	// still work (the shrunken comm is translation-only at the p2p layer,
	// but the ranks must not be poisoned by the earlier failure).
	w := newWorld("Proposed-Tuned", func(c *mpi.Config) {
		c.Faults = crashPlan(1, 1, 10_000)
	})
	c := w.WorldComm()
	l := datatype.Commit(datatype.Contiguous(64, datatype.Float64))
	var relayed error
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() == 1 {
			p.Sleep(10 * sim.Millisecond)
			return
		}
		sc, serr := c.Shrink(p, r)
		if serr != nil {
			t.Errorf("shrink: %v", serr)
			return
		}
		// Comm ranks 0 and 1 of the shrunken comm exchange one message.
		switch sc.CommRank(r.ID()) {
		case 0:
			sb := r.Dev.Alloc("sb", int(l.ExtentBytes))
			relayed = r.Wait(p, r.Isend(p, sc.WorldRank(1), 7, sb, l, 1))
		case 1:
			rb := r.Dev.Alloc("rb", int(l.ExtentBytes))
			r.Wait(p, r.Irecv(p, sc.WorldRank(0), 7, rb, l, 1))
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if relayed != nil {
		t.Fatalf("survivor exchange failed: %v", relayed)
	}
	if n := w.LeakedRequests(); n != 0 {
		t.Fatalf("leaked requests = %d", n)
	}
}

// TestRevokeSkipsParkedSend: a send that a revocation fails while it is
// parked in the envelope FIFO behind an earlier send that is still
// packing stays failed, and its envelope never leaves the rank when its
// FIFO turn comes.
func TestRevokeSkipsParkedSend(t *testing.T) {
	w := newWorld("GPU-Sync", func(c *mpi.Config) {
		c.Faults = ftOnlyPlan(1)
		c.Timeline = &timeline.Options{}
	})
	strided := datatype.Commit(datatype.Vector(1024, 8, 16, datatype.Float64)) // 64 KiB packed
	contig := datatype.Commit(datatype.Contiguous(512, datatype.Float64))      // 4 KiB
	c := w.WorldComm()
	var parked *mpi.Request
	var waitErr error
	revokedAt := int64(-1)
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() != 0 {
			return
		}
		big := r.Dev.Alloc("big", int(strided.ExtentBytes))
		small := r.Dev.Alloc("small", int(contig.ExtentBytes))
		q1 := r.Isend(p, 4, 1, big, strided, 1)
		parked = r.Isend(p, 4, 2, small, contig, 1)
		c.Bind(q1)
		c.Bind(parked)
		revokedAt = p.Now()
		c.Revoke(p, r)
		r.Wait(p, q1)
		waitErr = r.Wait(p, parked)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !parked.Failed() || parked.Done() {
		t.Errorf("parked send: Failed() %v, Done() %v; want failed, not done", parked.Failed(), parked.Done())
	}
	if !errors.Is(parked.Err(), mpi.ErrCommRevoked) || !errors.Is(waitErr, mpi.ErrCommRevoked) {
		t.Errorf("parked send: Err() %v, Wait %v; want ErrCommRevoked", parked.Err(), waitErr)
	}
	for _, ev := range w.Rank(0).Timeline().Events() {
		if ev.Track == "net" && (ev.Name == "eager" || strings.HasPrefix(ev.Name, "ctrl:rts")) && ev.Start >= revokedAt {
			t.Errorf("envelope %q left rank 0 at %d ns, after the revocation at %d ns", ev.Name, ev.Start, revokedAt)
		}
	}
}
