package coll_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/coll"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/rma"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// The one-sided half of the rank-crash chaos matrix: the put-based
// collectives driven past a deterministic rank death, in exact and lazy
// payload modes. The contract extends the two-sided one with the fabric's
// own oracles:
//
//   1. every survivor unwinds with a typed error (*mpi.RankFailedError
//      from a signal wait or verb, or mpi.ErrCommRevoked once the
//      auto-revocation poisons the fabric epoch) — no stall, no false
//      success,
//   2. nothing leaks: no registered requests, no stranded fused jobs, and
//      zero pending one-sided deposits (reaped ops included),
//   3. the same seed replays bit-identically (final clock, fault-event
//      sequence, per-rank timeline sums).

// osChaosCase is one (collective, one-sided algorithm) matrix cell.
type osChaosCase struct {
	name   string
	tuning coll.Tuning
	run    func(e *coll.Engine, r *mpi.Rank, p *sim.Proc, ag []coll.VOp, agr [][]coll.VOp, a2a [][]coll.WOp) error
}

func osChaosMatrix() []osChaosCase {
	var cases []osChaosCase
	for _, alg := range []coll.Algorithm{coll.OneSidedRing, coll.OneSidedBruck} {
		alg := alg
		cases = append(cases, osChaosCase{
			name:   "allgatherv/" + alg.String(),
			tuning: coll.Tuning{Allgatherv: alg},
			run: func(e *coll.Engine, r *mpi.Rank, p *sim.Proc, ag []coll.VOp, agr [][]coll.VOp, a2a [][]coll.WOp) error {
				return e.Allgatherv(p, r, ag[r.ID()], agr[r.ID()])
			},
		})
		cases = append(cases, osChaosCase{
			name:   "alltoallw/" + alg.String(),
			tuning: coll.Tuning{Alltoallw: alg},
			run: func(e *coll.Engine, r *mpi.Rank, p *sim.Proc, ag []coll.VOp, agr [][]coll.VOp, a2a [][]coll.WOp) error {
				return e.Alltoallw(p, r, a2a[r.ID()])
			},
		})
	}
	return cases
}

// osChaosObservation is everything one seeded one-sided run exposes.
type osChaosObservation struct {
	finalClock int64
	crashed    []int
	rankErrs   []error
	faultEvs   []string
	tlSums     []string
	leaked     int
	fusedLeft  int
	pendingOps int
	reaped     int64
	staging    int64
}

func runOneSidedChaosCell(t *testing.T, cc osChaosCase, lazy bool, seed uint64) *osChaosObservation {
	t.Helper()
	plan, err := fault.Preset("rank-crash", seed)
	if err != nil {
		t.Fatal(err)
	}
	env, w := lazyCollWorld("Proposed-Tuned", lazy, func(c *mpi.Config) {
		c.Faults = plan
		c.Timeline = &timeline.Options{}
	})
	ag, agr := makeAGPRF(w, denseVec())
	a2a := makeA2AOpsPRF(w, denseVec())
	e := coll.New(w, cc.tuning)
	f := rma.New(w)
	e.UseRMA(f)
	obs := &osChaosObservation{rankErrs: make([]error, w.Size())}
	const horizon = 400_000 // crash ≤45µs + detection ≤~175µs, plus slack
	runErr := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		for obs.rankErrs[r.ID()] == nil && p.Now() < horizon {
			obs.rankErrs[r.ID()] = cc.run(e, r, p, ag, agr, a2a)
		}
	})
	if runErr != nil {
		t.Fatalf("%s lazy=%v seed %d: world did not terminate cleanly: %v", cc.name, lazy, seed, runErr)
	}
	obs.finalClock = env.Now()
	obs.crashed = w.CrashedRanks()
	for _, ev := range w.FaultEvents() {
		obs.faultEvs = append(obs.faultEvs, fmt.Sprintf("%d %s %s %s", ev.At, ev.Site, ev.Kind, ev.Detail))
	}
	for i := 0; i < w.Size(); i++ {
		obs.tlSums = append(obs.tlSums, w.Rank(i).Timeline().Sums().String())
	}
	obs.leaked = w.LeakedRequests()
	obs.fusedLeft = w.PendingFusedJobs()
	obs.pendingOps = f.PendingOps()
	obs.staging = w.LiveStagingBytes()
	obs.reaped = f.TotalStats().Reaped
	return obs
}

func assertOneSidedChaosContract(t *testing.T, cc osChaosCase, lazy bool, seed uint64, obs *osChaosObservation) {
	t.Helper()
	label := fmt.Sprintf("%s lazy=%v seed %d", cc.name, lazy, seed)
	if len(obs.crashed) != 1 {
		t.Fatalf("%s: crashed ranks %v, want exactly one", label, obs.crashed)
	}
	dead := obs.crashed[0]
	for i, rerr := range obs.rankErrs {
		if i == dead {
			continue // killed mid-body; its slot is whatever it last wrote
		}
		if rerr == nil {
			t.Fatalf("%s: survivor %d returned success across the failure window", label, i)
		}
		if !errors.Is(rerr, mpi.ErrRankFailed) && !errors.Is(rerr, mpi.ErrCommRevoked) {
			t.Fatalf("%s: survivor %d got untyped error: %v", label, i, rerr)
		}
	}
	if obs.leaked != 0 {
		t.Fatalf("%s: %d leaked requests", label, obs.leaked)
	}
	if obs.fusedLeft != 0 {
		t.Fatalf("%s: %d fused jobs stranded", label, obs.fusedLeft)
	}
	if obs.pendingOps != 0 {
		t.Fatalf("%s: %d one-sided deposits leaked", label, obs.pendingOps)
	}
	if obs.staging != 0 {
		t.Fatalf("%s: %d staging bytes left lent", label, obs.staging)
	}
}

// TestOneSidedRankCrashMatrix: rank-crash × {onesided-ring, onesided-bruck}
// × {exact, lazy}, over both put-based collectives, several seeds each.
func TestOneSidedRankCrashMatrix(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, cc := range osChaosMatrix() {
		for _, lazy := range []bool{false, true} {
			cc, lazy := cc, lazy
			t.Run(fmt.Sprintf("%s/lazy=%v", cc.name, lazy), func(t *testing.T) {
				for _, seed := range seeds {
					assertOneSidedChaosContract(t, cc, lazy, seed,
						runOneSidedChaosCell(t, cc, lazy, seed))
				}
			})
		}
	}
}

// TestOneSidedRankCrashReplay reruns representative cells and demands a
// bit-identical replay: final clock, the full fault-event sequence
// (including the fabric's reap events), and every rank's timeline sums.
func TestOneSidedRankCrashReplay(t *testing.T) {
	for _, cc := range osChaosMatrix() {
		switch cc.name {
		case "allgatherv/onesided-ring", "alltoallw/onesided-bruck":
		default:
			continue
		}
		cc := cc
		for _, lazy := range []bool{false, true} {
			lazy := lazy
			t.Run(fmt.Sprintf("%s/lazy=%v", cc.name, lazy), func(t *testing.T) {
				a := runOneSidedChaosCell(t, cc, lazy, 3)
				b := runOneSidedChaosCell(t, cc, lazy, 3)
				if a.finalClock != b.finalClock {
					t.Fatalf("final clock differs: %d vs %d", a.finalClock, b.finalClock)
				}
				if len(a.faultEvs) != len(b.faultEvs) {
					t.Fatalf("fault event counts differ: %d vs %d", len(a.faultEvs), len(b.faultEvs))
				}
				for i := range a.faultEvs {
					if a.faultEvs[i] != b.faultEvs[i] {
						t.Fatalf("fault event %d differs:\n%s\n%s", i, a.faultEvs[i], b.faultEvs[i])
					}
				}
				for i := range a.tlSums {
					if a.tlSums[i] != b.tlSums[i] {
						t.Fatalf("rank %d timeline sums differ:\n%s\n%s", i, a.tlSums[i], b.tlSums[i])
					}
				}
				if a.reaped != b.reaped {
					t.Fatalf("reap counts differ: %d vs %d", a.reaped, b.reaped)
				}
			})
		}
	}
}

// oneSidedShrinkRetry runs the full recovery arc for one one-sided
// algorithm and payload mode: a rank dies mid-collective, every survivor
// observes a typed failure, agrees, shrinks, and retries BOTH put-based
// collectives on the shrunken communicator through the reseated fabric —
// two successive Alltoallw calls (so the negotiated window's parity
// double-buffering is exercised post-shrink) and one Allgatherv. Returns
// the survivors' final recv checksums in a fixed order for the lazy-vs-
// exact differential comparison; in exact mode the Alltoallw result is
// additionally verified byte-for-byte against a sequential model.
func oneSidedShrinkRetry(t *testing.T, alg coll.Algorithm, lazy bool) []uint64 {
	t.Helper()
	const deadRank = 1
	plan := &fault.Plan{
		Seed: 11,
		Proc: fault.ProcPlan{Crashes: []fault.Crash{{Rank: deadRank, AtNs: 20_000}}},
	}
	_, w := lazyCollWorld("Proposed-Tuned", lazy, func(c *mpi.Config) { c.Faults = plan })
	l := denseVec()
	ops := makeA2AOpsPRF(w, l)
	e := coll.New(w, coll.Tuning{Alltoallw: alg, Allgatherv: alg})
	f := rma.New(w)
	e.UseRMA(f)

	// Survivor-space retry state: comm rank == dense re-rank over
	// world \ {deadRank}, guaranteed by the deterministic plan.
	size := w.Size()
	nSurv := size - 1
	world2comm := make([]int, size)
	comm2world := make([]int, 0, nSurv)
	for i, cr := 0, 0; i < size; i++ {
		if i == deadRank {
			world2comm[i] = -1
			continue
		}
		world2comm[i] = cr
		comm2world = append(comm2world, i)
		cr++
	}
	retry := make([][]coll.WOp, nSurv)
	agSends := make([]coll.VOp, nSurv)
	agRecvs := make([][]coll.VOp, nSurv)
	for cr := 0; cr < nSurv; cr++ {
		dev := w.Rank(comm2world[cr]).Dev
		retry[cr] = make([]coll.WOp, nSurv)
		for cp := 0; cp < nSurv; cp++ {
			count := 1 + (cr+cp)%3
			sb := dev.Alloc(fmt.Sprintf("os-rt-s-%d-%d", cr, cp), int(l.ExtentBytes)*3)
			rb := dev.Alloc(fmt.Sprintf("os-rt-r-%d-%d", cr, cp), int(l.ExtentBytes)*3)
			sb.FillStream(uint64(5000 + cr*100 + cp))
			rb.FillStream(uint64(9000 + cr*100 + cp)) // junk: untouched bytes stay visible
			retry[cr][cp] = coll.WOp{SendBuf: sb, SendType: l, SendCount: count, RecvBuf: rb, RecvType: l, RecvCount: count}
		}
		sb := dev.Alloc(fmt.Sprintf("os-rt-ag-s-%d", cr), int(l.ExtentBytes)*3)
		sb.FillStream(uint64(3000 + cr))
		agSends[cr] = coll.VOp{Buf: sb, Type: l, Count: 1 + cr%3}
		agRecvs[cr] = make([]coll.VOp, nSurv)
		for cp := 0; cp < nSurv; cp++ {
			rb := dev.Alloc(fmt.Sprintf("os-rt-ag-r-%d-%d", cr, cp), int(l.ExtentBytes)*3)
			agRecvs[cr][cp] = coll.VOp{Buf: rb, Type: l, Count: 1 + cp%3}
		}
	}

	runErr := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		var err error
		for err == nil && p.Now() < 400_000 {
			err = e.Alltoallw(p, r, ops[r.ID()])
		}
		if r.ID() == deadRank {
			return
		}
		if !errors.Is(err, mpi.ErrRankFailed) && !errors.Is(err, mpi.ErrCommRevoked) {
			t.Errorf("rank %d: expected typed failure, got %v", r.ID(), err)
			return
		}
		wc := w.WorldComm()
		if _, aerr := wc.Agree(p, r, 0); aerr != nil {
			var rf *mpi.RankFailedError
			if !errors.As(aerr, &rf) || rf.Rank != deadRank {
				t.Errorf("rank %d: agree error %v, want RankFailedError{Rank:%d}", r.ID(), aerr, deadRank)
				return
			}
		}
		sub, serr := wc.Shrink(p, r)
		if serr != nil {
			t.Errorf("rank %d: shrink: %v", r.ID(), serr)
			return
		}
		cr := world2comm[r.ID()]
		if sub.Size() != nSurv || sub.CommRank(r.ID()) != cr {
			t.Errorf("rank %d: shrunken comm size=%d commRank=%d, want %d/%d",
				r.ID(), sub.Size(), sub.CommRank(r.ID()), nSurv, cr)
			return
		}
		se := e.Sub(sub)
		// Two successive Alltoallw calls: the second refills the sends so
		// the parity-alternating in-regions must both carry correct bytes.
		if rerr := se.Alltoallw(p, r, retry[cr]); rerr != nil {
			t.Errorf("rank %d: alltoallw retry 1: %v", r.ID(), rerr)
			return
		}
		for cp := 0; cp < nSurv; cp++ {
			retry[cr][cp].SendBuf.FillStream(uint64(7000 + cr*100 + cp))
		}
		if rerr := se.Alltoallw(p, r, retry[cr]); rerr != nil {
			t.Errorf("rank %d: alltoallw retry 2: %v", r.ID(), rerr)
			return
		}
		if rerr := se.Allgatherv(p, r, agSends[cr], agRecvs[cr]); rerr != nil {
			t.Errorf("rank %d: allgatherv retry: %v", r.ID(), rerr)
		}
		if rerr := se.Release(r); rerr != nil {
			t.Errorf("rank %d: release: %v", r.ID(), rerr)
		}
	})
	if runErr != nil {
		t.Fatalf("alg=%s lazy=%v: world: %v", alg, lazy, runErr)
	}
	checkNoLeaks(t, w, fmt.Sprintf("os-shrink-retry/%s/lazy=%v", alg, lazy))
	if n := w.PendingFusedJobs(); n != 0 {
		t.Fatalf("%d fused jobs stranded", n)
	}
	if n := f.PendingOps(); n != 0 {
		t.Fatalf("%d one-sided deposits leaked", n)
	}
	members := 0
	for r := 0; r < w.Size(); r++ {
		if f.MemberOf(r) >= 0 {
			members++
		}
	}
	if f.Epoch() != 1 || members != nSurv {
		t.Fatalf("fabric epoch=%d size=%d after shrink retry, want 1/%d", f.Epoch(), members, nSurv)
	}

	if !lazy {
		// Sequential model of the SECOND Alltoallw call (the sends' final
		// fill): gather the sender's blocks into a wire stream, scatter it
		// through the receiver layout.
		for cr := 0; cr < nSurv; cr++ {
			for cp := 0; cp < nSurv; cp++ {
				sop := retry[cp][cr] // cp's leg toward cr
				rop := retry[cr][cp]
				var wire []byte
				for _, b := range sop.SendType.Repeat(sop.SendCount) {
					wire = append(wire, sop.SendBuf.Data[b.Offset:b.Offset+b.Len]...)
				}
				var pos int64
				for _, b := range rop.RecvType.Repeat(rop.RecvCount) {
					if !bytes.Equal(rop.RecvBuf.Data[b.Offset:b.Offset+b.Len], wire[pos:pos+b.Len]) {
						t.Fatalf("alg=%s: comm rank %d recv-from-%d not byte-exact after shrink retry", alg, cr, cp)
					}
					pos += b.Len
				}
			}
		}
		// Allgatherv model: every survivor holds every sender's block.
		for cr := 0; cr < nSurv; cr++ {
			for cp := 0; cp < nSurv; cp++ {
				sop := agSends[cp]
				rop := agRecvs[cr][cp]
				var wire []byte
				for _, b := range sop.Type.Repeat(sop.Count) {
					wire = append(wire, sop.Buf.Data[b.Offset:b.Offset+b.Len]...)
				}
				var pos int64
				for _, b := range rop.Type.Repeat(rop.Count) {
					if !bytes.Equal(rop.Buf.Data[b.Offset:b.Offset+b.Len], wire[pos:pos+b.Len]) {
						t.Fatalf("alg=%s: comm rank %d allgatherv-from-%d not byte-exact after shrink retry", alg, cr, cp)
					}
					pos += b.Len
				}
			}
		}
	}

	var sums []uint64
	for cr := 0; cr < nSurv; cr++ {
		for cp := 0; cp < nSurv; cp++ {
			sums = append(sums, retry[cr][cp].RecvBuf.Checksum())
			sums = append(sums, agRecvs[cr][cp].Buf.Checksum())
		}
	}
	return sums
}

// TestOneSidedShrinkRetryByteExact is the one-sided recovery acceptance
// run for both algorithms: exact mode is verified against the sequential
// byte model, and the lazy run must agree with the exact run checksum-
// for-checksum (the lazy-vs-exact differential oracle over the whole
// crash → shrink → reseat → retry arc).
func TestOneSidedShrinkRetryByteExact(t *testing.T) {
	for _, alg := range []coll.Algorithm{coll.OneSidedRing, coll.OneSidedBruck} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			ex := oneSidedShrinkRetry(t, alg, false)
			lz := oneSidedShrinkRetry(t, alg, true)
			if len(ex) != len(lz) {
				t.Fatalf("leg counts differ: %d vs %d", len(ex), len(lz))
			}
			for i := range ex {
				if ex[i] != lz[i] {
					t.Fatalf("leg %d: exact %#x vs lazy %#x", i, ex[i], lz[i])
				}
			}
		})
	}
}
