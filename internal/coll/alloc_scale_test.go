package coll_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// sparseA2AAllocs runs a sparse Alltoallw with algorithm alg on a
// persistent lazy world of n ranks (4 per node, each rank exchanging a
// 32 KiB strided leg with its 16 nearest wrap-around peers, the -fig scale
// shape) and returns the heap objects and bytes allocated per rank per
// step once warm.
func sparseA2AAllocs(t *testing.T, alg coll.Algorithm, n int) (objs, bytes float64) {
	return a2aAllocs(t, alg, n, func(r int) []int {
		var peers []int
		for k := 1; k <= 8; k++ {
			peers = append(peers, (r+k)%n, (r-k+n)%n)
		}
		return peers
	})
}

// a2aAllocs is sparseA2AAllocs with rank r exchanging a leg with each of
// peers(r), which must be distinct.
func a2aAllocs(t *testing.T, alg coll.Algorithm, n int, peers func(r int) []int) (objs, bytes float64) {
	t.Helper()
	env := sim.NewEnv()
	c := cluster.MustBuild(env, cluster.Lassen().WithNodes(n/4))
	for _, node := range c.Devices {
		for _, d := range node {
			d.LazyThreshold = 4096
		}
	}
	cfg := mpi.DefaultConfig()
	cfg.PollIntervalNs = 5000
	w := mpi.NewWorld(c, cfg, schemes.Factory("Proposed-Tuned"))
	l := datatype.Commit(datatype.Vector(64, 64, 128, datatype.Float64))
	ops := make([][]coll.WOp, n)
	for r := range ops {
		ops[r] = make([]coll.WOp, n)
		d := w.Rank(r).Dev
		for _, peer := range peers(r) {
			sb := d.Alloc(fmt.Sprintf("s-%d-%d", r, peer), int(l.ExtentBytes))
			sb.FillStream(uint64(r)<<32 | uint64(peer))
			rb := d.Alloc(fmt.Sprintf("r-%d-%d", r, peer), int(l.ExtentBytes))
			ops[r][peer] = coll.WOp{SendBuf: sb, SendType: l, SendCount: 1, RecvBuf: rb, RecvType: l, RecvCount: 1}
		}
	}
	e := coll.New(w, coll.Tuning{Alltoallw: alg})
	run := func(body func(r *mpi.Rank, p *sim.Proc) error) {
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			if err := body(r, p); err != nil {
				t.Errorf("rank %d: %v", r.ID(), err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		run(func(r *mpi.Rank, p *sim.Proc) error { return e.Alltoallw(p, r, ops[r.ID()]) })
	}
	const warm, steps = 2, 2
	for i := 0; i < warm; i++ {
		step()
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < steps; i++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	// A one-sided Alltoallw keeps its window until every rank releases it.
	run(func(r *mpi.Rank, p *sim.Proc) error { return e.Release(r) })
	checkNoLeaks(t, w, fmt.Sprintf("%d ranks", n))
	per := float64(n * steps)
	return float64(m1.Mallocs-m0.Mallocs) / per, float64(m1.TotalAlloc-m0.TotalAlloc) / per
}

// TestHierAlltoallwAllocsFlatInWorldSize pins that a rank's host work in
// a hierarchical Alltoallw follows its legs, not the world: with the same
// 16 legs per rank, a step allocates no more per rank at 256 ranks than at
// 64, within 2 %.
func TestHierAlltoallwAllocsFlatInWorldSize(t *testing.T) {
	small, _ := sparseA2AAllocs(t, coll.Hierarchical, 64)
	large, _ := sparseA2AAllocs(t, coll.Hierarchical, 256)
	t.Logf("allocations per rank per step: %.1f at 64 ranks, %.1f at 256", small, large)
	if large > 1.02*small {
		t.Fatalf("a 256-rank step allocates %.1f per rank, %.1f%% above the %.1f of a 64-rank step",
			large, 100*(large/small-1), small)
	}
}

// TestHierAlltoallwAllocBytes pins what a warm hierarchical Alltoallw
// allocates per rank on 64 lazy ranks with 16 legs each: its requests and
// fusion handles, not its bookkeeping. A call's request and handle lists
// are the rank's scratch, reset by each call, and a rendezvous send is
// its own RTS. It reads 9.3-9.6 KB per rank per step (15.5-15.7 KB while
// each call built its own lists and each RTS was a message).
func TestHierAlltoallwAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled span lists, so allocation counts do not hold")
	}
	const maxPerRank = 11 << 10
	objs, perRank := sparseA2AAllocs(t, coll.Hierarchical, 64)
	t.Logf("%.1f objects, %.0f B per rank per step", objs, perRank)
	if perRank > maxPerRank {
		t.Fatalf("a warm hierarchical Alltoallw allocates %.0f B per rank per step, want at most %d", perRank, maxPerRank)
	}
}

// TestLinearAlltoallwAllocsFlatInLiveLegs pins that a linear Alltoallw
// lists only a rank's live legs: with the same 16 legs per rank, a step
// allocates no more bytes per rank at 256 ranks than at 64, within 2 %.
// Listing one leg per peer, live or not, costs 80 B per peer.
func TestLinearAlltoallwAllocsFlatInLiveLegs(t *testing.T) {
	smallObjs, small := sparseA2AAllocs(t, coll.Linear, 64)
	largeObjs, large := sparseA2AAllocs(t, coll.Linear, 256)
	t.Logf("per rank per step: %.1f objects, %.0f B at 64 ranks; %.1f objects, %.0f B at 256",
		smallObjs, small, largeObjs, large)
	if large > 1.02*small {
		t.Fatalf("a 256-rank step allocates %.0f B per rank, %.1f%% above the %.0f B of a 64-rank step",
			large, 100*(large/small-1), small)
	}
}

// TestSubAllocsFlatInWorldSize pins that a sub-engine builds a rank's
// state only when that rank first calls a collective on it: a shrink that
// derives one sub-engine per survivor then allocates the same per call on
// a 1024-rank world as on a 64-rank one, not O(world) each.
func TestSubAllocsFlatInWorldSize(t *testing.T) {
	subAllocs := func(n int) float64 {
		c := cluster.MustBuild(sim.NewEnv(), cluster.Lassen().WithNodes(n/4))
		w := mpi.NewWorld(c, mpi.DefaultConfig(), schemes.Factory("Proposed-Tuned"))
		e := coll.New(w, coll.Tuning{})
		return testing.AllocsPerRun(20, func() { e.Sub(w.WorldComm()) })
	}
	small, large := subAllocs(64), subAllocs(1024)
	if large != small {
		t.Fatalf("Sub allocates %.0f times on a 1024-rank world, %.0f on a 64-rank one", large, small)
	}
}

// TestOneSidedAlltoallwAllocBytes pins what a warm put-based Alltoallw
// allocates per leg: on 8 lazy ranks exchanging a 32 KiB strided leg with
// every rank, itself included, a leg's fused PackPut allocates nothing
// (its op comes from the fabric's free list, it packs from the cached
// layout, and nobody waits on its kernel), its unpack job is a value
// copied into its request-list entry, so its 32-B fusion handle is all
// the unpack makes, and the unpack handles go in the rank's reusable
// call scratch. It reads 125-135 B (159-199 B while each call made its
// own handle slice; 264-295 B while each unpack made a 96-B job).
func TestOneSidedAlltoallwAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled span lists, so allocation counts do not hold")
	}
	const n, maxPerLeg = 8, 250
	_, perRank := a2aAllocs(t, coll.OneSidedBruck, n, func(int) []int {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	})
	perLeg := perRank / n
	t.Logf("%.0f B per leg", perLeg)
	if perLeg > maxPerLeg {
		t.Fatalf("a warm one-sided Alltoallw allocates %.0f B per leg, want at most %d", perLeg, maxPerLeg)
	}
}
