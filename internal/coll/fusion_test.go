package coll_test

import (
	"bytes"
	"testing"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// runHierAlltoallw runs a rendezvous-sized hierarchical Alltoallw on the
// 8-rank Lassen world and reports total kernel launches and completion
// time, with collective-scope fusion windows on or off.
func runHierAlltoallw(t *testing.T, disableWindows bool, mut func(*mpi.Config)) (launches int64, elapsed int64, w *mpi.World) {
	t.Helper()
	w = collWorld("Proposed-Tuned", mut)
	ops := makeA2AOps(w, bigVec())
	e := coll.New(w, coll.Tuning{Alltoallw: coll.Hierarchical, DisableFusionWindow: disableWindows})
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if cerr := e.Alltoallw(p, r, ops[r.ID()]); cerr != nil {
			t.Errorf("rank %d: %v", r.ID(), cerr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.Size(); i++ {
		launches += w.Rank(i).Dev.Stats.KernelLaunches
	}
	return launches, w.Env.Now(), w
}

// TestFusedHierarchicalAlltoallwBeatsUnfused is the subsystem's headline
// acceptance criterion: on the 8-rank Lassen model, collective-scope
// fusion windows must give STRICTLY fewer kernel launches and STRICTLY
// lower modeled completion time than the same hierarchical schedule with
// per-message launches.
func TestFusedHierarchicalAlltoallwBeatsUnfused(t *testing.T) {
	fusedLaunches, fusedTime, _ := runHierAlltoallw(t, false, nil)
	unfusedLaunches, unfusedTime, _ := runHierAlltoallw(t, true, nil)
	if fusedLaunches >= unfusedLaunches {
		t.Errorf("fused launches %d, want strictly fewer than unfused %d", fusedLaunches, unfusedLaunches)
	}
	if fusedTime >= unfusedTime {
		t.Errorf("fused completion %d ns, want strictly lower than unfused %d ns", fusedTime, unfusedTime)
	}
	t.Logf("hierarchical alltoallw 8 ranks: fused %d launches / %d ns, unfused %d launches / %d ns",
		fusedLaunches, fusedTime, unfusedLaunches, unfusedTime)
}

// TestWindowStatsAccrue pins that the collective windows actually engage
// the fusion scheduler: window-close flushes must be recorded, proving
// the launch reduction comes from the window mechanism and not a side
// effect of scheduling order.
func TestWindowStatsAccrue(t *testing.T) {
	w := collWorld("Proposed-Tuned", nil)
	ops := makeA2AOps(w, bigVec())
	e := coll.New(w, coll.Tuning{Alltoallw: coll.Linear})
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if cerr := e.Alltoallw(p, r, ops[r.ID()]); cerr != nil {
			t.Errorf("rank %d: %v", r.ID(), cerr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var flushes, held int64
	for i := 0; i < w.Size(); i++ {
		f, ok := w.Rank(i).Scheme().(*schemes.Fusion)
		if !ok {
			t.Fatalf("rank %d: Proposed-Tuned scheme is %T, want *schemes.Fusion", i, w.Rank(i).Scheme())
		}
		flushes += f.Sched.Stats.WindowFlushes
		held += f.Sched.Stats.HeldFlushes
	}
	if flushes == 0 {
		t.Error("no window flushes recorded — collective windows never engaged")
	}
	if held == 0 {
		t.Error("no held flushes recorded — windows never deferred a launch")
	}
}

// --- timeline: reconciliation and determinism ---

// tracedHier runs a traced hierarchical Alltoallw and returns the world.
func tracedHier(t *testing.T) *mpi.World {
	t.Helper()
	w := collWorld("Proposed-Tuned", func(c *mpi.Config) { c.Timeline = &timeline.Options{} })
	ops := makeA2AOps(w, denseVec())
	e := coll.New(w, coll.Tuning{Alltoallw: coll.Hierarchical})
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if cerr := e.Alltoallw(p, r, ops[r.ID()]); cerr != nil {
			t.Errorf("rank %d: %v", r.ID(), cerr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCollTimelineReconcilesWithBreakdown: every cost the collective
// engine charges (schedule passes, gate polls, handle polls) is mirrored
// as a coll-layer timeline span, so per-rank timeline sums must equal the
// Breakdown exactly — same invariant the pt2pt layers keep.
func TestCollTimelineReconcilesWithBreakdown(t *testing.T) {
	w := tracedHier(t)
	tl := w.Timeline()
	if tl == nil {
		t.Fatal("traced world must expose a timeline")
	}
	sawColl := false
	for rk := 0; rk < w.Size(); rk++ {
		rec := tl.Rank(rk)
		sums := rec.Sums()
		bd := &w.Rank(rk).Trace.Breakdown
		if sums.Total() != bd.Total() || sums.String() != bd.String() {
			t.Errorf("rank %d: timeline sums != breakdown\n  timeline:  %s\n  breakdown: %s", rk, sums, bd)
		}
		for _, ev := range rec.Events() {
			if ev.Layer == timeline.LayerColl {
				sawColl = true
			}
		}
	}
	if !sawColl {
		t.Error("no coll-layer events recorded")
	}
}

// TestHierarchicalTimelineDeterministic: two identical traced runs must
// produce byte-identical Chrome traces — the coll-smoke determinism diff.
func TestHierarchicalTimelineDeterministic(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		w := tracedHier(t)
		if err := w.Timeline().WriteChrome(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("hierarchical alltoallw timeline differs between identical runs")
	}
}
