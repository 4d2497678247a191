package mpi_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// TestChargeZeroAllocWhenTracingDisabled pins the zero-cost disabled path:
// the rank ledger's Charge sits on the Isend/Waitall progress loop, and with
// no timeline configured it must not allocate at all.
func TestChargeZeroAllocWhenTracingDisabled(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	r := w.Rank(0)
	if r.Timeline() != nil {
		t.Fatal("default config must not enable tracing")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Trace.Charge(timeline.LayerMPI, trace.Comm, "poll", 0, 5)
	})
	if allocs != 0 {
		t.Fatalf("Charge with tracing disabled allocates %v per call, want 0", allocs)
	}
}

// TestWorldTimelineRecordsAndReconciles checks the wired-up path: enabling
// Config.Timeline yields per-rank recorders whose cost sums equal the
// rank's Breakdown exactly.
func TestWorldTimelineRecordsAndReconciles(t *testing.T) {
	env := sim.NewEnv()
	c := cluster.MustBuild(env, cluster.Lassen())
	cfg := mpi.DefaultConfig()
	cfg.Timeline = &timeline.Options{}
	w := mpi.NewWorld(c, cfg, schemes.Factory("Proposed-Tuned"))
	l := sparseLayout()
	sbuf := w.Rank(0).Dev.Alloc("s", int(l.ExtentBytes))
	rbuf := w.Rank(4).Dev.Alloc("r", int(l.ExtentBytes))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			r.Wait(p, r.Isend(p, 4, 0, sbuf, l, 1))
		case 4:
			r.Wait(p, r.Irecv(p, 0, 0, rbuf, l, 1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Timeline() == nil {
		t.Fatal("world must expose its timeline")
	}
	for rk := 0; rk < w.Size(); rk++ {
		rec := w.Rank(rk).Timeline()
		if rec == nil {
			t.Fatalf("rank %d has no recorder", rk)
		}
		sums := rec.Sums()
		for _, cat := range trace.Categories() {
			if got, want := sums.Get(cat), w.Rank(rk).Trace.Get(cat); got != want {
				t.Errorf("rank %d %s: timeline sum %d != breakdown %d", rk, cat, got, want)
			}
		}
	}
	if len(w.Rank(0).Timeline().Events()) == 0 {
		t.Fatal("sender rank recorded no events")
	}
}

// TestProgressPollZeroAlloc pins the progress loop's snapshot reuse: once
// warm, a poll over active requests that have nothing to do allocates
// nothing.
func TestProgressPollZeroAlloc(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	l := sparseLayout()
	const n = 4
	var sbufs, rbufs [n]*gpu.Buffer
	for i := range sbufs {
		sbufs[i] = w.Rank(4).Dev.Alloc(fmt.Sprint("s", i), int(l.ExtentBytes))
		rbufs[i] = w.Rank(0).Dev.Alloc(fmt.Sprint("r", i), int(l.ExtentBytes))
	}
	var allocs float64
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			var reqs []*mpi.Request
			for tag := 0; tag < n; tag++ {
				reqs = append(reqs, r.Irecv(p, 4, tag, rbufs[tag], l, 1))
			}
			allocs = testing.AllocsPerRun(100, func() { r.Progress(p) })
			if err := r.Waitall(p, reqs); err != nil {
				t.Error(err)
			}
		case 4:
			p.Sleep(sim.Millisecond) // the receiver polls first
			var reqs []*mpi.Request
			for tag := 0; tag < n; tag++ {
				reqs = append(reqs, r.Isend(p, 0, tag, sbufs[tag], l, 1))
			}
			if err := r.Waitall(p, reqs); err != nil {
				t.Error(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a progress poll over %d posted receives allocates %v per call, want 0", n, allocs)
	}
}
