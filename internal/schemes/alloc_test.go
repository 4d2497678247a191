package schemes_test

import (
	"testing"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// TestWarmFusedUnpackAllocs pins a warm fused unpack of a job built by
// pack.JobFor, flushed and polled to completion, at exactly one
// allocation: the 32-B fusion handle. The job is a 56-B value pointing at
// the cached layout; the request-list entry copies it, so it stays on the
// caller's stack.
func TestWarmFusedUnpackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	w, _ := rig(schemes.Factory("Proposed-Tuned"))
	allocs := -1.0
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() != 0 {
			return
		}
		e := r.LayoutEntry(datatype.Commit(datatype.Vector(64, 8, 16, datatype.Float64)), 1)
		packed := r.Dev.Alloc("packed", int(e.Bytes))
		buf := r.Dev.Alloc("buf", int(e.Extent))
		s := r.Scheme()
		cycle := func() {
			h := s.Unpack(p, pack.JobFor(pack.OpUnpack, packed, buf, e))
			s.Flush(p)
			for !h.Done(p) {
			}
		}
		for i := 0; i < 301; i++ {
			cycle() // warm: entries, queue chunks, the launch scratch and names past 255
		}
		allocs = testing.AllocsPerRun(100, cycle)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 1 {
		t.Fatalf("a warm fused unpack allocates %v times, want 1 (the handle)", allocs)
	}
}
