package fusion

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestEntrySize pins a request-list entry at exactly 80 B. Entries are
// made a block at a time and kept for the scheduler's life, so a job held
// inline instead of by pointer would grow every slot made, the live heap
// of a one-sided exchange whose ranks each reach 64 in-flight requests
// most of all.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 80 {
		t.Fatalf("entry is %d B, want 80", n)
	}
}

// TestWarmEnqueueFlushDoneAllocs pins what a warm Enqueue → Flush → Done
// cycle of one request allocates. The request-list entry is its own
// completion, its event is made only by DoneEvent, and the pending list is
// reused, so what is left is the launch: the fused-work list, the kernel's
// FusedCompletion and its per-request end times.
func TestWarmEnqueueFlushDoneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	env, dev, s := newSched(Config{ThresholdBytes: 1 << 40})
	job, verify := mkPackJob(dev, 1, 64, 4)
	allocs := -1.0
	env.Spawn("pe", func(p *sim.Proc) {
		cycle := func() {
			uid := s.Enqueue(p, job)
			s.Flush(p)
			for {
				ok, err := s.Done(p, uid)
				if err != nil {
					t.Error(err)
				}
				if ok {
					return
				}
			}
		}
		cycle() // warm: entries and queue buckets
		allocs = testing.AllocsPerRun(100, cycle)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := verify(); err != nil {
		t.Fatal(err)
	}
	if allocs != 3 {
		t.Fatalf("a warm Enqueue → Flush → Done cycle allocates %v times, want 3", allocs)
	}
}
