package fusion

import (
	"testing"
	"unsafe"

	"repro/internal/pack"
	"repro/internal/sim"
)

// TestEntrySize pins a request-list entry at exactly 128 B, so a block of
// 16 entries is 2,048 B, a size class with no slack. The entry holds its
// 56-B job inline, 48 B more than a pointer to it. Entries are made a
// block at a time and kept for the scheduler's life, so every slot made
// pays that: at the end of a ddtperf rma-64 run its 64 ranks hold 320
// blocks (5,120 entries, from an in-use heap profile), so its live heap
// is 0.21 MiB (+3.3 %) larger; a2a-1024's grew 1.5 MiB (+1.4 %) and
// chaos-256's 0.32 MiB (+1.4 %). The 96-B job it had before would have
// made the entry 168 B and a block 2,688 B: +0.43 MiB (+6.4 %) on
// rma-64, past the benchmark's 5 % bound.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 128 {
		t.Fatalf("entry is %d B, want 128", n)
	}
}

// TestWarmEnqueueFlushDoneAllocs pins a warm Enqueue → Flush → Done cycle
// of one request at zero allocations. The request-list entry is its own
// completion, its event is made only by DoneEvent, the pending list is
// reused, and the fused kernel reads the batch in place: it computes its
// durations into the stream's scratch, chains a run of requests that end
// together through their entries, makes no completion of its own, and is
// named by the batch, so a launch number above 255 is never boxed. The
// warm-up runs past 300 launches to show that.
func TestWarmEnqueueFlushDoneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	env, dev, s := newSched(Config{ThresholdBytes: 1 << 40})
	job, verify := mkPackJob(dev, 1, 64, 4)
	if allocs := warmCycleAllocs(t, env, s, []*pack.Job{job}); allocs != 0 {
		t.Fatalf("a warm Enqueue → Flush → Done cycle allocates %v times, want 0", allocs)
	}
	if err := verify(); err != nil {
		t.Fatal(err)
	}
	if s.Stats.FusedLaunches <= 300 {
		t.Fatalf("%d launches, want more than 300", s.Stats.FusedLaunches)
	}
}

// TestWarmFusedBatchAllocs pins the batch shape of a one-sided exchange:
// 64 equal requests in one fused kernel, all ending at the same time, so
// they retire as one chained run. A warm cycle allocates nothing.
func TestWarmFusedBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	env, dev, s := newSched(Config{ThresholdBytes: 1 << 40})
	jobs := make([]*pack.Job, 64)
	verifiers := make([]func() error, len(jobs))
	for i := range jobs {
		jobs[i], verifiers[i] = mkPackJob(dev, int64(i), 64, 4)
	}
	if allocs := warmCycleAllocs(t, env, s, jobs); allocs != 0 {
		t.Fatalf("a warm cycle of a 64-request batch allocates %v times, want 0", allocs)
	}
	for _, v := range verifiers {
		if err := v(); err != nil {
			t.Fatal(err)
		}
	}
}

// warmCycleAllocs enqueues jobs, flushes and polls Done until every
// request is released, 301 times to warm up and then 100 times measured,
// and returns the allocations per measured cycle.
func warmCycleAllocs(t *testing.T, env *sim.Env, s *Scheduler, jobs []*pack.Job) float64 {
	t.Helper()
	allocs := -1.0
	uids := make([]int64, len(jobs))
	env.Spawn("pe", func(p *sim.Proc) {
		cycle := func() {
			for i, j := range jobs {
				uids[i] = s.Enqueue(p, j)
			}
			s.Flush(p)
			for _, uid := range uids {
				for {
					ok, err := s.Done(p, uid)
					if err != nil {
						t.Error(err)
					}
					if ok {
						break
					}
				}
			}
		}
		for i := 0; i < 301; i++ {
			cycle() // warm: entries, queue chunks, the launch scratch and names past 255
		}
		allocs = testing.AllocsPerRun(100, cycle)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return allocs
}
