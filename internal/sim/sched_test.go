package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestEqualTimestampStableOrder schedules 10k+ events across a handful of
// timestamps, interleaving pushes, and requires every equal-timestamp group
// to run in exact insertion order — the tie-break invariant the golden
// traces depend on.
func TestEqualTimestampStableOrder(t *testing.T) {
	e := NewEnv()
	const perTime = 4000
	times := []int64{50, 10, 50, 10, 0} // deliberately unsorted pushes
	type rec struct {
		at  int64
		seq int
	}
	var got []rec
	seqs := map[int64]int{}
	for round := 0; round < perTime; round++ {
		for _, at := range times {
			at := at
			seq := seqs[at]
			seqs[at]++
			e.At(at, func() {
				got = append(got, rec{at, seq})
			})
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != perTime*len(times) {
		t.Fatalf("ran %d events, want %d", len(got), perTime*len(times))
	}
	lastAt := int64(-1)
	next := map[int64]int{}
	for i, r := range got {
		if r.at < lastAt {
			t.Fatalf("event %d: time went backwards (%d after %d)", i, r.at, lastAt)
		}
		lastAt = r.at
		if r.seq != next[r.at] {
			t.Fatalf("event %d at t=%d: ran insertion #%d, want #%d (tie-break not stable)", i, r.at, r.seq, next[r.at])
		}
		next[r.at]++
	}
}

// TestSameInstantCascadeOrder: an event that pushes more work at the
// current instant must see that work run after everything already queued
// at the same instant — even when its bucket was drained and recreated.
func TestSameInstantCascadeOrder(t *testing.T) {
	e := NewEnv()
	var got []string
	e.At(5, func() {
		got = append(got, "a")
		e.At(5, func() { got = append(got, "c") })
	})
	e.At(5, func() { got = append(got, "b") })
	// Drain-and-recreate case: t=7's bucket holds exactly one event which
	// re-pushes at t=7.
	e.At(7, func() {
		got = append(got, "d")
		e.At(7, func() { got = append(got, "e") })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "abcde"
	var s string
	for _, g := range got {
		s += g
	}
	if s != want {
		t.Fatalf("cascade order %q, want %q", s, want)
	}
}

// TestWorkerReuse proves pooling: many sequentially-finishing procs must
// share a small set of worker coroutines, and a clean run must end with
// every live-proc and pinned-worker counter at zero.
func TestWorkerReuse(t *testing.T) {
	e := NewEnv()
	const n = 500
	ran := 0
	for i := 0; i < n; i++ {
		e.At(int64(i), func() {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(1)
				ran++
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != n {
		t.Fatalf("ran %d bodies, want %d", ran, n)
	}
	_, _, total := e.WorkerStats()
	if total >= n/2 {
		t.Fatalf("made %d worker coroutines for %d sequential procs; pool is not recycling", total, n)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("%d live procs after clean run, want 0", e.LiveProcs())
	}
	idle, alive, _ := e.WorkerStats()
	if idle != 0 || alive != 0 {
		t.Fatalf("worker pool not drained after clean run: idle=%d alive=%d", idle, alive)
	}
	if e.q.len() != 0 {
		t.Fatalf("%d events still queued after clean run", e.q.len())
	}
}

// TestWorkerReuseAfterKill: killed procs (blocked, running, and
// never-started) must all release their workers back to the pool, and a
// killed-before-start proc must not consume a worker at all.
func TestWorkerReuseAfterKill(t *testing.T) {
	e := NewEnv()
	var killedUnstartedRan bool
	blocked := e.Spawn("blocked", func(p *Proc) { p.Sleep(Second) })
	self := e.Spawn("self", func(p *Proc) {
		p.Kill() // current proc: dies at next blocking call
		p.Sleep(1)
		t.Error("self proc survived its own kill")
	})
	_ = self
	var unstarted *Proc
	e.At(10, func() {
		blocked.Kill()
		// Killed before its first dispatch.
		unstarted = e.Spawn("unstarted", func(p *Proc) { killedUnstartedRan = true })
		unstarted.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if killedUnstartedRan {
		t.Fatal("killed-before-start proc body ran")
	}
	for _, p := range []*Proc{blocked, self, unstarted} {
		if !p.Finished() {
			t.Fatalf("proc %s not finished after kill", p.name)
		}
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("%d live procs after kills, want 0", e.LiveProcs())
	}
	_, _, total := e.WorkerStats()
	if total > 2 {
		t.Fatalf("spawned %d workers; the never-started kill must not consume one", total)
	}
}

// TestWorkerSurvivesProcPanic: a panic in a proc body or in a callback
// aborts the run and is re-raised by Run with its value, whichever
// worker runs the event loop when it happens — a callback runs on the
// worker of the proc that blocked or finished last. The worker must be
// recycled, and the Env must stay usable for a fresh run that ends with
// every proc finished.
func TestWorkerSurvivesProcPanic(t *testing.T) {
	cases := []struct {
		name  string
		setup func(e *Env)
		want  string // the value Run re-panics with, printed
	}{
		{"proc body", func(e *Env) {
			e.Spawn("boom", func(p *Proc) { panic("bang") })
		}, `sim: proc "boom" panicked: bang`},
		{"callback on a finished proc's worker", func(e *Env) {
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(10) })
			e.At(20, func() { panic("callback bang") })
		}, "callback bang"},
		{"callback on a blocked proc's worker", func(e *Env) {
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(30) })
			e.At(20, func() { panic("callback bang") })
		}, "callback bang"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv()
			tc.setup(e)
			func() {
				defer func() {
					if r := recover(); fmt.Sprint(r) != tc.want {
						t.Fatalf("Run re-panicked with %v, want %q", r, tc.want)
					}
				}()
				_ = e.Run()
			}()
			// The Env stays usable: a blocked proc resumes where it was,
			// and a fresh proc runs on the pool machinery.
			ran := false
			e.Spawn("after", func(p *Proc) { p.Sleep(1); ran = true })
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if !ran {
				t.Fatal("post-panic proc did not run")
			}
			if e.LiveProcs() != 0 {
				t.Fatalf("%d live procs after the second run, want 0", e.LiveProcs())
			}
			if idle, alive, _ := e.WorkerStats(); idle != 0 || alive != 0 {
				t.Fatalf("worker pool not drained: idle=%d alive=%d", idle, alive)
			}
		})
	}
}

// TestWarmWakeupsAllocateNothing: on a warm Env (queue buckets and workers
// already grown) a wake-up allocates nothing — every wake
// event queues the Proc's own wake closure, built once at spawn, and an
// Event links its waiters through the Procs. In each case the measured
// Proc and a partner wake each other, so every wake-up also switches to
// another worker.
func TestWarmWakeupsAllocateNothing(t *testing.T) {
	const runs = 200
	type steps struct {
		step    func(p *Proc) // measured: wakes the partner, then blocks
		partner func(p *Proc) // the partner's mirror step
	}
	cases := []struct {
		name  string
		steps func(e *Env) steps
	}{
		{"Sleep", func(e *Env) steps {
			sleep := func(p *Proc) { p.Sleep(1) }
			return steps{step: sleep, partner: sleep}
		}},
		{"Event.Fire to Wait", func(e *Env) steps {
			// AllocsPerRun makes runs+1 steps, and one more ends the partner.
			var ping, pong []*Event
			for i := 0; i < runs+2; i++ {
				ping = append(ping, e.NewEvent("ping"))
				pong = append(pong, e.NewEvent("pong"))
			}
			i, j := 0, 0
			return steps{
				step:    func(p *Proc) { ping[i].Fire(); p.Wait(pong[i]); i++ },
				partner: func(p *Proc) { p.Wait(ping[j]); pong[j].Fire(); j++ },
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEnv()
			s := tc.steps(e)
			allocs, done, partnerSteps := -1.0, false, 0
			e.Spawn("measured", func(p *Proc) {
				allocs = testing.AllocsPerRun(runs, func() { s.step(p) })
				done = true
				s.step(p) // lets the partner see done
			})
			e.Spawn("partner", func(p *Proc) {
				for !done {
					s.partner(p)
					partnerSteps++
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if partnerSteps < runs {
				t.Fatalf("partner stepped %d times, want >= %d: the procs did not wake each other", partnerSteps, runs)
			}
			if allocs != 0 {
				t.Fatalf("%v allocations per step of two wake-ups, want 0", allocs)
			}
		})
	}
}

// TestGoexitInBodyEndsRun: runtime.Goexit in a proc body (t.FailNow on a
// worker coroutine) ends the run with an error naming the proc, instead of
// resuming a coroutine that no longer exists.
func TestGoexitInBodyEndsRun(t *testing.T) {
	e := NewEnv()
	e.Spawn("quitter", func(p *Proc) { p.Sleep(1); runtime.Goexit() })
	e.Spawn("other", func(p *Proc) { p.Sleep(5) })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `runtime.Goexit on the goroutine of proc "quitter"`) {
		t.Fatalf("Run = %v, want the Goexit error", err)
	}
}

// TestRunLeavesNoGoroutines: once no Proc is live, no worker coroutine or
// dispatcher goroutine is left, however the runs ended: cleanly, by a body
// or callback panic, with procs killed before and after they started, or
// by a runtime.Goexit, which also finishes the proc whose worker it ended.
func TestRunLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name  string
		setup func(e *Env)
	}{
		{"clean", func(e *Env) {
			for i := 0; i < 8; i++ {
				d := int64(i)
				e.Spawn("p", func(p *Proc) { p.Sleep(d); p.Sleep(1) })
			}
		}},
		{"body panic", func(e *Env) {
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(10) })
			e.Spawn("boom", func(p *Proc) { p.Sleep(1); panic("bang") })
		}},
		{"callback panic", func(e *Env) {
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(30) })
			e.At(20, func() { panic("callback bang") })
		}},
		{"kill before start", func(e *Env) {
			blocked := e.Spawn("blocked", func(p *Proc) { p.Sleep(Second) })
			e.At(5, func() {
				blocked.Kill()
				e.Spawn("unstarted", func(p *Proc) {}).Kill()
			})
		}},
		{"goexit", func(e *Env) {
			e.Spawn("quitter", func(p *Proc) { p.Sleep(1); runtime.Goexit() })
			e.Spawn("other", func(p *Proc) { p.Sleep(5) })
		}},
		{"goexit in a callback on a blocked proc's worker", func(e *Env) {
			e.Spawn("sleeper", func(p *Proc) { p.Sleep(30) })
			e.At(20, func() { runtime.Goexit() })
		}},
	}
	run := func(e *Env) {
		defer func() { _ = recover() }()
		_ = e.Run()
	}
	base := runtime.NumGoroutine()
	for _, tc := range cases {
		e := NewEnv()
		tc.setup(e)
		for i := 0; e.LiveProcs() > 0; i++ {
			if i == 3 {
				t.Fatalf("%s: %d procs still live after %d runs", tc.name, e.LiveProcs(), i)
			}
			run(e)
		}
		if idle, alive, _ := e.WorkerStats(); idle != 0 || alive != 0 {
			t.Fatalf("%s: worker pool not drained: idle=%d alive=%d", tc.name, idle, alive)
		}
		// A dispatcher goroutine exits just after Run wakes up.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the runs, %d before", tc.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestKillUnderWatchdog: the stall path must report only genuinely stuck
// procs and killed procs must not pin workers when the watchdog aborts.
func TestKillUnderWatchdog(t *testing.T) {
	e := NewEnv()
	stuck := e.Spawn("stuck", func(p *Proc) { p.Wait(e.NewEvent("never")) })
	victim := e.Spawn("victim", func(p *Proc) { p.Sleep(Second) })
	e.SetWatchdog(Millisecond, nil)
	e.At(10, func() { victim.Kill() })
	// Keep the clock moving so the watchdog can observe it.
	var tick func()
	tick = func() {
		if e.Now() < 10*Millisecond {
			e.After(Millisecond/2, tick)
		}
	}
	e.After(Millisecond/2, tick)
	err := e.Run()
	se, ok := err.(*StallError)
	if !ok {
		t.Fatalf("want *StallError, got %v", err)
	}
	if len(se.Stuck) != 1 || se.Stuck[0] != "stuck" {
		t.Fatalf("stuck = %v, want [stuck]", se.Stuck)
	}
	if !victim.killed || !victim.Finished() {
		t.Fatal("killed proc should be finished before the stall fired")
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("live procs = %d, want 1 (only the stuck one)", e.LiveProcs())
	}
	_ = stuck
}

// TestFinishedProcReleasesState is the zero-leak oracle: after a Proc
// finishes, the scheduler must not retain its body closure, timeline
// recorder, or worker binding, no matter how the body ended.
func TestFinishedProcReleasesState(t *testing.T) {
	e := NewEnv()
	normal := e.Spawn("normal", func(p *Proc) { p.Sleep(5) })
	killedBlocked := e.Spawn("killedBlocked", func(p *Proc) { p.Sleep(Second) })
	var killedUnstarted *Proc
	e.At(1, func() {
		killedBlocked.Kill()
		// Killed before its first dispatch.
		killedUnstarted = e.Spawn("killedUnstarted", func(p *Proc) {})
		killedUnstarted.Kill()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Proc{normal, killedBlocked, killedUnstarted} {
		if !p.Finished() {
			t.Fatalf("%s not finished", p.name)
		}
		if p.w != nil {
			t.Fatalf("%s retains a worker binding after Finished()", p.name)
		}
		if p.body != nil {
			t.Fatalf("%s retains its body closure after Finished()", p.name)
		}
		if p.tl != nil {
			t.Fatalf("%s retains a timeline recorder after Finished()", p.name)
		}
	}
	if e.LiveProcs() != 0 || e.q.len() != 0 {
		t.Fatalf("leak: live=%d queued=%d", e.LiveProcs(), e.q.len())
	}
}

// TestQueueBucketRecycling: repeated bursts at fresh timestamps must not
// grow the queue's retained state without bound (free-list reuse).
func TestQueueBucketRecycling(t *testing.T) {
	e := NewEnv()
	ran := 0
	for round := 0; round < 50; round++ {
		base := int64(round) * 100
		for i := int64(0); i < 10; i++ {
			e.At(base+i, func() { ran++ })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if ran != 500 {
		t.Fatalf("ran %d, want 500", ran)
	}
	if got := len(e.q.free); got > 16 {
		t.Fatalf("free list grew to %d buckets; recycling is broken", got)
	}
}
