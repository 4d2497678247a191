package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
}

func TestSleepAdvancesTime(t *testing.T) {
	e := NewEnv()
	var end int64
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		p.Sleep(3 * Microsecond)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 8*Microsecond {
		t.Fatalf("end = %d, want %d", end, 8*Microsecond)
	}
}

func TestZeroSleepYields(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestSpawnOrderIsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var order []string
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("p%d", i)
			e.Spawn(name, func(p *Proc) {
				order = append(order, p.Name())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("run %d: order %v differs from %v", i, got, first)
		}
	}
	if !sort.StringsAreSorted(first) {
		t.Fatalf("spawn order not preserved: %v", first)
	}
}

func TestEventWakesWaiters(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent("go")
	var woke []int64
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Wait(ev)
			woke = append(woke, p.Now())
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		ev.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 7*Microsecond {
			t.Fatalf("waiter woke at %d, want %d", w, 7*Microsecond)
		}
	}
	if !ev.Fired() || ev.FiredAt() != 7*Microsecond {
		t.Fatalf("event state wrong: fired=%v at=%d", ev.Fired(), ev.at)
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent("early")
	var at int64 = -1
	e.Spawn("firer", func(p *Proc) { ev.Fire() })
	e.Spawn("late", func(p *Proc) {
		p.Sleep(4 * Microsecond)
		p.Wait(ev)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 4*Microsecond {
		t.Fatalf("late waiter resumed at %d, want %d", at, 4*Microsecond)
	}
}

func TestEventDoubleFirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double fire")
		}
	}()
	e := NewEnv()
	ev := e.NewEvent("x")
	e.Spawn("p", func(p *Proc) {
		ev.Fire()
		ev.Fire()
	})
	_ = e.Run()
}

// countingNamer names an event and counts how often the name is read.
type countingNamer struct {
	id    int
	reads int
}

func (n *countingNamer) EventName() string {
	n.reads++
	return fmt.Sprintf("req-%d", n.id)
}

// TestNamedEventFormatsOnlyWhenRead: an event made with NewEventNamed
// fires and wakes its waiters without reading its name, and a panic text
// reads the name the namer gives.
func TestNamedEventFormatsOnlyWhenRead(t *testing.T) {
	e := NewEnv()
	n := &countingNamer{id: 7}
	ev := e.NewEventNamed(n)
	e.Spawn("waiter", func(p *Proc) { p.Wait(ev) })
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(5)
		ev.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n.reads != 0 {
		t.Fatalf("an untraced fire and wait read the name %d times", n.reads)
	}
	defer func() {
		if r := recover(); r != "sim: event fired twice: req-7" {
			t.Fatalf("double fire panicked with %v", r)
		}
	}()
	ev.Fire()
}

// TestFlagEventBeforeAndAfterSet: a Flag's event asked for while the flag
// is clear fires once, when the flag is set, and wakes its waiter then;
// one asked for after the flag is set has already fired at the flag's
// time. A Flag nobody asks about makes no event.
func TestFlagEventBeforeAndAfterSet(t *testing.T) {
	e := NewEnv()
	var early, late, unasked Flag
	var woke int64 = -1
	ev := early.Event(e, eventName("early"))
	if ev.Fired() || early.Done() || early.Event(e, eventName("again")) != ev {
		t.Fatal("a clear flag's event fired, or a second call made another")
	}
	e.Spawn("waiter", func(p *Proc) { p.Wait(ev); woke = p.Now() })
	e.At(5, func() { early.Set(e); late.Set(e); unasked.Set(e) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5 || !ev.Fired() || ev.FiredAt() != 5 {
		t.Fatalf("waiter woke at %d, event fired %v; want both at 5", woke, ev.Fired())
	}
	if lev := late.Event(e, eventName("late")); !late.Done() || late.At() != 5 || !lev.Fired() || lev.FiredAt() != 5 {
		t.Fatal("an event asked for after Set has not fired at the flag's time")
	}
	if unasked.ev != nil {
		t.Fatal("a flag nobody waited on made an event")
	}
	defer func() {
		if r := recover(); r != "sim: flag set twice" {
			t.Fatalf("setting a flag twice panicked with %v", r)
		}
	}()
	early.Set(e)
}

func TestOnFireHookRuns(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent("x")
	var hookAt int64 = -1
	ev.OnFire(func() { hookAt = e.Now() })
	ev.FireAt(9 * Microsecond)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if hookAt != 9*Microsecond {
		t.Fatalf("hook ran at %d, want %d", hookAt, 9*Microsecond)
	}
}

func TestOnFireAfterFiredRunsImmediately(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent("x")
	var ran bool
	e.Spawn("p", func(p *Proc) {
		ev.Fire()
		ev.OnFire(func() { ran = true })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("hook registered after fire never ran")
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent("never")
	e.Spawn("stuck", func(p *Proc) { p.Wait(ev) })
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("error %q does not name the stuck proc", err)
	}
}

func TestAtCallbackOrdering(t *testing.T) {
	e := NewEnv()
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(10, func() { order = append(order, 2) })
	e.At(5, func() { order = append(order, 0) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v want %v", order, want)
	}
}

func TestAtInPastPanics(t *testing.T) {
	e := NewEnv()
	e.At(5, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(1, func() {})
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEnv()
	var last int64
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Microsecond)
			last = p.Now()
		}
	})
	if err := e.RunUntil(10 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if last > 10*Microsecond {
		t.Fatalf("ran past the stop time: last=%d", last)
	}
	if e.Now() != 10*Microsecond {
		t.Fatalf("clock = %d, want %d", e.Now(), 10*Microsecond)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic from Run")
		}
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("panic %v does not carry cause", r)
		}
	}()
	e := NewEnv()
	e.Spawn("bad", func(p *Proc) { panic("boom") })
	_ = e.Run()
}

func TestResourceSerializes(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("dma", 1)
	var spans [][2]int64
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("user%d", i), func(p *Proc) {
			r.Acquire(p)
			start := p.Now()
			p.Sleep(10 * Microsecond)
			spans = append(spans, [2]int64{start, p.Now()})
			r.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			t.Fatalf("span %d overlaps previous: %v", i, spans)
		}
	}
}

func TestResourceCapacityTwoAllowsOverlap(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("dma", 2)
	var maxConc, conc int
	for i := 0; i < 6; i++ {
		e.Spawn(fmt.Sprintf("user%d", i), func(p *Proc) {
			r.Acquire(p)
			conc++
			if conc > maxConc {
				maxConc = conc
			}
			p.Sleep(10 * Microsecond)
			conc--
			r.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxConc != 2 {
		t.Fatalf("max concurrency = %d, want 2", maxConc)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("q", 1)
	var order []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("u%d", i)
		e.Spawn(name, func(p *Proc) {
			r.Acquire(p)
			order = append(order, p.Name())
			p.Sleep(Microsecond)
			r.Release()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(order) {
		t.Fatalf("not FIFO: %v", order)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e := NewEnv()
	r := e.NewResource("r", 1)
	r.Release()
}

func TestSpawnAt(t *testing.T) {
	e := NewEnv()
	var start int64 = -1
	e.SpawnAt(42*Microsecond, "late", func(p *Proc) { start = p.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if start != 42*Microsecond {
		t.Fatalf("started at %d, want %d", start, 42*Microsecond)
	}
}

func TestWaitAll(t *testing.T) {
	e := NewEnv()
	evs := []*Event{e.NewEvent("a"), e.NewEvent("b"), e.NewEvent("c")}
	evs[0].FireAt(5 * Microsecond)
	evs[1].FireAt(15 * Microsecond)
	evs[2].FireAt(10 * Microsecond)
	var done int64
	e.Spawn("joiner", func(p *Proc) {
		p.WaitAll(evs...)
		done = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 15*Microsecond {
		t.Fatalf("joined at %d, want %d", done, 15*Microsecond)
	}
}

func TestFmtDuration(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := FmtDuration(c.ns); got != c.want {
			t.Errorf("FmtDuration(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

// Property: with a single resource of capacity 1, total busy time equals the
// sum of individual hold times (perfect serialization, no lost time).
func TestPropertyResourceConservation(t *testing.T) {
	f := func(holdsRaw []uint16) bool {
		if len(holdsRaw) == 0 || len(holdsRaw) > 50 {
			return true
		}
		e := NewEnv()
		r := e.NewResource("r", 1)
		var total int64
		var finish int64
		for i, h := range holdsRaw {
			d := int64(h%1000) + 1
			total += d
			e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
				r.Acquire(p)
				p.Sleep(d)
				r.Release()
				if p.Now() > finish {
					finish = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return finish == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: propertyRuns(t, 50)}); err != nil {
		t.Fatal(err)
	}
}

// Property: events fired at random times wake waiters exactly at those
// times, and the maximum observed wake time equals the maximum fire time.
func TestPropertyEventTiming(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEnv()
		times := make([]int64, n)
		evs := make([]*Event, n)
		for i := range evs {
			times[i] = int64(rng.Intn(1_000_000))
			evs[i] = e.NewEvent(fmt.Sprintf("e%d", i))
			evs[i].FireAt(times[i])
		}
		ok := true
		for i := range evs {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Wait(evs[i])
				if p.Now() != times[i] {
					ok = false
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: propertyRuns(t, 40)}); err != nil {
		t.Fatal(err)
	}
}

// propertyRuns scales a property test's case count: the full matrix in CI,
// a fast sample under `go test -short`.
func propertyRuns(t *testing.T, full int) int {
	t.Helper()
	if testing.Short() {
		if full > 5 {
			return full / 5
		}
		return full
	}
	return full
}

func TestWatchdogFiresOnStall(t *testing.T) {
	e := NewEnv()
	e.SetWatchdog(1000, func() string { return "diag-detail" })
	ev := e.NewEvent("never")
	e.Spawn("stuck", func(p *Proc) { p.Wait(ev) })
	// A polling proc keeps the event heap non-empty so the classic
	// drained-heap deadlock detector never triggers; only the watchdog can
	// catch this stall.
	e.Spawn("poller", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(100)
		}
	})
	err := e.Run()
	se, ok := err.(*StallError)
	if !ok {
		t.Fatalf("Run() = %v, want *StallError", err)
	}
	if se.TimeoutNs != 1000 || se.At-se.LastBeat <= 1000 {
		t.Fatalf("stall window: %+v", se)
	}
	if len(se.Stuck) == 0 || se.Stuck[0] != "poller" {
		t.Fatalf("stuck procs: %v", se.Stuck)
	}
	if !strings.Contains(err.Error(), "stalled") || !strings.Contains(err.Error(), "diag-detail") {
		t.Fatalf("error %q missing diagnostics", err)
	}
}

func TestWatchdogBeatDefersFiring(t *testing.T) {
	e := NewEnv()
	e.SetWatchdog(1000, nil)
	e.Spawn("worker", func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Sleep(900) // under the timeout each step...
			e.Beat()     // ...and progress recorded each step
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("beating run stalled: %v", err)
	}
}

func TestWatchdogDisarm(t *testing.T) {
	e := NewEnv()
	e.SetWatchdog(10, nil)
	e.SetWatchdog(0, nil) // disarm
	e.Spawn("slow", func(p *Proc) { p.Sleep(1_000_000) })
	if err := e.Run(); err != nil {
		t.Fatalf("disarmed watchdog fired: %v", err)
	}
}

func TestWatchdogIgnoresTrailingTimers(t *testing.T) {
	// Events scheduled far in the future with every proc already finished
	// are not a stall: the run must end cleanly.
	e := NewEnv()
	e.SetWatchdog(1000, nil)
	e.Spawn("quick", func(p *Proc) { p.Sleep(10) })
	e.At(5_000_000, func() {})
	if err := e.Run(); err != nil {
		t.Fatalf("trailing timer tripped watchdog: %v", err)
	}
}

func TestWatchdogDoesNotPerturbTimings(t *testing.T) {
	run := func(arm bool) int64 {
		e := NewEnv()
		if arm {
			e.SetWatchdog(1_000_000, nil)
		}
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(777)
			}
		})
		e.Spawn("b", func(p *Proc) { p.Sleep(3000) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	if with, without := run(true), run(false); with != without {
		t.Fatalf("watchdog perturbed the clock: %d vs %d", with, without)
	}
}
