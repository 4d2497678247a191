// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// An Env owns a virtual clock measured in integer nanoseconds and a queue of
// pending events. Simulation actors are Procs: each body runs on a pooled
// worker coroutine, but the scheduler resumes exactly one Proc at a time, so
// the simulation is fully deterministic — events at equal timestamps run in
// insertion order.
//
// The event queue is sharded by timestamp: a min-heap orders the distinct
// pending times while each time's events live in a FIFO bucket. Discrete
// simulations schedule overwhelmingly at the current instant (wakeups,
// event fans, zero-cost callbacks), so the common push/pop is an O(1)
// bucket append/advance instead of an O(log n) heap rotation — at thousands
// of in-flight events per tick this is what keeps dispatch near O(1).
//
// Pooled workers are coroutines. Each Proc body runs on a worker made with
// iter.Pull, and one dispatcher goroutine per Run resumes them: when a
// Proc blocks or finishes, its own worker runs the event loop, callbacks
// inline, and switches back to the dispatcher with the Proc to wake, which
// the dispatcher resumes directly. Both switches are coroswitches, so a
// wake-up never passes through the Go scheduler's run queue, and a wake of
// the same Proc costs no switch at all. A worker whose Proc finished runs
// the next fresh Proc itself, or joins the idle pool. A finished Proc
// releases all its per-Proc state — an idle or finished rank costs O(1)
// memory, which is what makes 1024-rank runs tractable.
//
// Procs interact with virtual time through blocking calls (Sleep and
// Wait); while a Proc is running, virtual time does not advance.
// Callbacks scheduled with Env.At, and Handlers with Env.AtHandler, run in
// scheduler context, on whichever goroutine ran the event loop (Run's or a
// worker), and must not block. An operation completes by setting a Flag in
// place; the Event a Proc waits on is made only when one asks for it.
package sim

import (
	"fmt"
	"sort"

	"repro/internal/timeline"
)

// Handy duration constants, in virtual nanoseconds.
const (
	Microsecond int64 = 1000
	Millisecond int64 = 1000 * 1000
	Second      int64 = 1000 * 1000 * 1000
)

// FmtDuration renders a virtual duration in engineering units for logs and
// experiment tables.
func FmtDuration(ns int64) string {
	switch {
	case ns >= Second:
		return fmt.Sprintf("%.3fs", float64(ns)/float64(Second))
	case ns >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(ns)/float64(Millisecond))
	case ns >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(ns)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// Env is a simulation environment: a virtual clock plus the machinery to
// schedule callbacks and cooperatively run Procs.
type Env struct {
	now     int64
	q       timeQueue
	live    map[*Proc]struct{}
	current *Proc // the Proc whose body runs; nil in callbacks
	woken   *Proc // set by the wake event the event loop just ran
	running bool
	ended   chan struct{} // Run parks here while the dispatcher runs
	err     error         // returned by Run, set by whoever ends the run
	panicv  any           // re-panicked out of Run

	idle         []*worker // workers with no Proc bound, ready for reuse
	workersAlive int       // coroutines currently parked or running
	workersTotal int       // coroutines ever made (reuse oracle)

	// No-progress watchdog (SetWatchdog). Zero timeout = disarmed.
	wdTimeout int64
	wdLast    int64
	wdDiag    func() string
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{live: make(map[*Proc]struct{})}
}

// Now returns the current virtual time in nanoseconds.
func (e *Env) Now() int64 { return e.now }

// Handler is an event carried by an object that already exists: the queue
// calls Handle at the event's time, in the same (time, insertion) order
// as a func() event, without a closure. A kernel's retirement, a request's
// completion or a message's delivery is so one call on the request, the
// operation or the message itself.
type Handler interface{ Handle() }

// HandlerFunc adapts a func() to Handler.
type HandlerFunc func()

// Handle calls f.
func (f HandlerFunc) Handle() { f() }

// At schedules fn to run at absolute virtual time t (>= Now). fn runs in the
// scheduler context: it must not block and must not call Proc methods.
func (e *Env) At(t int64, fn func()) { e.AtHandler(t, HandlerFunc(fn)) }

// AtHandler is At for a Handler: h.Handle runs at absolute time t.
func (e *Env) AtHandler(t int64, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%d) is in the past (now=%d)", t, e.now))
	}
	e.q.push(t, h)
}

// After schedules fn to run d nanoseconds from now.
func (e *Env) After(d int64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: After(%d) negative delay", d))
	}
	e.q.push(e.now+d, HandlerFunc(fn))
}

// LiveProcs reports how many spawned Procs have not yet finished. A clean
// run ends at zero: every Proc's scheduler state has been released.
func (e *Env) LiveProcs() int { return len(e.live) }

// WorkerStats reports the pooled-worker counters: idle workers ready for
// reuse, worker coroutines currently alive, and coroutines ever made.
// total < procs-spawned proves recycling; alive == idle after a clean Run
// proves no worker is pinned by a leaked Proc.
func (e *Env) WorkerStats() (idle, alive, total int) {
	return len(e.idle), e.workersAlive, e.workersTotal
}

// StallError reports that the no-progress watchdog fired: virtual time kept
// advancing (the event queue was not empty — e.g. progress engines were
// still polling) but nothing Beat the watchdog for longer than the timeout.
type StallError struct {
	At        int64    // virtual time the watchdog fired
	LastBeat  int64    // virtual time of the last recorded progress
	TimeoutNs int64    // armed timeout
	Stuck     []string // started, unfinished procs (sorted)
	Diag      string   // subsystem diagnostic (request states, recent events)
}

func (s *StallError) Error() string {
	msg := fmt.Sprintf("sim: stalled: no progress for %s (watchdog timeout %s, last progress at %s, now %s); %d proc(s) incomplete: %v",
		FmtDuration(s.At-s.LastBeat), FmtDuration(s.TimeoutNs), FmtDuration(s.LastBeat), FmtDuration(s.At), len(s.Stuck), s.Stuck)
	if s.Diag != "" {
		msg += "\n" + s.Diag
	}
	return msg
}

// SetWatchdog arms (or, with timeoutNs <= 0, disarms) a no-progress
// watchdog: if virtual time advances more than timeoutNs past the last
// Beat while some Proc is still unfinished, Run aborts and returns a
// *StallError carrying diag's output. The watchdog only observes the clock
// of events already scheduled, so arming it perturbs neither event order
// nor timings — fault-free runs stay byte-identical.
func (e *Env) SetWatchdog(timeoutNs int64, diag func() string) {
	if timeoutNs <= 0 {
		e.wdTimeout = 0
		e.wdDiag = nil
		return
	}
	e.wdTimeout = timeoutNs
	e.wdDiag = diag
	e.wdLast = e.now
}

// Beat records progress for the watchdog (a request completed, useful work
// happened). Cheap and safe to call with the watchdog disarmed.
func (e *Env) Beat() { e.wdLast = e.now }

// LastBeat reports the virtual time of the most recent Beat — the floor
// the watchdog measures stalls against. Blocking primitives that poll a
// shared flag (rma.WaitSignal) use it to unwind gracefully with a
// *StallError one poll before the scheduler-side watchdog would abort
// the whole run.
func (e *Env) LastBeat() int64 { return e.wdLast }

// stuckNames lists started-but-unfinished Procs, sorted for determinism.
func (e *Env) stuckNames() []string {
	var stuck []string
	for p := range e.live {
		if p.started {
			stuck = append(stuck, p.name)
		}
	}
	sort.Strings(stuck)
	return stuck
}

// stalled builds the watchdog error at the current virtual time.
func (e *Env) stalled() *StallError {
	se := &StallError{At: e.now, LastBeat: e.wdLast, TimeoutNs: e.wdTimeout, Stuck: e.stuckNames()}
	if e.wdDiag != nil {
		se.Diag = e.wdDiag()
	}
	return se
}

// Run executes scheduled events in time order until the queue drains, Stop
// is called, or every Proc has finished. It returns an error if any Proc is
// still blocked when the event queue drains (a deadlock in the modeled
// system) and names the stuck Procs. A panic in a Proc body or a callback
// is re-raised here, whichever goroutine it ran on.
func (e *Env) Run() error {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	if p := e.advance(); p != nil {
		if e.ended == nil {
			e.ended = make(chan struct{})
		}
		go e.dispatch(p)
		<-e.ended
	}
	e.running = false
	e.current = nil
	if len(e.live) == 0 {
		e.drainIdleWorkers()
	}
	if v := e.panicv; v != nil {
		e.panicv = nil
		panic(v)
	}
	err := e.err
	e.err = nil
	return err
}

// advance runs events in (time, sequence) order on the calling goroutine,
// callbacks inline, until one wakes a Proc that has a body to run, and
// returns that Proc as the new current one. It returns nil once the run is
// over — the queue drained, Stop, the watchdog fired, or a callback
// panicked — with Run's outcome in e.err or e.panicv. The one recover per
// call carries a callback's panic to Run from any goroutine.
func (e *Env) advance() (next *Proc) {
	e.current = nil
	defer func() {
		if r := recover(); r != nil {
			e.panicv = r
			next = nil
		}
	}()
	for e.q.len() > 0 {
		t, h := e.q.pop()
		if t < e.now {
			panic("sim: time went backwards")
		}
		e.now = t
		if e.wdTimeout > 0 && e.now-e.wdLast > e.wdTimeout {
			if se := e.stalled(); len(se.Stuck) > 0 {
				e.err = se
				return nil
			}
			e.wdLast = e.now // all procs done; trailing timers are not a stall
		}
		h.Handle()
		if p := e.woken; p != nil {
			e.woken = nil
			if e.runnable(p) {
				e.current = p
				return p
			}
		}
	}
	if stuck := e.stuckNames(); len(stuck) > 0 {
		e.err = fmt.Errorf("sim: deadlock, %d proc(s) still blocked: %v", len(stuck), stuck)
	}
	return nil
}

// --- timestamp-sharded event queue ---

// chunkLen is how many events one chunk of a bucket's FIFO holds.
const chunkLen = 32

// chunk is a fixed-size block of a bucket's FIFO. All buckets take their
// chunks from the queue's one free list, so the queue keeps about as much
// memory as its peak of pending events, however those were spread over
// timestamps.
type chunk struct {
	hs   [chunkLen]Handler
	next *chunk
}

// bucket holds the FIFO of events pending at one timestamp: a list of
// chunks, read in head at r and written in tail at w. Executed slots are
// nilled so handlers release promptly.
type bucket struct {
	head, tail *chunk
	r, w       int
}

// timeQueue orders events by (timestamp, insertion order): a min-heap of
// the distinct pending timestamps plus a FIFO bucket per timestamp.
// Drained buckets and chunks are recycled through free lists, so
// steady-state scheduling allocates nothing.
type timeQueue struct {
	times   []int64
	buckets map[int64]*bucket
	free    []*bucket
	chunks  *chunk // free chunks, linked by next
	n       int
}

func (q *timeQueue) len() int { return q.n }

// newChunk takes a free chunk, or makes one.
func (q *timeQueue) newChunk() *chunk {
	c := q.chunks
	if c == nil {
		return &chunk{}
	}
	q.chunks, c.next = c.next, nil
	return c
}

func (q *timeQueue) push(t int64, h Handler) {
	b := q.buckets[t]
	if b == nil {
		if k := len(q.free); k > 0 {
			b = q.free[k-1]
			q.free[k-1] = nil
			q.free = q.free[:k-1]
		} else {
			b = &bucket{}
		}
		if q.buckets == nil {
			q.buckets = make(map[int64]*bucket)
		}
		q.buckets[t] = b
		q.heapPush(t)
		b.head = q.newChunk()
		b.tail = b.head
	} else if b.w == chunkLen {
		b.tail.next = q.newChunk()
		b.tail = b.tail.next
		b.w = 0
	}
	b.tail.hs[b.w] = h
	b.w++
	q.n++
}

// pop removes and returns the earliest pending event. The caller must have
// checked len() > 0. If the popped event empties its bucket, the bucket is
// retired immediately — a push at the same timestamp from inside the
// returned handler recreates it, and that timestamp (== now) is still the
// heap minimum, so ordering is preserved.
func (q *timeQueue) pop() (int64, Handler) {
	t := q.times[0]
	b := q.buckets[t]
	c := b.head
	h := c.hs[b.r]
	c.hs[b.r] = nil
	b.r++
	q.n--
	switch {
	case c == b.tail && b.r == b.w: // the bucket is drained
		q.heapPop()
		delete(q.buckets, t)
		c.next, q.chunks = q.chunks, c
		*b = bucket{}
		q.free = append(q.free, b)
	case b.r == chunkLen: // the head chunk is drained; more follow
		b.head = c.next
		c.next, q.chunks = q.chunks, c
		b.r = 0
	}
	return t, h
}

func (q *timeQueue) heapPush(t int64) {
	q.times = append(q.times, t)
	i := len(q.times) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.times[parent] <= q.times[i] {
			break
		}
		q.times[parent], q.times[i] = q.times[i], q.times[parent]
		i = parent
	}
}

func (q *timeQueue) heapPop() {
	last := len(q.times) - 1
	q.times[0] = q.times[last]
	q.times = q.times[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && q.times[l] < q.times[small] {
			small = l
		}
		if r < last && q.times[r] < q.times[small] {
			small = r
		}
		if small == i {
			return
		}
		q.times[i], q.times[small] = q.times[small], q.times[i]
		i = small
	}
}

// exec runs p's body to completion and releases p's scheduler state. A
// Kill unwind finishes p cleanly; any other panic ends the run: exec stores
// it for Run to re-raise and reports false.
func (p *Proc) exec() (ok bool) {
	e := p.env
	body := p.body
	p.body = nil
	defer func() {
		if r := recover(); r != nil {
			if _, ok = r.(killSentinel); !ok {
				e.panicv = fmt.Errorf("sim: proc %q panicked: %v", p.name, r)
			}
		}
		e.finishProc(p, ok)
	}()
	if p.killed {
		panic(killSentinel{})
	}
	body(p)
	return true
}

// runnable reports whether a woken p has a body to start or resume. A Proc
// killed before it ever ran finishes here without costing a worker (still
// recording its timeline span, so traces are identical either way).
func (e *Env) runnable(p *Proc) bool {
	if p.done {
		return false
	}
	if p.w == nil {
		p.started = true
		if p.killed {
			e.finishProc(p, true)
			return false
		}
	}
	return true
}

// finishProc marks p finished and releases all scheduler state bound to
// it: the worker binding, live registry entry, timeline recorder and body
// reference. After this, a finished Proc costs O(1) memory no matter how
// long the simulation keeps running. A Proc that ended cleanly (returned
// or killed, not panicked) records its lifetime span first.
func (e *Env) finishProc(p *Proc, clean bool) {
	p.done = true
	if clean && p.tl != nil {
		p.tl.Span(timeline.LayerSim, timeline.CostNone, "sched", "proc:"+p.name, p.startAt, e.now-p.startAt)
	}
	p.w = nil
	p.body = nil
	p.tl = nil
	delete(e.live, p)
}

// Proc is a simulated sequential process (for example, a CPU thread of one
// MPI rank). Bodies run on pooled worker coroutines; the scheduler
// guarantees at most one Proc executes at a time.
type Proc struct {
	env     *Env
	name    string
	w       *worker       // bound while started and unfinished
	body    func(p *Proc) // held until first dispatch
	wake    HandlerFunc   // the queued event that makes this Proc e.woken
	next    *Proc         // next waiter in an Event's FIFO while blocked in Wait
	done    bool
	started bool
	killed  bool
	startAt int64
	tl      *timeline.Recorder
}

// killSentinel unwinds a killed Proc's body via panic. It is recognized by
// the worker recover handler and never escapes the simulation.
type killSentinel struct{}

// Kill marks the Proc dead (a simulated process crash). The Proc's body is
// unwound at its next scheduling point and never runs again; a Proc blocked
// in Sleep or Wait is woken immediately so the unwind happens at the
// current virtual time. Killing a finished or already-killed Proc is a no-op.
// Must be called from scheduler context (an Env.At callback), like every
// other scheduler-side mutation.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if p == p.env.current {
		return // dies at its next blocking call
	}
	p.env.q.push(p.env.now, p.wake)
}

// Finished reports whether the Proc's body has completed (normally, or by
// being killed).
func (p *Proc) Finished() bool { return p.done }

// SetTimeline attaches a timeline recorder to the Proc. A nil recorder (the
// default) disables tracing: the hot paths then skip all event construction.
func (p *Proc) SetTimeline(tl *timeline.Recorder) { p.tl = tl }

// Spawn creates a Proc named name whose body starts at the current virtual
// time. The body receives the Proc for time-consuming calls. No worker is
// bound until the first dispatch: a Proc that is spawned and killed before
// it starts never costs a worker.
func (e *Env) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, body: body, startAt: e.now}
	p.wake = func() { p.env.woken = p }
	e.live[p] = struct{}{}
	e.q.push(e.now, p.wake)
	return p
}

// Now returns the current virtual time.
func (p *Proc) Now() int64 { return p.env.now }

// Sleep advances the Proc by d nanoseconds of virtual time. d == 0 yields
// the processor to other work scheduled at the same instant.
func (p *Proc) Sleep(d int64) {
	if d < 0 {
		panic("sim: Sleep negative duration")
	}
	if p.tl != nil && d > 0 {
		p.tl.Span(timeline.LayerSim, timeline.CostNone, "sched", "sleep", p.env.now, d)
	}
	p.env.q.push(p.env.now+d, p.wake)
	p.yield()
}

// Wait blocks the Proc until ev fires. If ev already fired, Wait returns
// immediately without advancing time.
func (p *Proc) Wait(ev *Event) {
	if ev.fired {
		return
	}
	t0 := p.env.now
	if ev.last == nil {
		ev.first = p
	} else {
		ev.last.next = p
	}
	ev.last = p
	p.yield()
	if p.tl != nil && p.env.now > t0 {
		p.tl.Span(timeline.LayerSim, timeline.CostNone, "sched", "wait:"+ev.name.EventName(), t0, p.env.now-t0)
	}
}

// Event is a one-shot level-triggered signal. Once fired it stays fired;
// waiters arriving afterwards do not block. Fire may be called from either
// a Proc or a scheduler callback.
type Event struct {
	env         *Env
	name        EventNamer
	fired       bool
	first, last *Proc // waiting Procs in FIFO order, linked by Proc.next
}

// NewEvent creates an unfired event.
func (e *Env) NewEvent(name string) *Event {
	return &Event{env: e, name: eventName(name)}
}

// EventNamer names an event when its name is read: by a traced proc's
// wait span or a panic text. An event made per operation on a hot path
// (a message request, a fusion request) so formats a name only when one
// is read, from values the namer captured when the event was made.
type EventNamer interface{ EventName() string }

// eventName is the EventNamer of an event named when it is made.
type eventName string

func (n eventName) EventName() string { return string(n) }

// NewEventNamed creates an unfired event named by n.
func (e *Env) NewEventNamed(n EventNamer) *Event {
	return &Event{env: e, name: n}
}

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event fired at the current virtual time and wakes all
// waiters. Firing twice panics: one-shot semantics are load-bearing for the
// request/response status protocol built on top.
func (ev *Event) Fire() {
	if ev.fired {
		panic("sim: event fired twice: " + ev.name.EventName())
	}
	ev.fired = true
	for w := ev.first; w != nil; {
		next := w.next
		w.next = nil
		ev.env.q.push(ev.env.now, w.wake)
		w = next
	}
	ev.first, ev.last = nil, nil
}

// Flag is a one-shot completion status set in place. The queued handler
// that retires an operation Sets it, pollers read Done, and the Event a
// waiter blocks on is made only when someone asks for it, so an operation
// nobody waits on costs no event. The zero Flag is clear.
type Flag struct {
	setAt int64 // virtual time the flag was set, plus one; zero while clear
	ev    *Event
}

// Set marks the flag set at the current virtual time and fires its event,
// if one was made. Setting a flag twice panics, as firing an event twice
// does.
func (f *Flag) Set(env *Env) {
	if f.Done() {
		panic("sim: flag set twice")
	}
	f.setAt = env.now + 1
	if f.ev != nil {
		f.ev.Fire()
	}
}

// Done reports whether the flag is set.
func (f *Flag) Done() bool { return f.setAt != 0 }

// At returns the virtual time the flag was set; it is valid once Done.
func (f *Flag) At() int64 { return f.setAt - 1 }

// Event returns the flag's event, made on the first call and named by n:
// unfired while the flag is clear (Set fires it), and already fired at the
// flag's time once the flag is set.
func (f *Flag) Event(env *Env, n EventNamer) *Event {
	if f.ev == nil {
		f.ev = env.NewEventNamed(n)
		f.ev.fired = f.Done()
	}
	return f.ev
}

// FireAt schedules the event to fire at absolute time t.
func (ev *Event) FireAt(t int64) {
	ev.env.At(t, func() { ev.Fire() })
}
