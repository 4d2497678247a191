//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// --- pooled workers as coroutines ---

// worker is a coroutine, made with iter.Pull, that hosts Proc bodies one
// after another. Only the dispatcher resumes it, with next; it switches
// back with yield, handing over the Proc to resume after it, or nil once
// the run is over. Both switches are coroswitches: the thread moves
// straight to the other goroutine, never through the run queue.
type worker struct {
	env   *Env
	p     *Proc // the Proc hosted now, or last
	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool
}

// host is the worker's coroutine body. It runs w.p's body to its end and
// then the event loop; when the next wake starts a fresh Proc, host runs
// that body too, and otherwise the worker joins the idle pool and yields
// until the dispatcher binds it a fresh Proc, or stop retires it.
func (w *worker) host(yield func(*Proc) bool) {
	w.yield = yield
	e := w.env
	for {
		var next *Proc
		if w.p.exec() {
			next = e.advance()
		}
		if next != nil && next.w == nil {
			next.w, w.p = w, next
			continue
		}
		e.idle = append(e.idle, w)
		if !yield(next) {
			return
		}
	}
}

// dispatch resumes Procs one at a time, starting with p, each on its own
// worker (an idle or a new one for a fresh Proc), until a worker yields nil.
// It runs on a goroutine of its own: next re-raises a body's
// runtime.Goexit (t.FailNow) in its caller, and that must end this
// goroutine, not Run's.
func (e *Env) dispatch(p *Proc) {
	var w *worker
	over := false
	defer func() {
		if !over {
			// A Goexit ended w's coroutine; exec's deferred finishProc
			// has finished its Proc on the way out.
			e.workersAlive--
			e.err = fmt.Errorf("sim: runtime.Goexit on the goroutine of proc %q", w.p.name)
		}
		e.ended <- struct{}{}
	}()
	for p != nil {
		if w = p.w; w == nil {
			w = e.idleWorker()
			w.p, p.w = p, w
		}
		p, _ = w.next()
	}
	over = true
}

// idleWorker takes a worker from the idle pool, or makes one.
func (e *Env) idleWorker() *worker {
	k := len(e.idle)
	if k == 0 {
		w := &worker{env: e}
		w.next, w.stop = iter.Pull(w.host)
		e.workersAlive++
		e.workersTotal++
		return w
	}
	w := e.idle[k-1]
	e.idle[k-1] = nil
	e.idle = e.idle[:k-1]
	return w
}

// drainIdleWorkers ends the idle coroutines. Called when a Run ends with
// no live Procs so an Env (and its test process) does not strand
// goroutines; the next Spawn simply makes fresh workers.
func (e *Env) drainIdleWorkers() {
	for i, w := range e.idle {
		w.stop()
		e.idle[i] = nil
		e.workersAlive--
	}
	e.idle = e.idle[:0]
}

// yield suspends the calling Proc: it runs the event loop until an event
// wakes a Proc, carries on inline when that is p itself, and otherwise
// switches to the dispatcher, which resumes the woken Proc, until p is
// resumed in turn. A killed Proc unwinds here instead of resuming.
func (p *Proc) yield() {
	w := p.w
	if next := p.env.advance(); next != p {
		w.yield(next)
	}
	if p.killed {
		panic(killSentinel{})
	}
}
