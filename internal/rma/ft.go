// Failure tolerance for the one-sided fabric: reaping in-flight deposits
// that involve a declared-dead rank, invalidating the fabric epoch when
// the backing communicator is revoked, and re-rendezvousing the symmetric
// heap onto a Shrink survivor communicator (dense re-rank, fresh epoch).
//
// The design mirrors ULFM's layering: detection and revocation gossip
// live in internal/mpi; the fabric only *observes* them through the
// OnRankFailed/OnCommRevoked hooks and keeps its own state (windows,
// signals, pending ops) consistent on the same virtual clock. All of it
// is gated on mpi's failure tolerance being armed, so fault-free runs
// keep byte-identical event streams.

package rma

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// Modeled CPU cost of the survivor re-rendezvous (virtual ns), charged
// per member to trace.Recovery like mpi's Shrink costs: exchanging the
// new rank order and re-mirroring heap metadata is an O(members)
// collective over the control plane.
const (
	reseatBaseNs      = 1200
	reseatPerMemberNs = 300
)

// observe is the per-poll failure check used by WaitSignal/Quiet: it
// returns a typed error if the fabric epoch the caller is waiting on has
// been revoked or superseded, or if any current member has been declared
// failed by the heartbeat detector. Free when failure tolerance is off.
func (f *Fabric) observe(epoch int) error {
	if !f.ft {
		return nil
	}
	if err := f.checkEpoch(epoch); err != nil {
		return err
	}
	for _, wr := range f.members {
		if f.w.RankFailed(wr) {
			return &mpi.RankFailedError{Rank: wr, DetectedAt: f.w.FailedAt(wr)}
		}
	}
	return nil
}

// checkEpoch rejects use of a handle from a revoked or superseded fabric
// epoch with a typed *RevokedError. Free when failure tolerance is off.
func (f *Fabric) checkEpoch(epoch int) error {
	if !f.ft {
		return nil
	}
	if epoch != f.epoch {
		return &RevokedError{Epoch: epoch, At: f.revokedAt}
	}
	if f.revoked {
		return &RevokedError{Epoch: f.epoch, At: f.revokedAt}
	}
	return nil
}

// checkTarget fail-fasts a verb aimed at a member already declared dead:
// no op is created, the caller gets the same typed *OpError shape a
// reaped in-flight op would produce.
func (f *Fabric) checkTarget(verb string, target int) error {
	if !f.ft || target < 0 || target >= len(f.members) {
		return nil
	}
	wr := f.members[target]
	if f.w.RankFailed(wr) {
		return &OpError{Verb: verb, Target: target,
			Err: &mpi.RankFailedError{Rank: wr, DetectedAt: f.w.FailedAt(wr)}}
	}
	return nil
}

// stallBound mirrors mpi.World.Run's watchdog arming: Config.
// StallTimeoutNs, 0 meaning the 100 ms default, negative disarmed (-1).
func (f *Fabric) stallBound() int64 {
	st := f.w.Cfg.StallTimeoutNs
	if st < 0 {
		return -1
	}
	if st == 0 {
		return 100 * sim.Millisecond
	}
	return st
}

// reapDead runs in scheduler context when the heartbeat detector
// declares a rank failed. Every in-flight op that involves the dead rank
// — issued by it, or targeting it — is completed early with a typed
// failure, so Quiet/Fence drain instead of waiting on deliveries that
// will never be acknowledged. Completion goes through the same
// complete() path as normal landings, so the done/placedData guards make
// reaping idempotent against late wire events that were already
// scheduled.
func (f *Fabric) reapDead(dead int) {
	ferr := &mpi.RankFailedError{Rank: dead, DetectedAt: f.w.FailedAt(dead)}
	for _, ep := range f.eps {
		if len(ep.inflight) == 0 {
			continue
		}
		epDead := ep.r.ID() == dead
		ids := make([]int64, 0, len(ep.inflight))
		for id := range ep.inflight {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			o := ep.inflight[id]
			if o.done || (!epDead && int(o.twr) != dead) {
				continue
			}
			ep.Stats.Reaped++
			ep.site.Recordf(fault.Reap, "%s op=%d target=rank%d dead=rank%d tries=%d",
				o.verb, o.id, o.twr, dead, o.tries)
			ep.complete(o, o.fail(o.tries, ferr))
		}
	}
}

// commRevoked runs in scheduler context when any communicator is
// revoked. If it is the communicator epoch this fabric is seated on, the
// whole epoch is poisoned: window checks and signal waits return
// *RevokedError until a survivor Reseats the fabric.
func (f *Fabric) commRevoked(c *mpi.Comm) {
	if c.Epoch() != f.epoch || f.revoked {
		return
	}
	f.revoked = true
	f.revokedAt = f.env().Now()
	// The epoch's windows are unusable from here on, and a dead member
	// never frees its share: retire their buffers now.
	f.retireWindows(false)
}

// retireWindows retires the buffers of every window of the current epoch,
// marking the windows freed too when free is set.
func (f *Fabric) retireWindows(free bool) {
	retire := func(w *Window) {
		if free {
			w.freed = true
		}
		w.release(false)
	}
	for _, ref := range f.named {
		retire(ref.win)
	}
	for _, w := range f.heap.live {
		retire(w)
	}
}

// Reseat re-rendezvouses the fabric onto cm, a survivor communicator
// produced by Shrink (or the world communicator at first use). The first
// caller at a new epoch rebuilds the fabric: members are densely
// re-ranked in cm's order, the symmetric heap restarts empty (fresh
// mirrored offsets), windows and signals of the old epoch are
// invalidated, and any still-pending op is reaped with a *RevokedError.
// Every member that joins the new epoch — first or not — pays the
// modeled O(members) rendezvous cost once; repeat calls by the same rank
// at the same epoch are free no-ops, so collective entry points can call
// it unconditionally.
func (f *Fabric) Reseat(p *sim.Proc, r *mpi.Rank, cm *mpi.Comm) error {
	if cm == nil {
		return fmt.Errorf("rma: Reseat on nil communicator")
	}
	if !cm.Contains(r.ID()) {
		return fmt.Errorf("rma: rank %d is not a member of the reseat communicator (epoch %d)", r.ID(), cm.Epoch())
	}
	if cm.Epoch() < f.epoch {
		return fmt.Errorf("rma: Reseat onto stale epoch %d (fabric at %d)", cm.Epoch(), f.epoch)
	}
	if cm.Epoch() > f.epoch {
		f.rebuild(cm)
	}
	if f.joined[r.ID()] >= f.epoch {
		return nil
	}
	f.joined[r.ID()] = f.epoch
	if p != nil {
		cost := reseatBaseNs + reseatPerMemberNs*int64(len(f.members))
		t0 := p.Now()
		p.Sleep(cost)
		r.Trace.Charge(timeline.LayerFailure, trace.Recovery, "rma-reseat", t0, cost)
	}
	return nil
}

// rebuild swaps the fabric onto a new epoch. Runs once per epoch, from
// the first surviving caller's proc context.
func (f *Fabric) rebuild(cm *mpi.Comm) {
	now := f.env().Now()
	// Reap everything still in flight under the old epoch: those
	// deposits belong to a failed iteration and must not leak into the
	// pending-op oracle (late deliveries are suppressed by o.done).
	rerr := &RevokedError{Epoch: f.epoch, At: now}
	for _, ep := range f.eps {
		ids := make([]int64, 0, len(ep.inflight))
		for id := range ep.inflight {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			o := ep.inflight[id]
			if o.done {
				continue
			}
			ep.Stats.Reaped++
			ep.site.Recordf(fault.Reap, "%s op=%d target=rank%d epoch=%d reseat", o.verb, o.id, o.twr, f.epoch)
			ep.complete(o, o.fail(o.tries, rerr))
		}
	}
	// Invalidate old-epoch windows and signals. Device buffers persist
	// (the machines survive; contents are recovered via ckpt), but the
	// handles are dead: check()/WaitSignal reject them by epoch. Their
	// buffers are retired, never lent again.
	f.retireWindows(true)
	f.named = make(map[string]*winRef)
	f.sigs = make(map[string]*Signal)
	f.heap = &Heap{f: f, align: 64}

	f.comm = cm
	f.epoch = cm.Epoch()
	f.members = cm.Ranks()
	for i := range f.mindex {
		f.mindex[i] = -1
	}
	for m, wr := range f.members {
		f.mindex[wr] = m
	}
	f.revoked = false
	f.revokedAt = now
	for _, wr := range f.members {
		f.eps[wr].firstErr = nil
	}
	f.fsite.Recordf(fault.Reseat, "epoch=%d members=%d heap reset", f.epoch, len(f.members))
}
