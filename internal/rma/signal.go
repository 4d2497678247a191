package rma

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// Signal is a slotted completion flag array: one row of uint64 slots per
// member, remotely bumped by PutSignal/PackPut deposits. Slots let the
// one-sided collectives distinguish arrival rounds — a count-only flag
// would let a later round's deposit satisfy an earlier round's wait when
// deliveries reorder under fault delays, silently forwarding stale
// bytes. Each slot is an independent monotonic counter.
//
// Like windows, signals are stamped with the fabric epoch they were
// opened under; waits on a revoked or superseded epoch unwind with a
// typed error instead of polling forever.
type Signal struct {
	f     *Fabric
	name  string
	epoch int
	vals  [][]uint64 // [member][slot]
	refs  int
}

// OpenSignal is the SPMD rendezvous on a named signal with the given
// slot count; each rank balances its open with one CloseSignal.
func (f *Fabric) OpenSignal(name string, slots int) (*Signal, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("rma: signal %q: slot count %d must be positive", name, slots)
	}
	if err := f.checkEpoch(f.epoch); err != nil {
		return nil, fmt.Errorf("rma: signal %q: %w", name, err)
	}
	s := f.sigs[name]
	if s == nil {
		s = &Signal{f: f, name: name, epoch: f.epoch, vals: make([][]uint64, len(f.members))}
		for i := range s.vals {
			s.vals[i] = make([]uint64, slots)
		}
		f.sigs[name] = s
	}
	if len(s.vals[0]) != slots {
		return nil, fmt.Errorf("rma: signal %q: opened with %d slots, allocated %d", name, slots, len(s.vals[0]))
	}
	s.refs++
	return s, nil
}

// CloseSignal balances one OpenSignal; the last close releases the name.
// Closing a stale handle from a reseated-away epoch never unbinds the
// name's current-epoch successor.
func (f *Fabric) CloseSignal(s *Signal) {
	s.refs--
	if s.refs <= 0 && f.sigs[s.name] == s {
		delete(f.sigs, s.name)
	}
}

// Value reads rank's slot without blocking.
func (s *Signal) Value(rank, slot int) uint64 { return s.vals[rank][slot] }

// add applies a remote signal update (scheduler context) and beats the
// clock so pollers re-examine their predicates.
func (s *Signal) add(rank, slot int, v uint64) {
	s.vals[rank][slot] += v
	s.f.env().Beat()
}

// WaitSignal blocks until this endpoint's slot reaches atLeast, charging
// poll sleeps to Sync — the one-sided analogue of the progress-engine
// gate, but with no sends or protocol messages behind it.
//
// The wait observes failures on the virtual clock: if the heartbeat
// detector declares any fabric member dead it returns a
// *mpi.RankFailedError, and if the backing communicator epoch is revoked
// (or the signal belongs to a reseated-away epoch) it returns a
// *RevokedError — in both cases instead of stalling on a deposit that
// can no longer arrive. Independently of failure tolerance, the wait
// honors the sim watchdog bound (Config.StallTimeoutNs): when no
// progress beats land for the watchdog window, it unwinds with a
// *sim.StallError one poll before the scheduler-side watchdog would
// abort the whole run, so a lost signal surfaces as a typed error on the
// waiting rank rather than wedging the scheduler.
func (ep *Endpoint) WaitSignal(p *sim.Proc, s *Signal, slot int, atLeast uint64) error {
	f := ep.f
	me := f.MemberOf(ep.r.ID())
	if me < 0 {
		return fmt.Errorf("rma: wait on signal %q: rank %d is not a member of fabric epoch %d", s.name, ep.r.ID(), f.epoch)
	}
	if slot < 0 || slot >= len(s.vals[me]) {
		return fmt.Errorf("rma: wait on signal %q: slot %d out of range [0,%d)", s.name, slot, len(s.vals[me]))
	}
	poll := f.w.Cfg.PollIntervalNs
	stall := f.stallBound()
	env := f.env()
	for s.vals[me][slot] < atLeast {
		if err := f.observe(s.epoch); err != nil {
			return fmt.Errorf("rma: wait on signal %q slot %d: %w", s.name, slot, err)
		}
		if stall >= 0 && p.Now()+poll-env.LastBeat() > stall {
			return &sim.StallError{
				At: p.Now(), LastBeat: env.LastBeat(), TimeoutNs: stall,
				Stuck: []string{fmt.Sprintf("rank%d", ep.r.ID())},
				Diag: fmt.Sprintf("rma: signal %q slot %d stuck at %d, want >= %d",
					s.name, slot, s.vals[me][slot], atLeast),
			}
		}
		start := p.Now()
		p.Sleep(poll)
		ep.r.Trace.Charge(timeline.LayerRMA, trace.Sync, "signal-poll", start, poll)
		ep.Stats.Polls++
	}
	return nil
}
