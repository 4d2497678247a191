package rma

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/layoutcache"
	"repro/internal/pack"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// Bounded-recovery policy for one-sided ops. Timers only exist when a
// fault injector is installed; fault-free runs complete on placement
// with zero extra events, which is what keeps golden traces clean and
// the one-sided path cheaper than rendezvous (no FIN, no ack).
const (
	rmaTimeoutBaseNs = 150_000
	rmaTimeoutMaxNs  = 2_000_000
	rmaMaxTries      = 8
	doorbellMaxTries = 8
)

// verb is an op's kind. Its String is the name that fault records,
// timeline spans and OpError carry.
type verb uint8

const (
	verbPut verb = iota
	verbSignal
	verbGet
)

func (v verb) String() string {
	switch v {
	case verbSignal:
		return "signal"
	case verbGet:
		return "get"
	default:
		return "put"
	}
}

// op is one in-flight one-sided operation. Placement is idempotent:
// payload deposit and signal application are guarded separately so a
// retransmission after signal loss reapplies only the missing half. The
// fields are narrow so an op is 128 B.
//
// An op is a reusable descriptor: newOp takes one from the fabric's free
// list and complete gives it back, zeroed, after its last use (the
// timeline span and the Beat). It goes back only when nothing can reach
// a settled op: with no injector there is no retransmission timer, no
// duplicate delivery and no delayed-apply closure (ep.site == nil), and
// with failure tolerance off no reaper settles an op whose wire leg is
// still in flight (!ep.f.ft). Otherwise a settled op stays where late
// events find it and the garbage collector takes it. No caller of
// complete reads the op afterwards.
type op struct {
	ep  *Endpoint
	id  int64
	win *Window

	from    *gpu.Buffer // read side (put: source; get: target window)
	fromOff int64
	to      *gpu.Buffer // write side (put: target window; get: local dst)
	toOff   int64
	n       int64

	sig *Signal // optional, applied at target after payload
	add uint64

	// A fused PackPut packs origin's entry layout into from at fromOff
	// before the wire leg; entry is nil once packed, and for other ops.
	origin *gpu.Buffer
	entry  *layoutcache.Entry

	issueT int64 // first wire issue, for the machine-view span
	target int32 // target member index (== world rank until a reseat)
	twr    int32 // target world rank at issue time (epoch-proof, for node lookup and reaping)
	slot   int32
	tries  int32

	verb       verb
	placedData bool
	sigDone    bool
	done       bool
}

// Handle is the op's queued event: its pack kernel retiring (while it
// holds its entry), which packs the bytes and issues the wire leg with no
// CPU stream-sync, or else a clean delivery at the target. The pack job
// is built here, on the stack, from the cached layout.
func (o *op) Handle() {
	if e := o.entry; e != nil {
		j := pack.JobFor(pack.OpPack, o.origin, o.from, e)
		j.TargetOff = o.fromOff
		o.entry, o.origin = nil, nil
		j.Execute()
		o.ep.issue(o)
		return
	}
	o.ep.place(o, false, false)
}

// Deliver is a delivery of the op's wire leg that the link corrupted or
// duplicated.
func (o *op) Deliver(d fabric.Delivery) { o.ep.place(o, d.Corrupt, d.Dup) }

// fail is the typed failure of o after tries attempts.
func (o *op) fail(tries int32, err error) *OpError {
	return &OpError{Verb: o.verb.String(), Target: int(o.target), Tries: int(tries), Err: err}
}

func (ep *Endpoint) newOp(v verb, w *Window, target int, from *gpu.Buffer, fromOff int64,
	to *gpu.Buffer, toOff, n int64, sig *Signal, slot int, add uint64) *op {
	ep.f.nextOp++
	ep.pending++
	twr := -1
	if target >= 0 && target < len(ep.f.members) {
		twr = ep.f.members[target]
	}
	var o *op
	if k := len(ep.f.free); k > 0 {
		o = ep.f.free[k-1]
		ep.f.free = ep.f.free[:k-1]
	} else {
		o = new(op)
	}
	*o = op{
		ep: ep, id: ep.f.nextOp, verb: v, win: w, target: int32(target), twr: int32(twr),
		from: from, fromOff: fromOff, to: to, toOff: toOff, n: n,
		sig: sig, slot: int32(slot), add: add, issueT: -1,
	}
	if ep.f.ft {
		// Registry for the reaper: only maintained under failure
		// tolerance so fault-free fast paths never touch the map.
		if ep.inflight == nil {
			ep.inflight = make(map[int64]*op)
		}
		ep.inflight[o.id] = o
	}
	return o
}

// doorbell posts the verb descriptor to the NIC, charging Comm for the
// post (and any transient-failure retries, with backoff).
func (ep *Endpoint) doorbell(p *sim.Proc) error {
	net := ep.f.net()
	start := p.Now()
	var err error
	for try := 1; ; try++ {
		err = net.PostV(p)
		ep.Stats.Doorbells++
		if err == nil || try >= doorbellMaxTries {
			break
		}
		p.Sleep(int64(try) * net.Spec.PostCostNs)
	}
	ep.charge(trace.Comm, "doorbell", start, p.Now()-start)
	return err
}

// Put deposits n bytes from src[srcOff:] into target's window region at
// dstOff. One-sided: the target's CPU never participates. Local source
// bytes must stay stable until Quiet.
func (ep *Endpoint) Put(p *sim.Proc, w *Window, target int, dstOff int64, src *gpu.Buffer, srcOff, n int64) error {
	return ep.PutSignal(p, w, target, dstOff, src, srcOff, n, nil, 0, 0)
}

// PutSignal is Put plus a remote signal update: after the payload is
// placed, sig[target][slot] += add, in that order (payload-before-signal
// is the ordering guarantee waiters rely on).
func (ep *Endpoint) PutSignal(p *sim.Proc, w *Window, target int, dstOff int64,
	src *gpu.Buffer, srcOff, n int64, sig *Signal, slot int, add uint64) error {
	if err := w.check(target, dstOff, n); err != nil {
		return err
	}
	if err := ep.f.checkTarget("put", target); err != nil {
		return err
	}
	if src != nil && (srcOff < 0 || srcOff+n > int64(src.Len())) {
		return fmt.Errorf("rma: put source range [%d,%d) outside %q[0,%d)", srcOff, srcOff+n, src.Name, src.Len())
	}
	o := ep.newOp(verbPut, w, target, src, srcOff, w.bufs[target], dstOff, n, sig, slot, add)
	if err := ep.doorbell(p); err != nil {
		ep.complete(o, o.fail(1, err))
		return err
	}
	ep.Stats.Puts++
	ep.Stats.BytesPut += n
	ep.issue(o)
	return nil
}

// SignalPut is a pure signal update: a zero-byte put whose only effect
// at the target is sig[target][slot] += add. The one-sided collectives
// use it to carry small control values (dynamic-window offsets) in the
// signal payload itself, so control metadata never rides in a data
// buffer that lazy mode would refuse to materialize. It pays the same
// doorbell + wire-leg costs as any put and recovers through the same
// retransmission timer.
func (ep *Endpoint) SignalPut(p *sim.Proc, sig *Signal, target, slot int, add uint64) error {
	if target < 0 || target >= len(ep.f.members) {
		return fmt.Errorf("rma: signal-put target rank %d out of range", target)
	}
	if err := ep.f.checkEpoch(sig.epoch); err != nil {
		return err
	}
	if err := ep.f.checkTarget("signal", target); err != nil {
		return err
	}
	o := ep.newOp(verbSignal, nil, target, nil, 0, nil, 0, 0, sig, slot, add)
	if err := ep.doorbell(p); err != nil {
		ep.complete(o, o.fail(1, err))
		return err
	}
	ep.Stats.Puts++
	ep.Stats.CtrlPuts++
	ep.issue(o)
	return nil
}

// Get reads n bytes from target's window region at srcOff into the local
// dst[dstOff:]. Modeled as an RDMA read: a control leg to the target NIC
// and the payload leg back, no target CPU involvement.
func (ep *Endpoint) Get(p *sim.Proc, w *Window, target int, srcOff int64, dst *gpu.Buffer, dstOff, n int64) error {
	if err := w.check(target, srcOff, n); err != nil {
		return err
	}
	if err := ep.f.checkTarget("get", target); err != nil {
		return err
	}
	if dst == nil || dstOff < 0 || dstOff+n > int64(dst.Len()) {
		return fmt.Errorf("rma: get destination range [%d,%d) invalid", dstOff, dstOff+n)
	}
	o := ep.newOp(verbGet, w, target, w.bufs[target], srcOff, dst, dstOff, n, nil, 0, 0)
	if err := ep.doorbell(p); err != nil {
		ep.complete(o, o.fail(1, err))
		return err
	}
	ep.Stats.Gets++
	ep.Stats.BytesGot += n
	ep.issue(o)
	return nil
}

// issue starts (or re-starts) an op's wire leg. Runs in proc context on
// first issue, scheduler context on retransmits and fused PackPuts.
func (ep *Endpoint) issue(o *op) {
	env := ep.f.env()
	if o.done {
		return // reaped before the wire leg started (e.g. fused pack of a dead target)
	}
	if o.issueT < 0 {
		o.issueT = env.Now()
	}
	if o.tries > 0 {
		// Timer-driven re-issue: record it and charge the re-post (the
		// first post was charged by the doorbell).
		ep.site.Recordf(fault.Retransmit, "rma %s op=%d try=%d", o.verb, o.id, o.tries+1)
		ep.charge(trace.Retrans, "rma-retransmit", env.Now(), ep.f.net().Spec.PostCostNs)
		ep.Stats.Retransmits++
	}
	o.tries++
	var extraDelay int64
	attemptCorrupt := false
	if s := ep.site; s != nil {
		pl := s.Plan().RMA
		if s.Roll(pl.DropProb) {
			s.Recordf(fault.Drop, "rma %s op=%d", o.verb, o.id)
			ep.armTimer(o)
			return
		}
		if s.Roll(pl.CorruptProb) {
			attemptCorrupt = true
			s.Recordf(fault.Corrupt, "rma %s op=%d", o.verb, o.id)
		}
		if s.Roll(pl.DelayProb) {
			extraDelay = 1 + s.Int63n(pl.DelayMaxNs)
			s.Recordf(fault.Delay, "rma %s op=%d +%dns", o.verb, o.id, extraDelay)
		}
	}
	var h fabric.Receiver = o // with no verb fault this attempt, the op receives itself
	if attemptCorrupt || extraDelay > 0 {
		h = fabric.ReceiverFunc(func(d fabric.Delivery) {
			apply := func() { ep.place(o, attemptCorrupt || d.Corrupt, d.Dup) }
			if extraDelay > 0 {
				env.At(env.Now()+extraDelay, apply)
				return
			}
			apply()
		})
	}
	me := ep.r.Node()
	tgt := ep.f.w.Rank(int(o.twr)).Node()
	if o.verb == verbGet {
		ep.f.net().RDMAReadR(me, tgt, o.n, h)
	} else {
		ep.f.net().RDMAWriteR(me, tgt, o.n, h)
	}
	ep.armTimer(o)
}

// place applies a delivery at the target (scheduler context).
func (ep *Endpoint) place(o *op, corrupt, dup bool) {
	if o.done {
		return // a retransmission already completed this op
	}
	if corrupt {
		// The target NIC's CRC rejects the deposit: the window is never
		// touched and the retransmission timer recovers.
		return
	}
	if !o.placedData {
		if o.n > 0 {
			gpu.CopyRange(o.to, o.toOff, o.from, o.fromOff, o.n)
		}
		o.placedData = true
	} else if dup {
		return // duplicate of an already-placed payload: drop silently
	}
	if o.sig != nil && !o.sigDone {
		if s := ep.site; s != nil && s.Roll(s.Plan().RMA.SignalLossProb) {
			// Payload landed but the trailing signal update was lost:
			// the retransmission reapplies only the signal (placedData
			// guards the payload).
			s.Recordf(fault.Flap, "rma signal-loss op=%d slot=%d", o.id, o.slot)
			return
		}
		o.sig.add(int(o.target), int(o.slot), o.add)
		o.sigDone = true
	}
	ep.completeOK(o)
}

func (ep *Endpoint) completeOK(o *op) { ep.complete(o, nil) }

func (ep *Endpoint) complete(o *op, err error) {
	if o.done {
		return
	}
	o.done = true
	ep.pending--
	delete(ep.inflight, o.id)
	if err != nil && ep.firstErr == nil {
		ep.firstErr = err
	}
	env := ep.f.env()
	if tl := ep.r.Timeline(); tl != nil && o.issueT >= 0 {
		tl.Span(timeline.LayerRMA, timeline.CostNone, "net", o.verb.String(), o.issueT, env.Now()-o.issueT,
			timeline.Arg{Key: "bytes", Val: fmt.Sprint(o.n)},
			timeline.Arg{Key: "target", Val: fmt.Sprint(o.target)})
	}
	env.Beat()
	if ep.site == nil && !ep.f.ft {
		*o = op{}
		ep.f.free = append(ep.f.free, o)
	}
}

// armTimer schedules the bounded retransmission timer for an in-flight
// attempt. Only armed under fault injection: with no injector, every leg
// is reliable and completion is placement itself.
func (ep *Endpoint) armTimer(o *op) {
	if ep.site == nil || o.done {
		return
	}
	t := rmaTimeoutBaseNs*int64(o.tries) + o.n
	if t > rmaTimeoutMaxNs {
		t = rmaTimeoutMaxNs
	}
	env := ep.f.env()
	tries := o.tries
	env.At(env.Now()+t, func() {
		if o.done || o.tries != tries {
			return // completed, or a newer attempt owns the timer
		}
		if o.tries >= rmaMaxTries {
			ep.site.Recordf(fault.GiveUp, "rma %s op=%d after %d tries", o.verb, o.id, o.tries)
			ep.complete(o, o.fail(o.tries, ErrRetriesExhausted))
			return
		}
		ep.site.Recordf(fault.Timeout, "rma %s op=%d try=%d", o.verb, o.id, o.tries)
		ep.issue(o)
	})
}

// PackPut packs count elements of layout l from origin into this rank's
// own region of w at packOff, then puts the packed bytes into target's
// region at dstOff, optionally bumping sig[target][slot] by add.
//
// Fused, the transfer is GPU-triggered: the doorbell descriptor is
// enqueued up front and the pack kernel's retirement issues the wire leg
// directly — one launch, no CPU stream-sync between pack and put.
// Unfused, the CPU synchronizes the pack stream (charged to Sync) and
// only then rings the doorbell: same bytes, two extra host steps.
func (ep *Endpoint) PackPut(p *sim.Proc, w *Window, target int, dstOff int64,
	origin *gpu.Buffer, l *datatype.Layout, count int, packOff int64,
	sig *Signal, slot int, add uint64, fused bool) error {
	entry := ep.r.LayoutEntry(l, count)
	self := ep.f.MemberOf(ep.r.ID())
	if self < 0 {
		return fmt.Errorf("rma: pack-put from rank %d, not a member of fabric epoch %d", ep.r.ID(), ep.f.epoch)
	}
	if err := w.check(self, packOff, entry.Bytes); err != nil {
		return err
	}
	if err := w.check(target, dstOff, entry.Bytes); err != nil {
		return err
	}
	if err := ep.f.checkTarget("put", target); err != nil {
		return err
	}
	o := ep.newOp(verbPut, w, target, w.bufs[self], packOff, w.bufs[target], dstOff, entry.Bytes, sig, slot, add)
	ep.Stats.PackPuts++
	ep.Stats.BytesPut += entry.Bytes
	if fused {
		if err := ep.doorbell(p); err != nil {
			ep.complete(o, o.fail(1, err))
			return err
		}
		o.origin, o.entry = origin, entry
		ep.launch(p, gpu.KernelSpec{Name: "PackPut", Bytes: entry.Bytes, Segments: entry.Segments,
			MaxSegmentBytes: entry.MaxBlock, Work: o})
		return nil
	}
	job := pack.JobFor(pack.OpPack, origin, w.bufs[self], entry)
	job.TargetOff = packOff
	ep.launch(p, job.KernelSpec())
	start := p.Now()
	ep.stream.Synchronize(p)
	ep.charge(trace.Sync, "pack-sync", start, p.Now()-start)
	if err := ep.doorbell(p); err != nil {
		ep.complete(o, o.fail(1, err))
		return err
	}
	ep.issue(o)
	return nil
}

// launch runs a kernel on the endpoint's pack stream with the standard
// launch-overhead + kernel-span charging, mirrored onto the rma layer.
// Nobody waits on the kernel itself: its Work packs (and, fused, issues
// the wire leg), and the unfused path synchronizes the stream.
func (ep *Endpoint) launch(p *sim.Proc, spec gpu.KernelSpec) {
	if ep.stream == nil {
		ep.stream = ep.r.Dev.NewStream(fmt.Sprintf("rma%d", ep.r.ID()))
	}
	start, end := ep.stream.Submit(p, spec)
	over := ep.r.Dev.Arch.LaunchOverheadNs
	ep.charge(trace.Launch, "pack-launch", p.Now()-over, over)
	ep.charge(trace.PackKernel, "pack", start, end-start)
}

// Quiet blocks until every op this endpoint issued has completed, then
// surfaces (and clears) the first failure, if any. Poll sleeps are
// charged to Sync. Crashed peers cannot wedge Quiet: the reaper
// completes every op involving a declared-dead rank, so the drain
// terminates and the typed failure surfaces here. As a last resort the
// loop honors the sim watchdog bound and unwinds with a *StallError one
// poll before the scheduler-side watchdog would abort the run.
func (ep *Endpoint) Quiet(p *sim.Proc) error {
	poll := ep.f.w.Cfg.PollIntervalNs
	stall := ep.f.stallBound()
	env := ep.f.env()
	for ep.pending > 0 {
		if stall >= 0 && p.Now()+poll-env.LastBeat() > stall {
			return &sim.StallError{
				At: p.Now(), LastBeat: env.LastBeat(), TimeoutNs: stall,
				Stuck: []string{fmt.Sprintf("rank%d", ep.r.ID())},
				Diag:  fmt.Sprintf("rma: Quiet on rank %d stuck with %d op(s) pending", ep.r.ID(), ep.pending),
			}
		}
		start := p.Now()
		p.Sleep(poll)
		ep.charge(trace.Sync, "quiet-poll", start, poll)
		ep.Stats.Polls++
	}
	err := ep.firstErr
	ep.firstErr = nil
	return err
}

// Fence orders this endpoint's prior puts before subsequent ones at
// every target. The model is conservative: full remote completion
// (Quiet), which trivially satisfies the ordering.
func (ep *Endpoint) Fence(p *sim.Proc) error { return ep.Quiet(p) }
