// Reliability layer for the MPI runtime, activated when Config.Faults is
// non-nil: every control and eager message travels over an acked,
// checksummed, retransmitting transport, and RDMA transfers get
// checksum-verified completion with bounded re-issue — the recovery half of
// the fault-injection story (package fault supplies the failure half).
//
// Design notes:
//
//   - Acks are modeled at the NIC firmware level (InfiniBand RC hardware
//     acks): they are emitted from scheduler context with no CPU post cost
//     and are themselves unacknowledged. A lost ack is recovered by the
//     sender's retransmission plus the receiver's duplicate suppression.
//   - Retransmission timers are pure virtual-clock deadlines scanned by the
//     polled progress engine; no extra simulation events exist, so a
//     fault-free run (Config.Faults == nil) is byte-identical to one built
//     before this layer existed.
//   - Every retransmission charges its CPU time to trace.Retrans through
//     Rank.ChargeFault, which mirrors the charge as a fault-layer timeline
//     span — timeline sums therefore reconcile exactly with the Breakdown.
//   - A request completes only when its protocol finished AND every message
//     it emitted was acked (unacked == 0): no request leaks an in-flight
//     message, which the chaos conformance suite asserts.
//   - Exhausted retries surface as *OpError (wrapping ErrRetriesExhausted)
//     on the request; Wait/Waitall return them. A best-effort mkErr notifies
//     the peer so its matching request fails fast with ErrPeerAborted
//     instead of stalling until the sim watchdog fires.
package mpi

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/payload"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// Retransmission policy of the reliability layer.
const (
	// defaultMaxRetries bounds re-issues per message or RDMA operation
	// when Config.MaxRetries is unset.
	defaultMaxRetries = 8
	// retryBaseNs pads the size-derived retransmission timeout and is the
	// NIC verb-retry backoff unit.
	retryBaseNs = 10_000
	// backoffCapNs caps the exponential backoff added per attempt.
	backoffCapNs = 2 * sim.Millisecond
)

// Typed failure sentinels; inspect with errors.Is through the *OpError that
// Wait/Waitall return.
var (
	// ErrRetriesExhausted: bounded retransmission gave up.
	ErrRetriesExhausted = errors.New("mpi: retries exhausted")
	// ErrPeerAborted: the matching request on the peer rank failed.
	ErrPeerAborted = errors.New("mpi: peer aborted operation")
	// ErrTruncate: a matched message was larger than the posted receive.
	ErrTruncate = errors.New("mpi: message truncation")
)

// OpError is the typed terminal error of a failed request.
type OpError struct {
	Rank, Peer, Tag int
	IsSend          bool
	// Phase names the protocol step that failed ("eager", "rts", "fin",
	// "rdma-read", "rdma-write", "nic-post", "pack", "unpack", ...).
	Phase string
	// Attempts counts issues of the failing message/operation.
	Attempts int
	Err      error
}

func (e *OpError) Error() string {
	dir := "recv"
	if e.IsSend {
		dir = "send"
	}
	return fmt.Sprintf("mpi: rank %d %s (peer=%d tag=%d) failed in %s after %d attempt(s): %v",
		e.Rank, dir, e.Peer, e.Tag, e.Phase, e.Attempts, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// corruptionUndetected models bytes [off, off+n) of b corrupted in flight
// and reports whether the receiver's CRC (FNV-1a, payload.Checksum over
// real bytes) would still, impossibly, accept them: it hashes the range
// and a damaged copy, one byte flipped in exact mode, the deterministic PRF
// corrupt splice seeded by the range's checksum on a span clone in lazy
// mode. FNV-1a changes on any single-byte change, so the callers turn a
// true result into a sanity panic. It runs only on a corrupt delivery, the
// one branch that reads a checksum, and still reads what was posted: the
// range is an immutable frame snapshot, sender staging (a reliable world
// retires it instead of pooling it) or a send buffer the sender may not
// write before its send completes.
func corruptionUndetected(b *gpu.Buffer, off, n int64) bool {
	switch {
	case n == 0:
		return false // header-only frame: nothing to mis-verify
	case b.IsLazy():
		want := b.Lazy.ChecksumRange(off, n)
		dam := b.Lazy.Slice(off, n)
		dam.CorruptSplice(0, n, want)
		return dam.Checksum() == want
	}
	dam := append([]byte(nil), b.Data[off:off+n]...)
	dam[n/2] ^= 0xa5
	return payload.Checksum(dam) == payload.Checksum(b.Data[off:off+n])
}

// pendingMsg tracks one unacked reliable message on the sender.
type pendingMsg struct {
	m        *message
	owner    *Request // whose unacked count this message holds
	wire     int64    // wire size for resend + timeout derivation
	deadline int64
	attempts int
	acked    bool
}

// reliable reports whether the reliability layer is active (a fault plan is
// installed, even an all-zero one — reliable transport is an explicit
// opt-in so fault-free runs stay byte-identical).
func (r *Rank) reliable() bool { return r.world.inj != nil }

// ChargeFault accrues a recovery cost (retransmission CPU time, retry
// backoff) to trace.Retrans and mirrors it as a fault-layer timeline span,
// keeping timeline per-category sums reconciled with the Breakdown.
func (r *Rank) ChargeFault(name string, start, d int64) {
	if d <= 0 {
		return
	}
	r.Trace.Add(trace.Retrans, d)
	if r.tl != nil {
		r.tl.Span(timeline.LayerFault, trace.Retrans, "", name, start, d)
	}
}

// timeoutFor derives a retransmission timeout from the wire size: one
// round trip (request + ack) at link speed plus scheduling slack.
func (r *Rank) timeoutFor(wire int64) int64 {
	ls := r.world.Cluster.Net.Spec.Link
	est := ls.LatencyNs + ls.PerMessageNs + int64(float64(wire)/ls.BWBytesPerNs)
	return 2*est + retryBaseNs
}

// backoffExtra is the capped exponential deadline extension for a retry.
func (r *Rank) backoffExtra(est int64, attempts int) int64 {
	if attempts <= 0 {
		return 0
	}
	if attempts > 20 {
		attempts = 20
	}
	extra := est << uint(attempts)
	if extra > backoffCapNs {
		extra = backoffCapNs
	}
	return extra
}

// postRetry posts a NIC work request, retrying transient verb failures with
// capped exponential backoff. Without the reliability layer it is exactly
// Network.Post.
func (r *Rank) postRetry(p *sim.Proc) error {
	net := r.world.Cluster.Net
	if !r.reliable() {
		net.Post(p)
		return nil
	}
	for attempt := 0; ; attempt++ {
		err := net.PostV(p)
		if err == nil {
			return nil
		}
		if attempt >= r.world.maxRetries {
			r.fsite.Record(fault.GiveUp, "nic-post")
			return err
		}
		back := int64(retryBaseNs) << uint(attempt)
		if back > backoffCapNs {
			back = backoffCapNs
		}
		p.Sleep(back)
	}
}

// sendReliable stamps m with a world-unique id, registers it for ack
// tracking against owner, and transmits it.
func (r *Rank) sendReliable(p *sim.Proc, owner *Request, m *message, wire int64) {
	r.world.nextMsgID++
	m.id = r.world.nextMsgID
	if m.kind == mkEager || m.kind == mkRTS {
		k := streamKey(int(m.to), m.tag)
		r.streamSeq[k]++
		m.sseq = r.streamSeq[k]
		owner.sseq = m.sseq
	}
	owner.unacked++
	pm := &pendingMsg{m: m, owner: owner, wire: wire}
	r.pending = append(r.pending, pm)
	r.transmit(p, pm, false)
}

// streamKey names one envelope stream: (destination, tag) on the sender,
// (source, tag) on the receiver. Both fit in 32 bits, and one packed word
// keeps the per-stream maps small: collective tags change every call.
func streamKey(peer, tag int) uint64 { return uint64(peer)<<32 | uint64(uint32(tag)) }

// admit keeps MPI's non-overtaking order under the reliability layer.
// Retransmission can reorder envelopes on the wire, so sendReliable stamps
// every eager or RTS envelope with a per-(destination, tag) sequence and
// the receiver matches each (source, tag) stream in that order, parking
// early arrivals. A sender's abort for an emitted envelope carries that
// envelope's sequence and takes its place: parked successors flow on, and
// the envelope, should it still arrive, is dropped. Unsequenced messages
// (fault-free runs, aborts for never-emitted sends) match on arrival.
// AnyTag receives see order only within each tag; in this repository only
// fault-free tests (the wildcard and reserved-tag guard tests) post them.
func (r *Rank) admit(m *message) {
	if m.sseq == 0 {
		r.match(m)
		return
	}
	k := streamKey(int(m.from), m.tag)
	next := r.streamNext[k] + 1
	switch {
	case m.sseq > next:
		r.early = append(r.early, m)
		return
	case m.sseq < next:
		if m.kind == mkErr {
			r.match(m) // abort for an envelope already matched
		}
		return
	}
	r.streamNext[k] = next
	r.match(m)
	for i := 0; i < len(r.early); i++ {
		if e := r.early[i]; e.from == m.from && e.tag == m.tag && e.sseq <= r.streamNext[k]+1 {
			r.early = append(r.early[:i], r.early[i+1:]...)
			r.admit(e)
			i = -1 // the stream may have advanced: rescan
		}
	}
}

// transmit posts one (re)transmission of pm and arms its deadline.
func (r *Rank) transmit(p *sim.Proc, pm *pendingMsg, retrans bool) {
	t0 := p.Now()
	if err := r.postRetry(p); err != nil {
		pm.acked = true // dead entry; stop scanning it
		r.fail(p, pm.owner, "nic-post", pm.attempts+1, err)
		return
	}
	m := pm.m
	arrive := r.sendMsg(pm.wire, m)
	est := r.timeoutFor(pm.wire)
	pm.deadline = p.Now() + est + r.backoffExtra(est, pm.attempts)
	if retrans {
		r.ChargeFault("retransmit:"+m.kind.String(), t0, p.Now()-t0)
		return
	}
	if r.tl != nil {
		name := "ctrl:" + m.kind.String()
		if m.kind == mkEager {
			name = "eager"
		}
		r.tl.Span(timeline.LayerMPI, timeline.CostNone, "net", name, t0, arrive-t0,
			timeline.Arg{Key: "peer", Val: strconv.Itoa(int(m.to))},
			timeline.Arg{Key: "bytes", Val: strconv.FormatInt(m.bytes, 10)})
	}
}

// sendAck acknowledges m back to its sender. Scheduler context: acks are
// NIC-firmware-level (IB RC hardware acks) and cost the CPU nothing.
func (r *Rank) sendAck(m *message) {
	net := r.world.Cluster.Net
	dst := r.world.ranks[m.from]
	net.Send(r.node, dst.node, net.Spec.CtrlBytes, &ackFrame{dst: dst, id: m.id})
}

// ackFrame is an ack in flight: the rank it returns to and the message id
// it acknowledges. It is its own fabric receiver.
type ackFrame struct {
	dst *Rank
	id  int64
}

// Handle is a clean arrival of the ack.
func (a *ackFrame) Handle() { a.Deliver(fabric.Delivery{}) }

// Deliver resolves the ack at its destination unless the link corrupted
// it (the sender then retransmits and the receiver re-acks) or the
// destination is dead.
func (a *ackFrame) Deliver(d fabric.Delivery) {
	if d.Corrupt || a.dst.world.isCrashed(a.dst.id) {
		return
	}
	a.dst.handleAck(a.id)
}

// handleAck resolves an arriving ack for message id against the pending
// list (scheduler context). Unknown ids (already acked and pruned, or a
// duplicated ack) are ignored.
func (r *Rank) handleAck(id int64) {
	for _, pm := range r.pending {
		if pm.m.id != id || pm.acked {
			continue
		}
		pm.acked = true
		q := pm.owner
		q.unacked--
		if q.unacked == 0 && q.wantDone && !q.settled() {
			r.complete(q)
		}
		return
	}
}

// retransmitScan walks the pending list from the progress engine: prunes
// resolved entries, re-transmits expired ones with backoff, and fails the
// owning request when retries are exhausted.
func (r *Rank) retransmitScan(p *sim.Proc) {
	if len(r.pending) == 0 {
		return
	}
	// Prune first — no yields here, so the in-place compaction cannot race
	// an ack arriving mid-scan.
	keep := r.pending[:0]
	for _, pm := range r.pending {
		if pm.acked || pm.owner.settled() {
			continue
		}
		keep = append(keep, pm)
	}
	for i := len(keep); i < len(r.pending); i++ {
		r.pending[i] = nil
	}
	r.pending = keep
	// Deadline scan. transmit yields (NIC post), so acks may land mid-scan;
	// they only flip per-entry fields, never the slice.
	for _, pm := range r.pending {
		if pm.acked || pm.owner.settled() || p.Now() < pm.deadline {
			continue
		}
		pm.attempts++
		r.fsite.Record(fault.Timeout, pm.m.kind.String())
		if pm.attempts > r.world.maxRetries {
			r.fsite.Record(fault.GiveUp, pm.m.kind.String())
			r.fail(p, pm.owner, pm.m.kind.String(), pm.attempts, ErrRetriesExhausted)
			continue
		}
		r.fsite.Record(fault.Retransmit, pm.m.kind.String())
		r.transmit(p, pm, true)
	}
}

// maybeComplete finishes q once its protocol is done AND every message it
// emitted was acked. Without the reliability layer unacked is always zero,
// so this is exactly complete.
func (r *Rank) maybeComplete(q *Request) {
	if q.settled() {
		return
	}
	if q.unacked > 0 {
		q.wantDone = true
		return
	}
	r.complete(q)
}

// fail terminates q with a typed error, fires its completion event, frees
// its active-list slot, advances the envelope FIFO past it, beats the
// watchdog, and best-effort notifies the peer. p may be nil (scheduler
// context); FIFO draining is then deferred to the next progress call.
func (r *Rank) fail(p *sim.Proc, q *Request, phase string, attempts int, err error) {
	if q.settled() {
		return
	}
	q.err = &OpError{
		Rank: r.id, Peer: q.peer, Tag: q.tag, IsSend: q.isSend,
		Phase: phase, Attempts: attempts, Err: err,
	}
	q.state = stFailed
	q.DoneAt = r.world.Env.Now()
	r.ReleaseStaging(q.packed, false)
	if q.isSend && !q.emitted {
		// The envelope never went out; park an empty slot in its FIFO
		// place so later sends to the same destination are not wedged
		// forever behind a request that will never emit.
		q.emitted = true
		r.park(q.peer, q.seq, nil)
		if p != nil {
			r.drainEmits(p, q.peer)
		} else {
			r.needDrain = true
		}
	}
	for i, a := range r.active {
		if a == q {
			r.active = append(r.active[:i], r.active[i+1:]...)
			break
		}
	}
	r.world.Env.Beat()
	r.notifyPeer(q)
	if c := q.boundComm(); c != nil {
		// Self-healing hook: a comm-bound op failing on a dead member
		// revokes the communicator at the moment of observation.
		c.maybeAutoRevoke(r, err)
	}
}

// notifyPeer sends a best-effort, untracked mkErr so the peer's matching
// request fails with ErrPeerAborted instead of waiting for the watchdog. It
// may itself be lost — then the peer's own timeouts or the sim watchdog
// take over.
func (r *Rank) notifyPeer(q *Request) {
	if !r.reliable() || q.errSent || q.peer < 0 || q.peer == r.id {
		return
	}
	q.errSent = true
	target := q.peerRecv
	if !q.isSend && q.matched != nil {
		target = q.matched.sender
	}
	m := &message{kind: mkErr, from: int32(r.id), to: int32(q.peer), tag: q.tag, receiver: target, bytes: q.bytes, sseq: q.sseq}
	net := r.world.Cluster.Net
	net.Send(r.node, r.world.ranks[q.peer].node, net.Spec.CtrlBytes, fabric.ReceiverFunc(func(d fabric.Delivery) {
		if d.Corrupt || d.Dup {
			return
		}
		r.world.ranks[m.to].arrive(m, d)
	}))
}

// relState is a request's reliability-layer and ULFM state beyond the
// ack count and stream sequence, which every reliable eager leg needs and
// Request keeps inline. It is made on first use, so only under a fault
// plan.
type relState struct {
	comm          *Comm     // bound communicator: a revocation fails q in place
	reads         []*readOp // recv RGET: checksummed read spans
	writeDeadline int64     // send RPUT: rewrite deadline
	writeAttempts int       // send RPUT: write issues so far
}

// reliability returns q's reliability-layer state, making it on first use.
func (q *Request) reliability() *relState {
	if q.rel == nil {
		q.rel = &relState{}
	}
	return q.rel
}

// boundComm returns the communicator q is bound to, or nil.
func (q *Request) boundComm() *Comm {
	if q.rel == nil {
		return nil
	}
	return q.rel.comm
}

// readOp tracks one checksummed RDMA-read span (whole message or one
// pipeline chunk) on the receiver.
type readOp struct {
	off, bytes int64
	attempts   int
	deadline   int64
	done       bool
}

// newRead records a checksummed read of q's bytes [off, off+n).
func (q *Request) newRead(off, n int64) *readOp {
	op := &readOp{off: off, bytes: n}
	rs := q.reliability()
	rs.reads = append(rs.reads, op)
	return op
}

// issueRead posts one (re)issue of op's RDMA read with checksum-verified
// completion. Corrupted or duplicated payloads are discarded — the deadline
// scan re-reads them.
func (r *Rank) issueRead(p *sim.Proc, q *Request, op *readOp, retrans bool) {
	t0 := p.Now()
	if err := r.postRetry(p); err != nil {
		r.fail(p, q, "rdma-read-post", op.attempts+1, err)
		return
	}
	sb, so := q.matched.sender.srcBuf()
	a := &readAttempt{op: op, q: q, src: sb, srcOff: so, at: t0}
	r.world.Cluster.Net.RDMAReadBy(r.node, r.world.ranks[q.matched.from].node, (*readAttemptRequest)(a), a)
	est := r.timeoutFor(op.bytes)
	op.deadline = p.Now() + est + r.backoffExtra(est, op.attempts)
	if retrans {
		r.ChargeFault("rdma-reread", t0, p.Now()-t0)
	}
}

// readAttempt is one (re)issue of a checksummed RDMA read and the
// receiver of both of its legs (readAttemptRequest takes the control
// leg), so the attempt makes one object and no closure. It keeps what it
// reads from and when it was posted: a re-read may be in flight beside
// an earlier attempt.
type readAttempt struct {
	op     *readOp
	q      *Request
	src    *gpu.Buffer
	srcOff int64
	at     int64
}

// Handle is a clean arrival of the attempt's payload.
func (a *readAttempt) Handle() { a.Deliver(fabric.Delivery{}) }

// Deliver lands the payload after its checksum, discarding a corrupted
// or duplicated one: the deadline scan re-reads it.
func (a *readAttempt) Deliver(d fabric.Delivery) {
	op, q := a.op, a.q
	if op.done || d.Dup || q.settled() {
		return
	}
	if d.Corrupt {
		// CRC reject: discard, re-read on timeout. An undetected
		// corruption is impossible (one-byte FNV flip always changes
		// the sum), so surviving the check is a simulator bug.
		if corruptionUndetected(a.src, a.srcOff+op.off, op.bytes) {
			panic("mpi: rdma-read corruption not detected by checksum")
		}
		return
	}
	gpu.CopyRange(q.packed, op.off, a.src, a.srcOff+op.off, op.bytes)
	op.done = true
	q.land(op.bytes)
	if r := q.rank; r.tl != nil {
		r.tl.Span(timeline.LayerMPI, timeline.CostNone, "net", "rdma-read", a.at, r.world.Env.Now()-a.at,
			timeline.Arg{Key: "peer", Val: strconv.Itoa(int(q.matched.from))},
			timeline.Arg{Key: "bytes", Val: strconv.FormatInt(op.bytes, 10)})
	}
}

// readAttemptRequest is a read attempt as the receiver of its control leg
// at the sender's node, which answers with the payload.
type readAttemptRequest readAttempt

func (c *readAttemptRequest) Handle() {
	a := (*readAttempt)(c)
	r := a.q.rank
	r.world.Cluster.Net.RDMAReadReply(r.world.ranks[a.q.matched.from].node, r.node, a.op.bytes, a)
}

// Deliver drops a corrupted or duplicated control request, as the HCA
// does.
func (c *readAttemptRequest) Deliver(d fabric.Delivery) {
	if !d.Corrupt && !d.Dup {
		c.Handle()
	}
}

// scanReads re-issues expired RDMA reads and fails q when one exhausts its
// retries.
func (r *Rank) scanReads(p *sim.Proc, q *Request) {
	if q.rel == nil {
		return
	}
	for _, op := range q.rel.reads {
		if op.done || p.Now() < op.deadline {
			continue
		}
		op.attempts++
		r.fsite.Record(fault.Timeout, "rdma-read")
		if op.attempts > r.world.maxRetries {
			r.fsite.Record(fault.GiveUp, "rdma-read")
			r.fail(p, q, "rdma-read", op.attempts, ErrRetriesExhausted)
			return
		}
		r.fsite.Record(fault.Retransmit, "rdma-read")
		r.issueRead(p, q, op, true)
		if q.settled() {
			return // postRetry exhausted inside issueRead
		}
	}
}

// issueWrite posts one (re)issue of q's RPUT RDMA write. The receiver
// verifies the checksum before accepting; a corrupted or dropped write
// leaves finHere unset and the deadline scan rewrites.
func (r *Rank) issueWrite(p *sim.Proc, q *Request, retrans bool) {
	t0 := p.Now()
	rs := q.reliability()
	if err := r.postRetry(p); err != nil {
		r.fail(p, q, "rdma-write-post", rs.writeAttempts+1, err)
		return
	}
	recvReq := q.peerRecv
	net := r.world.Cluster.Net
	peerNode := r.world.ranks[q.peer].node
	sb, so := q.srcBuf()
	net.Send(r.node, peerNode, q.bytes, fabric.ReceiverFunc(func(d fabric.Delivery) {
		if q.finHere || d.Dup || q.settled() {
			return
		}
		if d.Corrupt {
			// Receiver-side CRC reject: sender rewrites on timeout.
			if corruptionUndetected(sb, so, q.bytes) {
				panic("mpi: rdma-write corruption not detected by checksum")
			}
			return
		}
		if recvReq != nil {
			gpu.CopyRange(recvReq.packed, 0, sb, so, q.bytes)
			recvReq.dataHere = true
		}
		q.finHere = true // local write completion
		if r.tl != nil {
			r.tl.Span(timeline.LayerMPI, timeline.CostNone, "net", "rdma-write", t0, r.world.Env.Now()-t0,
				timeline.Arg{Key: "peer", Val: strconv.Itoa(q.peer)},
				timeline.Arg{Key: "bytes", Val: strconv.FormatInt(q.bytes, 10)})
		}
	}))
	est := r.timeoutFor(q.bytes)
	rs.writeDeadline = p.Now() + est + r.backoffExtra(est, rs.writeAttempts)
	if retrans {
		r.ChargeFault("rdma-rewrite", t0, p.Now()-t0)
	}
}

// scanWrite rewrites an expired RPUT and fails q when retries exhaust.
func (r *Rank) scanWrite(p *sim.Proc, q *Request) {
	rs := q.reliability()
	if p.Now() < rs.writeDeadline {
		return
	}
	rs.writeAttempts++
	r.fsite.Record(fault.Timeout, "rdma-write")
	if rs.writeAttempts > r.world.maxRetries {
		r.fsite.Record(fault.GiveUp, "rdma-write")
		r.fail(p, q, "rdma-write", rs.writeAttempts, ErrRetriesExhausted)
		return
	}
	r.fsite.Record(fault.Retransmit, "rdma-write")
	r.issueWrite(p, q, true)
}

// --- world-level fault/robustness accessors ---

// Injector returns the world's fault injector (nil when Config.Faults is
// nil).
func (w *World) Injector() *fault.Injector { return w.inj }

// FaultEvents returns the injected-fault/recovery log in event order (nil
// without a fault plan).
func (w *World) FaultEvents() []fault.Event { return w.inj.Events() }

// LeakedRequests counts requests still registered as in-flight on any
// surviving rank. After a clean run — even a chaotic one — it is zero; the
// chaos suite asserts this. Crashed ranks are excluded: a killed proc
// abandons its requests mid-protocol by design, exactly as a dead MPI
// process abandons its queue pairs.
func (w *World) LeakedRequests() int {
	n := 0
	for _, r := range w.ranks {
		if w.isCrashed(r.id) {
			continue
		}
		n += len(r.active)
	}
	return n
}

// LiveStagingBytes sums the staging bytes lent out on the surviving ranks'
// devices: zero once every request and collective has given its staging
// back. Crashed ranks are excluded, as in LeakedRequests.
func (w *World) LiveStagingBytes() int64 {
	var n int64
	for _, r := range w.ranks {
		if !w.isCrashed(r.id) {
			n += r.Dev.LiveBytes()
		}
	}
	return n
}
