// ULFM-style rank-failure tolerance for the MPI runtime, modeled on MPI's
// User-Level Failure Mitigation proposal (MPI_Comm_revoke / _shrink /
// _agree, MPICH and Open MPI's ULFM implementations):
//
//   - Planned crashes (fault.Plan.Proc.Crashes) kill a rank's proc at a
//     deterministic virtual time; the dead rank goes silent (no acks, no
//     progress), exactly like a node loss under InfiniBand RC.
//   - A heartbeat failure detector — driven purely by the virtual clock and
//     piggybacked on the progress engine (every progress call refreshes the
//     caller's heartbeat; a scheduler-side tick refreshes idle-but-live
//     ranks and checks for silence) — converts silence beyond
//     Heartbeat.TimeoutNs into a typed *RankFailedError on every pending
//     operation that involves the dead rank.
//   - Comm is the communicator object: Revoke floods an in-band revocation
//     (gossip with receiver-side dedup) so pending Wait/Waitall on the comm
//     fail fast with ErrCommRevoked; Shrink is a rendezvous of the live
//     members that returns a dense re-ranked survivor communicator; Agree
//     is a fault-tolerant agreement (bitwise AND over live contributions,
//     MPIX_Comm_agree-style) that still reports a member death.
//
// Everything here is gated behind ftOn (a crash plan or an explicit
// heartbeat config): fault-free runs and crash-free chaos runs execute
// byte-identically to a build without this file.
package mpi

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// HeartbeatConfig tunes the rank-failure detector. Zero values select the
// defaults when a crash plan activates the detector; setting TimeoutNs > 0
// activates it explicitly even without planned crashes.
type HeartbeatConfig struct {
	// IntervalNs is the detector tick period (default 25 µs).
	IntervalNs int64
	// TimeoutNs is how long a rank may stay silent before it is declared
	// failed (default 150 µs). Must stay well under StallTimeoutNs so
	// detection beats the watchdog.
	TimeoutNs int64
}

func (h HeartbeatConfig) normalized() HeartbeatConfig {
	if h.IntervalNs <= 0 {
		h.IntervalNs = 25_000
	}
	if h.TimeoutNs <= 0 {
		h.TimeoutNs = 150_000
	}
	return h
}

// Typed failure-tolerance sentinels.
var (
	// ErrRankFailed: a peer rank was declared dead by the failure detector.
	ErrRankFailed = errors.New("mpi: rank failed")
	// ErrCommRevoked: the communicator was revoked (ULFM MPI_ERR_REVOKED).
	ErrCommRevoked = errors.New("mpi: communicator revoked")
)

// RankFailedError is the typed error attached to every operation that
// involved a rank the failure detector declared dead. It unwraps to
// ErrRankFailed; operations surface it wrapped in *OpError.
type RankFailedError struct {
	Rank       int   // the dead rank
	DetectedAt int64 // virtual time of detection
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed (detected at %dns)", e.Rank, e.DetectedAt)
}

func (e *RankFailedError) Unwrap() error { return ErrRankFailed }

// Modeled CPU costs of the recovery operations (virtual ns). They are
// charged to trace.Recovery and mirrored as failure-layer timeline spans.
const (
	revokePerMemberNs = 200
	shrinkBaseNs      = 1500
	shrinkPerLiveNs   = 400
	agreeBaseNs       = 800
	agreePerLiveNs    = 250
)

// ChargeFailure accrues a recovery cost (revoke flood, shrink consensus,
// agreement) to trace.Recovery and mirrors it as a failure-layer timeline
// span, keeping timeline per-category sums reconciled with the Breakdown.
func (r *Rank) ChargeFailure(name string, start, d int64) {
	if d <= 0 {
		return
	}
	r.Trace.Add(trace.Recovery, d)
	if r.tl != nil {
		r.tl.Span(timeline.LayerFailure, trace.Recovery, "", name, start, d)
	}
}

// initFT wires the failure-tolerance state when a crash plan or heartbeat
// config asks for it. Called from NewWorld after ranks exist.
func (w *World) initFT() {
	if w.inj == nil {
		// No injector means no crash plan can exist; a heartbeat detector
		// with nothing to detect would only perturb the event heap.
		return
	}
	plan := w.inj.Plan()
	if !plan.HasCrashes() && w.Cfg.Heartbeat.TimeoutNs <= 0 {
		return
	}
	w.ftOn = true
	w.hb = w.Cfg.Heartbeat.normalized()
	n := len(w.ranks)
	w.crashed = make([]bool, n)
	w.rankFailed = make([]bool, n)
	w.failedAt = make([]int64, n)
	w.hbLast = make([]int64, n)
	w.psite = w.inj.Site("proc")
	w.dsite = w.inj.Site("detector")
	w.usite = w.inj.Site("ulfm")
	for _, cr := range plan.Proc.Crashes {
		if cr.Rank < n && cr.AtNs > w.maxCrashAt {
			w.maxCrashAt = cr.AtNs
		}
	}
}

// scheduleCrashes arms the planned rank deaths and the detector tick.
// Called from World.Run, once the procs are being spawned.
func (w *World) scheduleCrashes() {
	if !w.ftOn {
		return
	}
	for _, cr := range w.inj.Plan().Proc.Crashes {
		if cr.Rank >= len(w.ranks) {
			continue // plan written for a larger world
		}
		cr := cr
		w.Env.At(cr.AtNs, func() { w.crash(cr.Rank) })
	}
	w.Env.After(w.hb.IntervalNs, w.hbTick)
}

// crash kills rank i at the current virtual time (scheduler context). A rank
// whose proc already finished cannot crash — the process exited first.
func (w *World) crash(i int) {
	r := w.ranks[i]
	if w.crashed[i] || r.proc == nil || r.proc.Finished() {
		return
	}
	w.crashed[i] = true
	w.psite.Recordf(fault.RankCrash, "rank%d killed", i)
	r.proc.Kill()
}

// isCrashed reports whether rank i's process is dead (ground truth; the
// detector's declared view is rankFailed).
func (w *World) isCrashed(i int) bool {
	return w.ftOn && w.crashed[i]
}

// IsCrashed is the exported ground-truth liveness probe for rank i.
func (w *World) IsCrashed(i int) bool { return w.isCrashed(i) }

// heartbeat refreshes rank r's liveness stamp; piggybacked on every
// progress-engine call.
func (w *World) heartbeat(r *Rank) {
	if w.ftOn && !w.crashed[r.id] {
		w.hbLast[r.id] = w.Env.Now()
	}
}

// hbTick is the recurring detector tick (scheduler context). Live ranks'
// stamps are refreshed (the per-node heartbeat thread a real ULFM detector
// runs); crashed ranks' stamps freeze, and once their silence exceeds the
// timeout they are declared failed. The tick stops re-arming when nothing
// is left to detect, so the event heap can drain.
func (w *World) hbTick() {
	if w.allProcsFinished() {
		return
	}
	now := w.Env.Now()
	for i := range w.ranks {
		if !w.crashed[i] {
			w.hbLast[i] = now
			continue
		}
		if !w.rankFailed[i] && now-w.hbLast[i] >= w.hb.TimeoutNs {
			w.declareFailed(i)
		}
	}
	if w.pendingDetections() || now <= w.maxCrashAt+w.hb.TimeoutNs {
		w.Env.After(w.hb.IntervalNs, w.hbTick)
	}
}

func (w *World) allProcsFinished() bool {
	for _, r := range w.ranks {
		if r.proc == nil || !r.proc.Finished() {
			return false
		}
	}
	return true
}

func (w *World) pendingDetections() bool {
	for i := range w.ranks {
		if w.crashed[i] && !w.rankFailed[i] {
			return true
		}
	}
	return false
}

// declareFailed converts rank f's silence into typed errors (scheduler
// context): every live rank's pending operation involving f — including
// wildcard receives, which can no longer be satisfied safely — fails with a
// *RankFailedError, and any rendezvous (barrier, shrink, agree) blocked on
// f is re-evaluated.
func (w *World) declareFailed(f int) {
	if w.rankFailed[f] {
		return
	}
	w.rankFailed[f] = true
	now := w.Env.Now()
	w.failedAt[f] = now
	w.dsite.Recordf(fault.Detect, "rank%d silent %dns", f, now-w.hbLast[f])
	ferr := &RankFailedError{Rank: f, DetectedAt: now}
	for _, lr := range w.ranks {
		if w.crashed[lr.id] {
			continue
		}
		snapshot := append([]*Request(nil), lr.active...)
		for _, q := range snapshot {
			if q.settled() {
				continue
			}
			if q.peer == f || (!q.isSend && q.peer == AnySource) {
				lr.dropPosted(q)
				lr.fail(nil, q, "rank-failed", 0, ferr)
			}
		}
	}
	w.recheckBarrier()
	for _, c := range w.comms {
		c.maybeFinishShrink()
		c.maybeFinishAgree()
	}
	for _, fn := range w.onRankFailed {
		fn(f)
	}
}

// OnRankFailed registers an observer invoked (scheduler context) each time
// the detector declares a rank dead, after the runtime's own pending
// operations have been failed. The one-sided fabric uses it to reap
// in-flight deposits targeting the dead rank.
func (w *World) OnRankFailed(fn func(dead int)) {
	w.onRankFailed = append(w.onRankFailed, fn)
}

// OnCommRevoked registers an observer invoked exactly once per
// communicator, when the first rank's view of it becomes revoked (whether
// by an explicit Revoke, the self-healing auto-revocation, or an in-band
// flood arrival). The one-sided fabric uses it to invalidate the windows
// of the matching epoch, so waiters observing the fabric unblock with
// ErrCommRevoked instead of stalling out the watchdog.
func (w *World) OnCommRevoked(fn func(c *Comm)) {
	w.onCommRevoked = append(w.onCommRevoked, fn)
}

// FailedAt returns the virtual time at which rank i was declared dead, or
// -1 when it has not been declared.
func (w *World) FailedAt(i int) int64 {
	if !w.ftOn || i < 0 || i >= len(w.rankFailed) || !w.rankFailed[i] {
		return -1
	}
	return w.failedAt[i]
}

// dropPosted removes q from the posted-receive queue (it is about to fail,
// and a failed request must never match a late arrival).
func (r *Rank) dropPosted(q *Request) {
	for i, pq := range r.posted {
		if pq == q {
			r.posted = append(r.posted[:i], r.posted[i+1:]...)
			return
		}
	}
}

// failedPeerRequest builds an already-failed request for a post that targets
// a declared-dead peer or a revoked communicator: it never enters the active
// list, settles immediately, and surfaces its typed error from Wait/Waitall.
func (r *Rank) failedPeerRequest(isSend bool, peer, tag int, phase string, err error) *Request {
	q := &Request{
		rank: r, isSend: isSend, peer: peer, tag: tag,
		state: stFailed,
		err: &OpError{
			Rank: r.id, Peer: peer, Tag: tag, IsSend: isSend,
			Phase: phase, Err: err,
		},
		DoneAt:  r.world.Env.Now(),
		emitted: true,
		errSent: true,
	}
	return q
}

// postGuard returns a pre-failed request when ft is on and peer is declared
// dead; nil means the post may proceed.
func (r *Rank) postGuard(isSend bool, peer, tag int) *Request {
	if !r.world.ftOn || peer < 0 || !r.world.rankFailed[peer] {
		return nil
	}
	return r.failedPeerRequest(isSend, peer, tag, "post",
		&RankFailedError{Rank: peer, DetectedAt: r.world.failedAt[peer]})
}

// --- communicators ---

// Comm is a communicator: an ordered set of world ranks with ULFM-style
// revoke/shrink/agree. The world communicator contains every rank at epoch
// 0; Shrink builds dense re-ranked survivor communicators with fresh epochs
// (the collective engine folds the epoch into its tags, so traffic from a
// failed collective can never match a post-shrink retry).
//
// Comm is a shared SPMD object, like the simulation's other cross-rank
// state: revocation is still propagated in-band (a gossip flood of
// revokeFrames), and each rank acts only on its own local view (revokedAt).
type Comm struct {
	w     *World
	epoch int
	ranks []int // comm rank -> world rank
	index []int // world rank -> comm rank (-1 non-member)

	revokedAt []bool        // per world rank: local view of revocation
	frames    []revokeFrame // per comm rank: flood receivers, made on first flood
	notified  bool          // world-level OnCommRevoked observers fired
	shr       *shrinkState
	agr       *agreeState
	agreeSeq  int
}

// WorldComm returns the communicator containing every rank (epoch 0).
func (w *World) WorldComm() *Comm {
	if w.worldComm == nil {
		w.worldComm = w.newComm(identityRanks(len(w.ranks)))
	}
	return w.worldComm
}

func identityRanks(n int) []int {
	rk := make([]int, n)
	for i := range rk {
		rk[i] = i
	}
	return rk
}

// newComm builds a communicator over the given world ranks at the next
// epoch and registers it for detector rechecks.
func (w *World) newComm(ranks []int) *Comm {
	c := &Comm{
		w:         w,
		epoch:     w.epochSeq,
		ranks:     ranks,
		index:     make([]int, len(w.ranks)),
		revokedAt: make([]bool, len(w.ranks)),
	}
	w.epochSeq++
	for i := range c.index {
		c.index[i] = -1
	}
	for cr, wr := range ranks {
		c.index[wr] = cr
	}
	w.comms = append(w.comms, c)
	return c
}

// Size reports the number of members.
func (c *Comm) Size() int { return len(c.ranks) }

// Epoch reports the communicator's epoch (world = 0; each Shrink result
// gets a fresh one).
func (c *Comm) Epoch() int { return c.epoch }

// WorldRank translates a comm rank to its world rank.
func (c *Comm) WorldRank(cr int) int { return c.ranks[cr] }

// CommRank translates a world rank to its comm rank (-1 if not a member).
func (c *Comm) CommRank(wr int) int {
	if wr < 0 || wr >= len(c.index) {
		return -1
	}
	return c.index[wr]
}

// Contains reports whether world rank wr is a member.
func (c *Comm) Contains(wr int) bool { return c.CommRank(wr) >= 0 }

// Ranks returns the member world ranks in comm-rank order (a copy).
func (c *Comm) Ranks() []int { return append([]int(nil), c.ranks...) }

// Revoked reports rank r's local view of the communicator's revocation.
func (c *Comm) Revoked(r *Rank) bool { return c.revokedAt[r.id] }

// IsWorld reports whether this is the (unshrunk) world communicator.
func (c *Comm) IsWorld() bool { return c.epoch == 0 }

// FailedRequest builds a pre-failed request surfacing ErrCommRevoked — the
// fail-fast path for posts on a locally-revoked communicator.
func (c *Comm) FailedRequest(r *Rank, isSend bool, peer, tag int) *Request {
	return r.failedPeerRequest(isSend, peer, tag, "revoked", ErrCommRevoked)
}

// Bind stamps q as belonging to this communicator, so a revocation fails it
// in place. Pre-settled requests are left alone. Binding to an already
// locally-revoked comm fails the request immediately — raw posts issued by
// collective internals after a revocation arrived must not re-enter a dead
// epoch and wedge.
func (c *Comm) Bind(q *Request) {
	if q == nil {
		return
	}
	if q.settled() {
		// A post that came back pre-failed (fail-fast guard against a
		// declared-dead peer) is a failure observation too: trigger the
		// self-healing revocation just like an in-flight failure would.
		if q.err != nil {
			c.maybeAutoRevoke(q.rank, q.err)
		}
		return
	}
	if !c.w.ftOn {
		return // no revocation can happen: leave q without reliability state
	}
	q.reliability().comm = c
	if c.revokedAt[q.rank.id] {
		q.rank.dropPosted(q)
		q.errSent = true
		q.rank.fail(nil, q, "revoked", 0, ErrCommRevoked)
	}
}

// Revoke marks the communicator revoked at rank r and floods the revocation
// in-band to every other member (gossip; receivers re-flood once, so a
// single lost frame cannot partition the view). Every pending operation
// bound to the comm fails with ErrCommRevoked; a revoked comm still supports
// Shrink and Agree, which is how survivors recover. p may be nil when the
// revocation originates in scheduler context (the failure detector); the
// NIC-level flood still goes out, only the local CPU cost goes uncharged.
func (c *Comm) Revoke(p *sim.Proc, r *Rank) {
	if !c.w.ftOn {
		return
	}
	if c.revokedAt[r.id] {
		return
	}
	t0 := c.w.Env.Now()
	c.w.usite.Recordf(fault.Revoke, "epoch%d by rank%d", c.epoch, r.id)
	c.markRevoked(r)
	c.flood(r)
	cost := int64(revokePerMemberNs * (len(c.ranks) - 1))
	if cost > 0 && p != nil {
		p.Sleep(cost)
		r.ChargeFailure("revoke", t0, cost)
	}
}

// maybeAutoRevoke is the self-healing trigger: the first comm-bound
// operation at this rank to fail because a member died revokes the
// communicator immediately. Waiting for the collective's final Waitall
// would be too late — that Waitall itself can be blocked on legs to live
// peers who are in turn blocked on the dead rank, so the revocation must
// fire at the moment of observation to restore liveness. Requests not
// bound to a communicator (plain point-to-point) keep exact ULFM
// semantics: a failure notification, no automatic revocation.
func (c *Comm) maybeAutoRevoke(r *Rank, err error) {
	var rf *RankFailedError
	if errors.As(err, &rf) && !c.revokedAt[r.id] {
		c.Revoke(nil, r)
	}
}

// markRevoked applies the revocation at rank r's view: every unsettled
// request bound to the comm fails in place with ErrCommRevoked. The peers
// fail their own halves via the flood, so no cross-notification is sent
// (errSent suppresses notifyPeer).
func (c *Comm) markRevoked(r *Rank) {
	c.revokedAt[r.id] = true
	if !c.notified {
		c.notified = true
		for _, fn := range c.w.onCommRevoked {
			fn(c)
		}
	}
	snapshot := append([]*Request(nil), r.active...)
	for _, q := range snapshot {
		if q.settled() || q.boundComm() != c {
			continue
		}
		r.dropPosted(q)
		q.errSent = true
		r.fail(nil, q, "revoked", 0, ErrCommRevoked)
	}
}

// flood sends an untracked revocation frame to every other member (from
// rank r). Like mkErr, revocations are NIC-firmware-level: no CPU post
// cost, lost or corrupted frames are recovered by the gossip re-flood.
func (c *Comm) flood(r *Rank) {
	w := c.w
	if c.frames == nil {
		c.frames = make([]revokeFrame, len(c.ranks))
		for cr, wr := range c.ranks {
			c.frames[cr] = revokeFrame{c: c, dst: w.ranks[wr]}
		}
	}
	net := w.Cluster.Net
	for cr, wr := range c.ranks {
		if wr == r.id || w.crashed[wr] {
			continue
		}
		net.Send(r.node, w.ranks[wr].node, net.Spec.CtrlBytes, &c.frames[cr])
	}
}

// revokeFrame receives a communicator's revocation at one member. It
// carries nothing per sender, so one frame serves every arrival there.
type revokeFrame struct {
	c   *Comm
	dst *Rank
}

// Handle is a clean arrival of the revocation.
func (f *revokeFrame) Handle() { f.Deliver(fabric.Delivery{}) }

// Deliver applies the revocation at its member: a dead member is silent,
// and under the reliability layer a corrupted or duplicated frame is
// dropped. Applying it twice is harmless (revokeArrived is idempotent).
func (f *revokeFrame) Deliver(d fabric.Delivery) {
	r := f.dst
	if r.world.isCrashed(r.id) || (r.reliable() && (d.Corrupt || d.Dup)) {
		return
	}
	f.c.revokeArrived(r)
}

// revokeArrived handles an in-band revocation at rank r (scheduler
// context): first receipt applies it locally and re-floods once.
func (c *Comm) revokeArrived(r *Rank) {
	if c.revokedAt[r.id] {
		return
	}
	c.markRevoked(r)
	c.flood(r)
}

// --- Shrink ---

// shrinkState is the rendezvous of one Shrink call over a comm.
type shrinkState struct {
	ev      *sim.Event
	arrived []bool // world-indexed
	result  *Comm
}

// Shrink is the ULFM MPI_Comm_shrink analogue: a rendezvous of the live
// members that returns a dense re-ranked communicator of the survivors at a
// fresh epoch. Members that die mid-rendezvous are excluded when the
// detector declares them (the rendezvous is re-evaluated on detection), so
// Shrink completes within the heartbeat bound. Calling Shrink again after
// it completed returns the same communicator.
func (c *Comm) Shrink(p *sim.Proc, r *Rank) (*Comm, error) {
	w := c.w
	if !w.ftOn {
		return nil, errors.New("mpi: Shrink requires failure tolerance (crash plan or heartbeat config)")
	}
	if !c.Contains(r.id) {
		return nil, fmt.Errorf("mpi: rank %d is not a member of the communicator", r.id)
	}
	t0 := p.Now()
	if c.shr == nil {
		c.shr = &shrinkState{
			ev:      w.Env.NewEvent(fmt.Sprintf("shrink-epoch%d", c.epoch)),
			arrived: make([]bool, len(w.ranks)),
		}
	}
	st := c.shr
	if !st.ev.Fired() {
		cost := shrinkBaseNs + int64(shrinkPerLiveNs*c.liveMembers())
		p.Sleep(cost)
		r.ChargeFailure("shrink", t0, cost)
		st.arrived[r.id] = true
		c.maybeFinishShrink()
		if !st.ev.Fired() {
			p.Wait(st.ev)
		}
	}
	return st.result, nil
}

func (c *Comm) liveMembers() int {
	n := 0
	for _, wr := range c.ranks {
		if !c.w.crashed[wr] {
			n++
		}
	}
	return n
}

// maybeFinishShrink completes the rendezvous once every live member has
// arrived. Called from Shrink (proc context) and from the failure detector
// (scheduler context) when a member dies mid-rendezvous.
func (c *Comm) maybeFinishShrink() {
	st := c.shr
	if st == nil || st.ev.Fired() {
		return
	}
	var survivors []int
	for _, wr := range c.ranks {
		if c.w.crashed[wr] {
			continue
		}
		if !st.arrived[wr] {
			return
		}
		survivors = append(survivors, wr)
	}
	if len(survivors) == 0 {
		return
	}
	st.result = c.w.newComm(survivors)
	c.w.usite.Recordf(fault.Shrink, "epoch%d -> epoch%d (%d of %d ranks)",
		c.epoch, st.result.epoch, len(survivors), len(c.ranks))
	st.ev.Fire()
}

// --- Agree ---

// agreeState is one agreement round over a comm.
type agreeState struct {
	ev      *sim.Event
	arrived []bool
	flags   uint64
	result  uint64
	err     error
}

// Agree is the MPIX_Comm_agree analogue: a fault-tolerant agreement that
// returns the bitwise AND of the live members' flags. If any member of the
// communicator is dead when the agreement completes, the agreed flag is
// still returned together with a *RankFailedError — exactly ULFM's
// contract (the flag is consistent among survivors; the error tells them a
// failure happened). Each completed round resets the state, so Agree may be
// called repeatedly.
func (c *Comm) Agree(p *sim.Proc, r *Rank, flag uint64) (uint64, error) {
	w := c.w
	if !w.ftOn {
		return 0, errors.New("mpi: Agree requires failure tolerance (crash plan or heartbeat config)")
	}
	if !c.Contains(r.id) {
		return 0, fmt.Errorf("mpi: rank %d is not a member of the communicator", r.id)
	}
	t0 := p.Now()
	if c.agr == nil {
		c.agr = &agreeState{
			ev:      w.Env.NewEvent(fmt.Sprintf("agree-epoch%d-%d", c.epoch, c.agreeSeq)),
			arrived: make([]bool, len(w.ranks)),
			flags:   ^uint64(0),
		}
		c.agreeSeq++
	}
	st := c.agr
	cost := agreeBaseNs + int64(agreePerLiveNs*c.liveMembers())
	p.Sleep(cost)
	r.ChargeFailure("agree", t0, cost)
	st.arrived[r.id] = true
	st.flags &= flag
	c.maybeFinishAgree()
	if !st.ev.Fired() {
		p.Wait(st.ev)
	}
	return st.result, st.err
}

// maybeFinishAgree completes the round once every live member contributed.
func (c *Comm) maybeFinishAgree() {
	st := c.agr
	if st == nil || st.ev.Fired() {
		return
	}
	anyDead := false
	for _, wr := range c.ranks {
		if c.w.crashed[wr] {
			anyDead = true
			continue
		}
		if !st.arrived[wr] {
			return
		}
	}
	st.result = st.flags
	if anyDead {
		for _, wr := range c.ranks {
			if c.w.crashed[wr] {
				st.err = &RankFailedError{Rank: wr, DetectedAt: c.w.Env.Now()}
				break
			}
		}
	}
	c.w.usite.Recordf(fault.Agree, "epoch%d flag=%#x dead=%v", c.epoch, st.result, anyDead)
	c.agr = nil // next Agree starts a fresh round; waiters hold st
	st.ev.Fire()
}

// rankOfProc resolves the rank running on proc p (the barrier API predates
// failure tolerance and carries no rank identity).
func (w *World) rankOfProc(p *sim.Proc) int {
	for _, r := range w.ranks {
		if r.proc == p {
			return r.id
		}
	}
	panic("mpi: Barrier called from a proc that is not a rank")
}

// ftBarrier is the failure-aware barrier: per-rank arrival flags, completed
// when every live rank has arrived (either here or when the detector
// declares the missing rank dead).
func (w *World) ftBarrier(p *sim.Proc) {
	id := w.rankOfProc(p)
	if w.barrierArrived == nil {
		w.barrierArrived = make([]bool, len(w.ranks))
	}
	if w.barrierEv == nil {
		w.barrierEv = w.Env.NewEvent("barrier")
	}
	w.barrierArrived[id] = true
	if w.barrierSatisfied() {
		w.fireBarrier()
		return
	}
	ev := w.barrierEv
	p.Wait(ev)
}

// recheckBarrier re-evaluates a pending barrier after a failure declaration:
// if every live rank already arrived, the barrier completes among survivors.
func (w *World) recheckBarrier() {
	if w.barrierEv == nil {
		return
	}
	if w.barrierSatisfied() {
		w.fireBarrier()
	}
}

// barrierSatisfied reports whether every live rank has arrived (ft mode).
func (w *World) barrierSatisfied() bool {
	any := false
	for i := range w.ranks {
		if w.crashed[i] {
			continue
		}
		if !w.barrierArrived[i] {
			return false
		}
		any = true
	}
	return any
}

func (w *World) fireBarrier() {
	ev := w.barrierEv
	w.barrierEv = nil
	for i := range w.barrierArrived {
		w.barrierArrived[i] = false
	}
	ev.Fire()
}

// --- world-level accessors ---

// FTEnabled reports whether rank-failure tolerance is active.
func (w *World) FTEnabled() bool { return w.ftOn }

// RankFailed reports whether rank i was declared dead by the detector.
func (w *World) RankFailed(i int) bool {
	return w.ftOn && i >= 0 && i < len(w.rankFailed) && w.rankFailed[i]
}

// FailedRanks lists the ranks declared dead, sorted.
func (w *World) FailedRanks() []int {
	var out []int
	if !w.ftOn {
		return out
	}
	for i, f := range w.rankFailed {
		if f {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// CrashedRanks lists the ranks whose procs were killed (ground truth;
// a superset of FailedRanks until detection catches up), sorted.
func (w *World) CrashedRanks() []int {
	var out []int
	if !w.ftOn {
		return out
	}
	for i, c := range w.crashed {
		if c {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// Survivors lists the ranks that were never crashed, sorted.
func (w *World) Survivors() []int {
	out := make([]int, 0, len(w.ranks))
	for i := range w.ranks {
		if !w.isCrashed(i) {
			out = append(out, i)
		}
	}
	return out
}

// fusedPending is implemented by schemes whose scheduler can hold fused
// jobs back (the fusion scheme); PendingFusedJobs uses it for leak checks.
type fusedPending interface{ PendingFused() int }

// PendingFusedJobs counts fused pack/unpack jobs still queued (neither
// launched nor dropped) across the surviving ranks' schemes. Zero after any
// run that tears its fusion windows down properly — the error-path leak
// oracle of the conformance suite.
func (w *World) PendingFusedJobs() int {
	n := 0
	for _, r := range w.ranks {
		if w.isCrashed(r.id) {
			continue
		}
		if fp, ok := r.scheme.(fusedPending); ok {
			n += fp.PendingFused()
		}
	}
	return n
}
