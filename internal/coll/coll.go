// Package coll is the topology-aware collective-communication subsystem,
// layered on the point-to-point/rendezvous engine of internal/mpi. It
// provides DDT-aware Alltoallw, Allgatherv, Gatherv/Scatterv and
// NeighborAlltoallw, each with pluggable algorithms (linear post-all,
// pairwise exchange, ring, Bruck-style dissemination for small messages,
// recursive doubling) plus hierarchical two-level variants that aggregate
// on a node leader over NVLink before crossing the inter-node IB link,
// and a binomial-tree Bcast and recursive-doubling AllreduceSumF64.
//
// The headline mechanism is collective-scope kernel fusion: a schedule
// pass walks every leg of the collective and brackets each communication
// phase with a fusion window (fusion.Scheduler.OpenWindow/CloseWindow via
// the scheme's OpenBatch/CloseBatch hooks), so every outgoing peer's pack
// blocks launch as ONE fused kernel per phase, and every incoming peer's
// unpack/DirectIPC blocks launch as ONE fused kernel per phase — the
// paper's Algorithm 3 batching window extended from per-message to
// per-collective granularity. Schemes without the batch hooks (GPU-Sync,
// NaiveMemcpy, ...) run the same schedules with per-message launches.
//
// Every collective is SPMD: all ranks must call the same collectives in
// the same order with signature-matching arguments. Displacements are in
// bytes. Tags are drawn from the reserved range above mpi.CollTagBase and
// sequence-stamped per call, so back-to-back collectives never cross-match.
package coll

import (
	"errors"
	"fmt"

	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/rma"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// Algorithm selects how a collective is scheduled.
type Algorithm int

const (
	// Auto picks per call from message size and cluster topology.
	Auto Algorithm = iota
	// Linear posts every leg at once in one fused phase.
	Linear
	// Pairwise exchanges with one peer per step (alltoallw).
	Pairwise
	// Ring circulates blocks neighbor-to-neighbor (allgatherv).
	Ring
	// Bruck runs log-round dissemination, the small-message winner
	// (allgatherv).
	Bruck
	// RecursiveDoubling exchanges doubling block sets; power-of-two
	// worlds only (allgatherv).
	RecursiveDoubling
	// Hierarchical aggregates on a node leader over NVLink, crosses IB
	// once per node pair, then scatters locally.
	Hierarchical
	// OneSidedRing runs the ring schedule over one-sided puts into a
	// symmetric window with slotted-signal sync — no rendezvous
	// round-trips, no target-side progress (allgatherv, alltoallw).
	OneSidedRing
	// OneSidedBruck runs log-round dissemination over one-sided puts
	// (allgatherv), or a power-of-two-phased direct-put schedule
	// (alltoallw).
	OneSidedBruck
)

var algorithmNames = [...]string{
	"auto", "linear", "pairwise", "ring", "bruck", "recursive-doubling", "hierarchical",
	"onesided-ring", "onesided-bruck",
}

func (a Algorithm) String() string {
	if int(a) < len(algorithmNames) {
		return algorithmNames[a]
	}
	return "alg?"
}

// ParseAlgorithm resolves a name from the CLI/tuning surface.
func ParseAlgorithm(s string) (Algorithm, error) {
	for i, n := range algorithmNames {
		if n == s {
			return Algorithm(i), nil
		}
	}
	return Auto, fmt.Errorf("coll: unknown algorithm %q (have %v)", s, algorithmNames)
}

// Tuning overrides the selection policy; the zero value means full Auto.
type Tuning struct {
	// Per-collective algorithm overrides (Auto = size/topology policy).
	Alltoallw  Algorithm
	Allgatherv Algorithm
	Gatherv    Algorithm
	Scatterv   Algorithm
	// DisableFusionWindow turns off collective-scope fusion windows;
	// every launch decision falls back to the scheme's per-message
	// policy (for ablations and the "unfused" benchmark baseline).
	DisableFusionWindow bool
}

// Auto-selection thresholds.
const (
	// smallMsgBytes is the per-leg payload at or below which log-round
	// algorithms (Bruck) and plain linear post-all win over bandwidth
	// algorithms.
	smallMsgBytes = 8 << 10
	// hierMinRanks gates the hierarchical variants: below this world
	// size the two-level overhead is not worth it.
	hierMinRanks = 8
)

// Schedule-pass CPU cost: walking the legs and building the fused phase
// plan. Charged to trace.Scheduling on the coll timeline layer.
const (
	schedBaseNs   = 400
	schedPerLegNs = 90
)

// tagSpace is where internal/coll's tags start inside the reserved range.
// The sub-range below it (CollTagBase..tagSpace) is unused; the value is
// pinned by the tags recorded in golden traces.
const tagSpace = mpi.CollTagBase + 4096

// Tag purposes within one collective call.
const (
	tagData   = 0 // flat algorithms' payload legs
	tagSizes  = 1 // hierarchical: per-peer size tables to the leader
	tagGather = 2 // hierarchical: local contribution -> leader bundle
	tagBundle = 3 // hierarchical: leader <-> leader node bundles
	tagSlice  = 4 // hierarchical: leader -> local forwarded slices
	tagDirect = 5 // hierarchical: same-node direct legs (and self legs)
)

// batchScheme is implemented by fusion-capable schemes
// (schemes.Fusion.OpenBatch/CloseBatch); discovered by assertion so the
// mpi.Scheme interface stays unchanged.
type batchScheme interface {
	OpenBatch()
	CloseBatch(p *sim.Proc)
}

// Engine is the per-world collective engine. One engine serves all ranks;
// per-rank state is indexed by world rank ID. All collectives are SPMD
// calls: every member rank calls the same sequence.
//
// An engine is bound to a communicator (the world communicator by
// default). Sub derives an engine over a shrunken survivor communicator:
// algorithms then run in comm-rank space (peers are translated at the post
// boundary), tags carry the communicator epoch so traffic from a failed
// pre-shrink collective can never match a post-shrink retry, and the
// hierarchical two-level variants — whose leader layout is a world-rank
// property — are never selected.
type Engine struct {
	w      *mpi.World
	comm   *mpi.Comm // nil = world communicator
	tuning Tuning
	ranks  []*rankState // by world rank ID, each built on first use (state)

	rmaF *rma.Fabric // lazily created; shared by UseRMA with the facade
	osID int         // window/signal namespace id within the fabric

	ids []int // 0..nodes*gpusPerNode-1; localRanks returns subslices

	// calls holds each world rank's call, made by its first begin and
	// shared with every Sub engine: a rank runs one collective at a time.
	calls []*call
}

type rankState struct {
	seq    int // collective-call sequence (tag derivation)
	contig map[[2]int64]*datatype.Layout
	a2a    *a2aState // persistent one-sided Alltoallw negotiation (onesided.go)
	hier   hierPlan  // the leader's hierarchical Alltoallw plan (alltoallw.go)
}

// New builds the engine for a world.
func New(w *mpi.World, t Tuning) *Engine {
	e := &Engine{w: w, tuning: t}
	e.ids = make([]int, e.nodes()*e.gpusPerNode())
	for i := range e.ids {
		e.ids[i] = i
	}
	e.calls = make([]*call, len(e.ids))
	return e
}

// state returns world rank id's per-rank state, building it the first
// time the rank uses the engine: a sub-engine a shrink derives for every
// survivor then costs nothing per world rank.
func (e *Engine) state(id int) *rankState {
	if id >= len(e.ranks) {
		e.ranks = append(e.ranks, make([]*rankState, id+1-len(e.ranks))...)
	}
	if e.ranks[id] == nil {
		e.ranks[id] = &rankState{
			contig: make(map[[2]int64]*datatype.Layout),
		}
	}
	return e.ranks[id]
}

// UseRMA points the engine at an existing one-sided fabric (the facade
// shares one fabric between user verbs and the put-based collectives).
// Without it, the first one-sided collective lazily builds a private
// fabric over the world.
func (e *Engine) UseRMA(f *rma.Fabric) {
	e.rmaF = f
	e.osID = f.NextCollID()
}

// rmaFabric returns the engine's one-sided fabric, building one on
// first use.
func (e *Engine) rmaFabric() *rma.Fabric {
	if e.rmaF == nil {
		e.UseRMA(rma.New(e.w))
	}
	return e.rmaF
}

// Sub derives an engine running over comm (typically a Shrink survivor
// communicator), inheriting the parent's tuning and one-sided fabric.
// Only members may call its collectives; ranks/roots/peer indices are
// comm ranks. The first one-sided collective on the sub-engine reseats
// the shared fabric onto comm (fresh epoch, rebuilt symmetric heap).
func (e *Engine) Sub(cm *mpi.Comm) *Engine {
	return &Engine{w: e.w, comm: cm, tuning: e.tuning, rmaF: e.rmaF, osID: e.osID, ids: e.ids, calls: e.calls}
}

// size is the number of collective participants (comm size).
func (e *Engine) size() int {
	if e.comm != nil {
		return e.comm.Size()
	}
	return e.w.Size()
}

// worldScope reports whether this engine runs over the full, unshrunk
// world — the only scope where the node-leader topology of the
// hierarchical algorithms is valid.
func (e *Engine) worldScope() bool {
	return e.comm == nil || e.comm.IsWorld()
}

// flatten downgrades topology-bound algorithm choices on a shrunken
// communicator: Hierarchical needs the world-rank node-leader layout, so
// sub-comm calls run Linear instead. The one-sided algorithms survive
// the downgrade since PR 10: the fabric reseats onto the survivor
// communicator and windows/signals address densely re-ranked members.
func (e *Engine) flatten(alg Algorithm) Algorithm {
	if alg == Hierarchical && !e.worldScope() {
		return Linear
	}
	return alg
}

// leg is one posted operation of a schedule phase.
type leg struct {
	peer  int
	tag   int
	buf   *gpu.Buffer
	l     *datatype.Layout
	count int
}

func (lg leg) empty() bool {
	return lg.count == 0 || lg.l.SizeBytes == 0
}

// call tracks one in-flight collective on one rank. Each rank has one,
// shared by an engine and its Sub engines (Engine.calls): a rank runs one
// collective at a time, so each begin after the first resets it in place
// and its lists keep their capacity from call to call, as hierPlan does.
type call struct {
	e       *Engine
	r       *mpi.Rank
	p       *sim.Proc
	st      *rankState
	cm      *mpi.Comm // never nil: world comm when the engine has none
	seq     int
	batch   batchScheme // nil when windows are off for this call
	winOpen int         // fusion windows currently open (see openWin)
	t0      int64
	bytes   int64 // payload posted (sends), for the wrapper span
	callLists
}

// callLists are a call's request, handle and staging lists: every posted
// request (all), the staging to give back in finish (lent), and the
// hierarchical and one-sided schedules' lists of one phase's receives and
// scheme handles, named by their legs. finish empties them, so no settled
// request stays reachable.
type callLists struct {
	all                                                          []*mpi.Request
	lent                                                         []*gpu.Buffer
	sizeRecvs, bundleRecvs, gatherRecvs, sliceRecvs, directRecvs []*mpi.Request
	packHs, unpackHs                                             []mpi.Handle
}

// reset empties every list, keeping its capacity.
func (l *callLists) reset() {
	empty(&l.all)
	empty(&l.lent)
	empty(&l.sizeRecvs)
	empty(&l.bundleRecvs)
	empty(&l.gatherRecvs)
	empty(&l.sliceRecvs)
	empty(&l.directRecvs)
	empty(&l.packHs)
	empty(&l.unpackHs)
}

// empty clears the list s points at and truncates it to length zero.
func empty[T any](s *[]T) {
	clear(*s)
	*s = (*s)[:0]
}

// rank is the calling rank's position in the collective's communicator.
func (c *call) rank() int { return c.cm.CommRank(c.r.ID()) }

// size is the number of participants.
func (c *call) size() int { return c.cm.Size() }

// begin runs the schedule pass: bump the call sequence, resolve the batch
// hook, and charge the plan-building cost.
func (e *Engine) begin(r *mpi.Rank, p *sim.Proc, legs int) *call {
	st := e.state(r.ID())
	st.seq++
	cm := e.comm
	if cm == nil {
		cm = e.w.WorldComm()
	}
	if cm.CommRank(r.ID()) < 0 {
		panic(fmt.Sprintf("coll: rank %d is not a member of the collective's communicator (epoch %d)", r.ID(), cm.Epoch()))
	}
	c := e.calls[r.ID()]
	if c == nil {
		c = &call{}
		e.calls[r.ID()] = c
	}
	c.reset() // a killed call may have left entries behind
	*c = call{e: e, r: r, p: p, st: st, cm: cm, seq: st.seq, t0: p.Now(), callLists: c.callLists}
	if !e.tuning.DisableFusionWindow && r.World().Cfg.PipelineChunkBytes == 0 {
		// Pipelined rendezvous enqueues chunk packs across many progress
		// calls; holding a window open would starve them, so batching is
		// only engaged when pipelining is off.
		c.batch, _ = r.Scheme().(batchScheme)
	}
	cost := int64(schedBaseNs + schedPerLegNs*legs)
	start := p.Now()
	p.Sleep(cost)
	collCharge(r, trace.Scheduling, "schedule", start, cost)
	return c
}

// finish emits the collective's wrapper span and settles every posted
// request, joining any intermediate error with the final Waitall errors,
// and then empties the call's lists.
// Two failure-tolerance duties live here because finish is on every exit
// path: any fusion window the aborted schedule left open is force-closed
// (so pending fused pack/unpack jobs launch or drain instead of being
// stranded), and a detected peer death revokes the collective's
// communicator so every other member's pending operations fail fast
// instead of waiting out their own timeouts.
func (c *call) finish(kind, alg string, stageErr error) error {
	for c.winOpen > 0 {
		c.closeWin()
	}
	err := c.r.Waitall(c.p, c.all)
	if stageErr != nil {
		if err != nil {
			err = &stageWaitError{stage: stageErr, wait: err}
		} else {
			err = stageErr
		}
	}
	// Every request and handle has settled, so a successful call's
	// staging is unreachable; a failed call's may still be written by
	// work its error path abandoned, so it is retired.
	for _, b := range c.lent {
		c.r.ReleaseStaging(b, err == nil)
	}
	if err != nil && c.r.World().FTEnabled() {
		var rf *mpi.RankFailedError
		if errors.As(err, &rf) && !c.cm.Revoked(c.r) {
			c.cm.Revoke(c.p, c.r)
		}
	}
	if tl := c.r.Timeline(); tl != nil {
		tl.Span(timeline.LayerColl, timeline.CostNone, "", kind+":"+alg, c.t0, c.p.Now()-c.t0,
			timeline.Arg{Key: "seq", Val: fmt.Sprint(c.seq)},
			timeline.Arg{Key: "bytes", Val: fmt.Sprint(c.bytes)},
			timeline.Arg{Key: "reqs", Val: fmt.Sprint(len(c.all))})
	}
	c.reset()
	return err
}

// stageWaitError is a failed call's stage error joined with the error its
// Waitall returned: the text and unwrapping of fmt.Errorf("%w; %w", stage,
// wait), with the text built only when read, as rendering both errors
// costs more than the rest of the failed call.
type stageWaitError struct{ stage, wait error }

func (e *stageWaitError) Error() string   { return e.stage.Error() + "; " + e.wait.Error() }
func (e *stageWaitError) Unwrap() []error { return []error{e.stage, e.wait} }

// tag derives a wire tag for this call and purpose. The per-rank sequence
// is SPMD-consistent, so both endpoints of every leg agree. The
// communicator epoch is folded in so that a retry on a shrunken comm can
// never match traffic stranded by the failed pre-shrink collective.
func (c *call) tag(purpose int) int {
	return tagSpace + c.cm.Epoch()*(1<<15) + (c.seq%4096)*8 + purpose
}

// openWin opens a fusion window (no-op for non-batching schemes) and
// tracks the depth so finish can force-close windows an error-path return
// left open — an open window would otherwise strand its pending fused
// pack/unpack jobs forever.
func (c *call) openWin() {
	if c.batch == nil {
		return
	}
	c.batch.OpenBatch()
	c.winOpen++
}

// closeWin closes the innermost open fusion window, launching the fused
// work it held back.
func (c *call) closeWin() {
	if c.batch == nil || c.winOpen == 0 {
		return
	}
	c.batch.CloseBatch(c.p)
	c.winOpen--
}

// bind stamps a raw-posted request as belonging to this call's
// communicator and returns it: an in-band revocation fails it in place,
// and a post that raced past an already-arrived revocation settles
// immediately. The hierarchical bodies (which post world-rank raw legs
// directly instead of going through post) wrap every IsendRaw/IrecvRaw
// in it.
func (c *call) bind(q *mpi.Request) *mpi.Request {
	c.cm.Bind(q)
	return q
}

// post issues receives then sends (skipping empty legs identically on
// both endpoints) and returns the receive requests for gating, the part
// of the call's list of every request that holds them. Leg peers
// are comm ranks; the world translation happens here, as does the
// failure-tolerance fail-fast: posts on a locally-revoked communicator
// settle immediately with ErrCommRevoked (posts to a declared-dead peer
// fail fast inside the mpi layer), and every request is bound to the
// communicator so an in-band revocation fails it in place.
func (c *call) post(recvs, sends []leg) []*mpi.Request {
	first := len(c.all)
	for _, lg := range recvs {
		if lg.empty() {
			continue
		}
		peer := c.cm.WorldRank(lg.peer)
		var q *mpi.Request
		if c.cm.Revoked(c.r) {
			q = c.cm.FailedRequest(c.r, false, peer, lg.tag)
		} else {
			q = c.r.IrecvRaw(c.p, peer, lg.tag, lg.buf, lg.l, lg.count)
			c.cm.Bind(q)
		}
		c.all = append(c.all, q)
	}
	rr := c.all[first:len(c.all):len(c.all)]
	for _, lg := range sends {
		if lg.empty() {
			continue
		}
		c.bytes += lg.l.SizeBytes * int64(lg.count)
		peer := c.cm.WorldRank(lg.peer)
		var q *mpi.Request
		if c.cm.Revoked(c.r) {
			q = c.cm.FailedRequest(c.r, true, peer, lg.tag)
		} else {
			q = c.r.IsendRaw(c.p, peer, lg.tag, lg.buf, lg.l, lg.count)
			c.cm.Bind(q)
		}
		c.all = append(c.all, q)
	}
	return rr
}

// gate drives the progress engine until every receive of the listed
// lists has either settled or handed its unpack/DirectIPC work to the
// scheme — the point where the open fusion window has seen all of the
// phase's incoming GPU work and can close. Sends are never gated (their
// completion may depend on the peer's window, which would deadlock).
func (c *call) gate(lists ...[]*mpi.Request) {
	poll := c.r.World().Cfg.PollIntervalNs
	for {
		// With an open fusion window this is held (CloseBatch launches);
		// without one it launches packs the peers' envelopes depend on,
		// exactly as Waitall would.
		c.r.Scheme().Flush(c.p)
		c.r.Progress(c.p)
		if ready(lists) {
			return
		}
		start := c.p.Now()
		c.p.Sleep(poll)
		collCharge(c.r, trace.Comm, "gate-poll", start, poll)
	}
}

// ready reports whether every receive of lists has settled or reached
// its datatype processing.
func ready(lists [][]*mpi.Request) bool {
	for _, reqs := range lists {
		for _, q := range reqs {
			if !q.Done() && !q.Failed() && !q.Processing() {
				return false
			}
		}
	}
	return true
}

// exchangePhase runs one self-contained fused phase: window around the
// posts (one fused pack launch), window around the arrivals (one fused
// unpack/IPC launch), then settle the phase's requests.
func (c *call) exchangePhase(recvs, sends []leg) error {
	if c.batch != nil {
		c.openWin()
	}
	first := len(c.all)
	rr := c.post(recvs, sends)
	if c.batch != nil {
		c.closeWin() // fused pack launch for the phase
		c.openWin()
		c.gate(rr)
		c.closeWin() // fused unpack/IPC launch for the phase
	}
	reqs := c.all[first:]
	return c.r.Waitall(c.p, reqs)
}

// subsetWait settles just the given requests (progress keeps every other
// in-flight request moving too).
func (c *call) subsetWait(reqs []*mpi.Request) error {
	return c.r.Waitall(c.p, reqs)
}

// waitHandles polls scheme handles (direct unpack jobs the engine issued
// itself) to completion, keeping the progress engine moving.
func (c *call) waitHandles(hs []mpi.Handle) error {
	poll := c.r.World().Cfg.PollIntervalNs
	for {
		var err error
		done := 0
		for _, h := range hs {
			if herr := h.Err(); herr != nil {
				err = herr
				done++
				continue
			}
			if h.Done(c.p) {
				done++
			}
		}
		if done == len(hs) {
			return err
		}
		// Jobs behind these handles sit in the fusion scheduler's pending
		// queue; outside a window nothing else launches them (raw handles
		// bypass Waitall's flush), so drive the launch ourselves.
		c.r.Scheme().Flush(c.p)
		c.r.Progress(c.p)
		start := c.p.Now()
		c.p.Sleep(poll)
		collCharge(c.r, trace.Sync, "handle-poll", start, poll)
	}
}

// staging lends a device staging buffer of n bytes (at least one) for
// the rest of the call; finish gives it back.
func (c *call) staging(n int64) *gpu.Buffer {
	b := c.r.Dev.Staging(int(max(n, 1)))
	c.lent = append(c.lent, b)
	return b
}

// stagingExact is staging with real bytes whatever the payload mode, for
// control metadata the host reads and writes.
func (c *call) stagingExact(n int64) *gpu.Buffer {
	b := c.r.Dev.StagingExact(int(max(n, 1)))
	c.lent = append(c.lent, b)
	return b
}

// bytesAt returns a contiguous n-byte layout at byte offset off (cached).
func (c *call) bytesAt(off, n int64) *datatype.Layout {
	key := [2]int64{off, n}
	if l, ok := c.st.contig[key]; ok {
		return l
	}
	var l *datatype.Layout
	if off == 0 {
		l = datatype.Commit(datatype.Contiguous(int(n), datatype.Byte))
	} else {
		l = datatype.Commit(datatype.Hindexed([]int{int(n)}, []int64{off}, datatype.Byte))
	}
	c.st.contig[key] = l
	return l
}

// unpackJob enqueues a direct unpack of staging[off:off+size] into the
// blocks of l×count within buf, returning the scheme handle. Inside a
// window these jobs fuse with everything else pending.
func (c *call) unpackJob(staging, buf *gpu.Buffer, l *datatype.Layout, count int, off int64) mpi.Handle {
	e := c.r.LayoutEntry(l, count)
	job := pack.JobFor(pack.OpUnpack, staging, buf, e)
	job.OriginOff = off
	return c.r.Scheme().Unpack(c.p, job)
}

// collCharge mirrors a Breakdown charge as a coll-layer timeline span —
// the pairing that keeps timeline sums reconciled with trace.Breakdown.
func collCharge(r *mpi.Rank, cat trace.Category, name string, start, d int64) {
	r.Trace.Add(cat, d)
	if tl := r.Timeline(); tl != nil {
		tl.Span(timeline.LayerColl, cat, "", name, start, d)
	}
}

// --- topology helpers ---

func (e *Engine) gpusPerNode() int { return e.w.Cluster.Spec.GPUsPerNode }
func (e *Engine) nodes() int       { return e.w.Cluster.Spec.Nodes }

// leaderOf returns the node-leader rank (first rank of the node).
func (e *Engine) leaderOf(node int) int { return node * e.gpusPerNode() }

// nodeOf returns the node a rank lives on.
func (e *Engine) nodeOf(rank int) int { return rank / e.gpusPerNode() }

// localRanks lists the ranks of one node in ascending order. The slice is
// shared by every caller and must not be written.
func (e *Engine) localRanks(node int) []int {
	gpn := e.gpusPerNode()
	return e.ids[node*gpn : (node+1)*gpn]
}

// topoHierarchical reports whether the cluster shape justifies two-level
// algorithms: multiple nodes, multiple GPUs per node to aggregate over,
// enough ranks to amortize the extra hop — and world scope, because the
// node-leader layout is a world-rank property that a shrunken survivor
// communicator no longer matches.
func (e *Engine) topoHierarchical() bool {
	return e.worldScope() && e.nodes() > 1 && e.gpusPerNode() > 1 && e.w.Size() >= hierMinRanks
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
