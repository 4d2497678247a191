// Package mpi implements a CUDA-aware-MPI-style runtime on the simulated
// cluster: ranks, non-blocking point-to-point operations with tag matching
// (posted-receive and unexpected-message queues), eager and rendezvous
// (RGET/RPUT) protocols over the RDMA fabric, and a polled progress engine.
//
// Derived-datatype processing is delegated to a pluggable Scheme — this is
// the seam where the paper's proposal and every baseline plug in: GPU-Sync,
// GPU-Async, CPU-GPU-Hybrid, the naive per-block memcpy of production
// libraries, and the proposed dynamic kernel fusion.
package mpi

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
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

// AnyTag matches any tag in a receive.
const AnyTag = -1

// AnySource matches any source rank in a receive.
const AnySource = -1

// RendezvousMode selects the large-message sub-protocol (Section IV-B1).
type RendezvousMode int

const (
	// RGET: the sender sends RTS after packing completes; the receiver
	// RDMA-READs the packed data.
	RGET RendezvousMode = iota
	// RPUT: the sender sends RTS immediately, overlapping the
	// handshake with packing; on CTS it RDMA-WRITEs the packed data.
	RPUT
)

func (m RendezvousMode) String() string {
	if m == RGET {
		return "RGET"
	}
	return "RPUT"
}

// Config tunes the runtime.
type Config struct {
	// EagerLimitBytes: payloads at or below travel eagerly.
	EagerLimitBytes int64
	// Rendezvous selects RGET or RPUT for large payloads.
	Rendezvous RendezvousMode
	// PollIntervalNs is the progress-engine poll period while blocked.
	PollIntervalNs int64
	// StallTimeoutNs bounds how long the simulation may run without any
	// request completing before the sim-level watchdog declares a
	// deadlock: World.Run then returns a *sim.StallError naming the stuck
	// procs and dumping per-rank request states. Zero selects the default
	// (100 ms of virtual time); negative disables the watchdog.
	StallTimeoutNs int64
	// Faults, when non-nil, threads a deterministic fault injector through
	// the fabric, NIC, and GPU layers AND activates the reliability layer
	// (reliable.go): acked + checksummed transport with timeout/backoff
	// retransmission and typed request errors. Nil keeps every fault-free
	// fast path byte-identical to a build without the layer.
	Faults *fault.Plan
	// MaxRetries bounds the reliability layer's re-issues per message or
	// RDMA operation (0 = 8). Ignored when Faults is nil.
	MaxRetries int
	// Heartbeat tunes the rank-failure detector (ulfm.go). The detector
	// activates automatically when the fault plan schedules rank crashes;
	// setting TimeoutNs > 0 activates it explicitly. Zero values select
	// defaults. Ignored when Faults is nil.
	Heartbeat HeartbeatConfig
	// DisableIPC turns off the DirectIPC fast path even when the scheme
	// supports it (for ablations).
	DisableIPC bool
	// DisableLayoutCache makes every datatype lookup pay the full
	// flattening cost (ablation of the layout cache of [24]).
	DisableLayoutCache bool
	// PipelineChunkBytes enables chunked (pipelined) rendezvous for
	// non-contiguous RGET sends larger than this: each chunk packs as
	// its own request and transfers as soon as it is ready. Zero
	// disables pipelining.
	PipelineChunkBytes int64
	// Timeline, when non-nil, enables per-rank event tracing: every rank
	// gets a ring-buffered recorder wired through the sim, gpu, mpi, and
	// fusion layers. Nil (the default) keeps the hot paths allocation-free.
	Timeline *timeline.Options
}

// DefaultConfig mirrors common GPU-aware MPI settings.
func DefaultConfig() Config {
	return Config{
		EagerLimitBytes: 16 << 10,
		Rendezvous:      RGET,
		PollIntervalNs:  200,
	}
}

// Handle tracks one in-flight datatype-processing operation owned by a
// Scheme. Done may charge the polling proc (event queries, scheduler
// queries); DoneEv may return nil if the scheme is poll-only. Err reports a
// terminal processing failure (fused launch degraded and still failed);
// the progress engine converts it into a typed request error. Fault-free
// schemes return nil forever.
type Handle interface {
	Done(p *sim.Proc) bool
	DoneEv() *sim.Event
	Err() error
}

// Scheme processes derived datatypes for one rank. Implementations decide
// where packing runs (GPU kernel, fused kernel, CPU window) and how
// completion is detected — exactly the design space of the paper's Table I.
type Scheme interface {
	Name() string
	// Pack starts packing job (origin non-contiguous -> target packed).
	// Jobs are passed by value: a scheme that keeps one (a kernel's Work,
	// a fusion request-list entry) keeps its own copy.
	Pack(p *sim.Proc, job pack.Job) Handle
	// Unpack starts unpacking job (origin packed -> target scattered).
	Unpack(p *sim.Proc, job pack.Job) Handle
	// DirectIPC starts a zero-copy device-to-device non-contiguous
	// transfer; ok=false means unsupported and the caller falls back to
	// pack/send/unpack.
	DirectIPC(p *sim.Proc, job pack.Job) (h Handle, ok bool)
	// Flush tells the scheme no more operations are coming before a
	// synchronization point (MPI_Waitall); fusion launches here.
	Flush(p *sim.Proc)
}

// SchemeFactory builds the per-rank scheme instance.
type SchemeFactory func(r *Rank) Scheme

// World is a set of ranks bound to a simulated cluster, one rank per GPU.
type World struct {
	Env     *sim.Env
	Cluster *cluster.Cluster
	Cfg     Config
	ranks   []*Rank
	tl      *timeline.Timeline

	// inj is the fault injector (nil without a fault plan); its presence
	// is what switches the reliability layer on.
	inj        *fault.Injector
	maxRetries int
	nextMsgID  int64 // world-unique reliable-message ids

	barrierEv    *sim.Event
	barrierCount int

	// Rank-failure tolerance state (ulfm.go); inert unless the fault plan
	// schedules crashes or Config.Heartbeat is set.
	ftOn           bool
	hb             HeartbeatConfig
	crashed        []bool  // ground truth: proc killed
	rankFailed     []bool  // detector's view: declared dead
	failedAt       []int64 // detection time per declared-dead rank
	hbLast         []int64 // last heartbeat per rank
	maxCrashAt     int64   // latest planned crash time
	psite          *fault.Site
	dsite          *fault.Site
	usite          *fault.Site
	epochSeq       int
	worldComm      *Comm
	comms          []*Comm
	barrierArrived []bool
	onRankFailed   []func(dead int) // observers notified after declareFailed
	onCommRevoked  []func(c *Comm)  // observers notified on first revocation per comm
}

// Timeline returns the world's event timeline, or nil when tracing is off.
func (w *World) Timeline() *timeline.Timeline { return w.tl }

// NewWorld creates one rank per GPU of the cluster, each with its own
// layout cache, charge ledger, and scheme instance.
func NewWorld(c *cluster.Cluster, cfg Config, factory SchemeFactory) *World {
	if cfg.PollIntervalNs <= 0 {
		cfg.PollIntervalNs = DefaultConfig().PollIntervalNs
	}
	w := &World{Env: c.Env, Cluster: c, Cfg: cfg}
	if cfg.Timeline != nil {
		w.tl = timeline.New(c.Spec.Nodes*c.Spec.GPUsPerNode, cfg.Timeline.Capacity)
	}
	inj, err := fault.NewInjector(cfg.Faults, c.Env.Now)
	if err != nil {
		// Configuration front doors (dkf.NewSession) validate the plan
		// first and surface this as an error.
		panic("mpi: invalid fault plan: " + err.Error())
	}
	w.inj = inj
	if inj != nil {
		w.maxRetries = cfg.MaxRetries
		if w.maxRetries <= 0 {
			w.maxRetries = defaultMaxRetries
		}
		c.Net.InjectFaults(inj)
		if w.tl != nil {
			cap := 0
			if cfg.Timeline != nil {
				cap = cfg.Timeline.Capacity
			}
			rec := w.tl.ExtraTrack("faults", cap)
			inj.SetHook(func(ev fault.Event) {
				layer := timeline.LayerFault
				switch ev.Kind {
				case fault.RankCrash, fault.Detect, fault.Revoke, fault.Shrink, fault.Agree:
					layer = timeline.LayerFailure
				}
				rec.Instant(layer, ev.Site, ev.Kind.String(), ev.At,
					timeline.Arg{Key: "detail", Val: ev.Detail})
			})
		}
	}
	id := 0
	for n := 0; n < c.Spec.Nodes; n++ {
		for g := 0; g < c.Spec.GPUsPerNode; g++ {
			r := &Rank{
				world: w,
				id:    id,
				node:  n,
				Dev:   c.Device(n, g),
				cache: layoutcache.New(),
				Trace: timeline.NewLedger(w.tl.Rank(id)),
			}
			r.Dev.TL = r.Timeline()
			if inj != nil {
				r.fsite = inj.Site(fmt.Sprintf("mpi:rank%d", id))
				r.Dev.Faults = inj.Site(fmt.Sprintf("gpu:rank%d", id))
				r.seen = make(map[int64]bool)
				r.streamSeq = make(map[uint64]int64)
				r.streamNext = make(map[uint64]int64)
			}
			w.ranks = append(w.ranks, r)
			id++
		}
	}
	// Scheme construction happens after all ranks exist so factories may
	// inspect the world.
	for _, r := range w.ranks {
		r.scheme = factory(r)
	}
	w.initFT()
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Run spawns one proc per rank executing body and drives the simulation to
// completion. It returns the sim error: deadlocks surface here as a
// *sim.StallError from the watchdog (armed from Config.StallTimeoutNs),
// carrying per-rank request-state diagnostics.
func (w *World) Run(body func(r *Rank, p *sim.Proc)) error {
	if stall := w.Cfg.StallTimeoutNs; stall >= 0 {
		if stall == 0 {
			stall = 100 * sim.Millisecond
		}
		w.Env.SetWatchdog(stall, w.stallDiag)
	}
	for _, r := range w.ranks {
		r := r
		w.Env.Spawn(fmt.Sprintf("rank%d", r.id), func(p *sim.Proc) {
			r.proc = p
			p.SetTimeline(r.Timeline())
			body(r, p)
		})
	}
	w.scheduleCrashes()
	return w.Env.Run()
}

// stallDiag renders the per-rank request states (plus fault counters, when
// injecting) for the watchdog's StallError.
func (w *World) stallDiag() string {
	var b strings.Builder
	for _, r := range w.ranks {
		if len(r.active) == 0 {
			continue
		}
		fmt.Fprintf(&b, "rank%d:", r.id)
		for _, q := range r.active {
			dir := "recv"
			if q.isSend {
				dir = "send"
			}
			fmt.Fprintf(&b, " [%s peer=%d tag=%d state=%s]", dir, q.peer, q.tag, q.state)
		}
		b.WriteString("\n")
	}
	if w.inj != nil {
		fmt.Fprintf(&b, "faults injected: %v\n", w.inj.Counts())
		fmt.Fprintf(&b, "fabric faults: %v\n", w.Cluster.Net.FaultCounts())
	}
	if w.ftOn {
		fmt.Fprintf(&b, "crashed ranks: %v declared failed: %v\n", w.CrashedRanks(), w.FailedRanks())
	}
	return b.String()
}

// Rank is one MPI process bound to one GPU.
type Rank struct {
	world  *World
	id     int
	node   int
	Dev    *gpu.Device
	proc   *sim.Proc
	cache  *layoutcache.Cache
	scheme Scheme

	// Trace accrues the Fig. 11 cost taxonomy for this rank: every
	// virtual-time charge is one Trace.Charge call naming its layer, which
	// also mirrors it into the rank's timeline recorder when tracing is on.
	Trace timeline.Ledger

	posted     []*Request // posted receives awaiting a match
	unexpected []envelope // arrived envelopes with no posted receive, in arrival order
	active     []*Request // all incomplete requests this rank owns
	snap       []*Request // progress's reusable copy of active; nil while a poll holds it
	// ipcLinks caches, by receive layout entry (Entry.Index), the
	// destination side of the DirectIPC jobs that land in it: every such
	// job shares one Peer.
	ipcLinks []*pack.Peer

	// Envelope-ordering state: MPI's non-overtaking rule requires that
	// the matchable envelopes (eager data or RTS) of sends to the same
	// destination hit the wire in Isend order, even when an earlier
	// send's packing finishes later. sendSeq numbers sends per
	// destination; emitNext/emitWait implement the FIFO send queue a
	// real NIC channel provides. emitWait parks the send requests
	// themselves (nil for a send that failed before it could emit).
	sendSeq  map[int]int64
	emitNext map[int]int64
	emitWait map[int]map[int64]*Request

	// orphanChunks parks pipelined chunk announcements that arrived
	// before their envelope matched.
	orphanChunks []*message

	// Reliability-layer state (reliable.go); all nil/false without a
	// fault plan.
	fsite      *fault.Site      // this rank's recovery-event site
	seen       map[int64]bool   // receiver-side duplicate suppression
	pending    []*pendingMsg    // sender-side unacked messages
	needDrain  bool             // envelope FIFO advanced from scheduler context
	streamSeq  map[uint64]int64 // sender: last envelope sequence per streamKey(dest, tag)
	streamNext map[uint64]int64 // receiver: last sequence admitted per streamKey(source, tag)
	early      []*message       // receiver: envelopes ahead of their stream
}

// assignSeq stamps a send request with its per-destination sequence.
func (r *Rank) assignSeq(q *Request) {
	if r.sendSeq == nil {
		r.sendSeq = make(map[int]int64)
	}
	q.seq = r.sendSeq[q.peer]
	r.sendSeq[q.peer]++
}

// emitInOrder parks send q in its destination's envelope FIFO and drains
// every envelope that is now in sequence there.
func (r *Rank) emitInOrder(p *sim.Proc, q *Request) {
	q.emitted = true
	r.park(q.peer, q.seq, q)
	r.drainEmits(p, q.peer)
}

// park puts q (nil for an envelope that will never go out) into dest's
// FIFO slot seq.
func (r *Rank) park(dest int, seq int64, q *Request) {
	if r.emitWait == nil {
		r.emitWait = make(map[int]map[int64]*Request)
		r.emitNext = make(map[int]int64)
	}
	if r.emitWait[dest] == nil {
		r.emitWait[dest] = make(map[int64]*Request)
	}
	r.emitWait[dest][seq] = q
}

// drainEmits emits every envelope that is now in sequence for dest. It
// runs on this rank's own proc, so the emissions' costs are charged
// correctly. A send that settled while parked (a revocation failed it)
// only gives up its place: its envelope never leaves.
func (r *Rank) drainEmits(p *sim.Proc, dest int) {
	for {
		q, ok := r.emitWait[dest][r.emitNext[dest]]
		if !ok {
			return
		}
		delete(r.emitWait[dest], r.emitNext[dest])
		r.emitNext[dest]++
		if q != nil && !q.settled() {
			r.emitEnvelope(p, q)
		}
	}
}

// emitEnvelope puts send q's matchable envelope on the wire when its FIFO
// turn comes: eager data (whose bytes are snapshotted now), or an RTS. The
// receiver reads what an RTS describes (bytes, the DirectIPC offer to a
// same-node peer, a pipelined send's chunks) from q itself. Under the
// reliability layer the RTS is a tracked message; without it q is its own
// RTS, as it is its own FIN and CTS (signal), and the RTS makes no frame.
func (r *Rank) emitEnvelope(p *sim.Proc, q *Request) {
	if !r.ipcPeer(q.peer) && q.bytes <= r.world.Cfg.EagerLimitBytes {
		r.emitEager(p, q)
		return
	}
	if r.reliable() {
		r.postCtrl(p, q, &message{kind: mkRTS, from: int32(r.id), to: int32(q.peer), tag: q.tag, bytes: q.bytes, sender: q})
		return
	}
	r.postSignal(p, mkRTS, q.peer, q.tag, (*rtsArrival)(q))
}

// rtsArrival is a rendezvous send request as the receiver of its own RTS.
type rtsArrival Request

// Handle matches the send at its destination like any other envelope.
func (a *rtsArrival) Handle() {
	s := (*Request)(a)
	dst := s.rank.world.ranks[s.peer]
	if dst.world.isCrashed(dst.id) {
		return // a dead rank is silent (see arrive)
	}
	dst.match(envelope{s: s})
}

func (a *rtsArrival) Deliver(fabric.Delivery) { a.Handle() }

// ipcOffer reports whether send q's RTS offers its same-node peer a
// DirectIPC transfer.
func (q *Request) ipcOffer() bool { return q.rank.ipcPeer(q.peer) }

// emitEager sends q's payload with its envelope. The sender completes once
// the message is handed to the NIC (reliable mode: once it is acked).
func (r *Rank) emitEager(p *sim.Proc, q *Request) {
	sb, so := q.srcBuf()
	m := &message{kind: mkEager, from: int32(r.id), to: int32(q.peer), tag: q.tag, bytes: q.bytes, wire: sb.Snapshot(so, q.bytes)}
	if r.reliable() {
		q.state = stWaitFin // resolved by the ack, not a FIN
		r.sendReliable(p, q, m, q.bytes+64)
		r.maybeComplete(q)
		return
	}
	net := r.world.Cluster.Net
	net.Post(p)
	t0 := p.Now()
	arrive := r.sendMsg(q.bytes+64, m)
	if tl := r.Timeline(); tl != nil {
		tl.Span(timeline.LayerMPI, timeline.CostNone, "net", "eager", t0, arrive-t0,
			timeline.Arg{Key: "peer", Val: strconv.Itoa(q.peer)},
			timeline.Arg{Key: "bytes", Val: strconv.FormatInt(q.bytes, 10)})
	}
	r.complete(q)
}

// ipcPeer reports whether sends to dest take the DirectIPC path: another
// rank on this node, with IPC enabled.
func (r *Rank) ipcPeer(dest int) bool {
	return !r.world.Cfg.DisableIPC && dest != r.id && r.world.ranks[dest].node == r.node
}

// ID returns the rank number; Node its node; World the owning world.
func (r *Rank) ID() int       { return r.id }
func (r *Rank) Node() int     { return r.node }
func (r *Rank) World() *World { return r.world }

// Timeline returns the rank's recorder (nil when tracing is disabled). A nil
// recorder is valid and fully disabled, so callers may use it unguarded for
// emission — but must build any event name or args only when it is not nil.
func (r *Rank) Timeline() *timeline.Recorder { return r.Trace.Recorder() }

// SchemeName reports the active DDT scheme.
func (r *Rank) SchemeName() string { return r.scheme.Name() }

// Scheme exposes the rank's DDT scheme (tests, ablations).
func (r *Rank) Scheme() Scheme { return r.scheme }

// reqState is the request state machine position.
type reqState uint8

const (
	stPacking     reqState = iota // send: waiting for pack handle
	stReadyToSend                 // send: packed, transfer not started
	stRTSSent                     // send rendezvous: waiting CTS (RPUT) or FIN (RGET)
	stWriting                     // send RPUT: RDMA write in flight
	stWaitFin                     // send: data gone, waiting FIN
	stWaitMatch                   // recv: waiting for a matching message
	stWaitData                    // recv: matched, waiting for payload
	stUnpacking                   // recv: waiting for unpack handle
	stIPC                         // recv: DirectIPC in flight
	stDone
	stFailed // terminal failure (reliability layer); Request.err is set
)

var reqStateNames = [...]string{
	"packing", "ready-to-send", "rts-sent", "writing", "wait-fin",
	"wait-match", "wait-data", "unpacking", "ipc", "done", "failed",
}

func (s reqState) String() string {
	if int(s) < len(reqStateNames) {
		return reqStateNames[s]
	}
	return "state?"
}

// msgKind tags control/data messages.
type msgKind uint8

const (
	mkEager msgKind = iota
	mkRTS
	mkRTSChunk
	mkCTS
	mkFIN
	mkErr // reliability layer: best-effort peer-abort notification
)

var msgKindNames = [...]string{"eager", "rts", "rts-chunk", "cts", "fin", "err"}

func (m msgKind) String() string {
	if int(m) < len(msgKindNames) {
		return msgKindNames[m]
	}
	return "msg?"
}

// message is an in-flight or queued wire message: 128 B
// (TestMessageSize). kind and the ranks from and to share one word; tag
// stays a full int, as collective tags reach CollTagBase plus an epoch.
// Without the reliability layer a rendezvous send is its own RTS, so a
// message is an eager frame, an RTS-chunk, or a tracked frame.
type message struct {
	kind     msgKind
	from, to int32
	tag      int
	bytes    int64 // payload size (data description for RTS)
	// sender is the originating send request (control messages carry a
	// pointer — the simulation-level stand-in for rkeys/addresses). An RTS
	// or RTS-chunk's receiver reads the send's IPC offer and chunks there.
	sender *Request
	// receiver is set on CTS/FIN destined for a specific request, and on
	// an RTS-chunk whose payload a receive reads (chunkRequest).
	receiver *Request
	// wire is an eager message's data bytes (already packed), a snapshot
	// taken when the message was built.
	wire gpu.Snapshot
	// chunkOff and chunkBytes describe one chunk of an mkRTSChunk.
	chunkOff   int64
	chunkBytes int64
	// id is the reliability-layer message id (nonzero only for tracked
	// messages).
	id int64
	// sseq is the reliability layer's (source, tag) stream sequence of an
	// envelope, or of the abort taking its place; zero when unsequenced.
	sseq int64
	// dst is the destination rank, set by sendMsg: a message sent that
	// way is its own fabric receiver.
	dst *Rank
	// readAt is when the read of an RTS-chunk's payload was posted: the
	// start of its rdma-read-chunk span.
	readAt int64
}

// envelope is a matchable arrival, queued on the unexpected list until a
// receive matches it: an eager frame, a tracked RTS or an abort (m), or,
// without the reliability layer, a rendezvous send that is its own RTS
// (s). Exactly one is set.
type envelope struct {
	m *message
	s *Request
}

// source, tag and bytes describe the envelope's message.
func (e envelope) source() int {
	if e.s != nil {
		return e.s.rank.id
	}
	return int(e.m.from)
}

func (e envelope) tag() int {
	if e.s != nil {
		return e.s.tag
	}
	return e.m.tag
}

func (e envelope) bytes() int64 {
	if e.s != nil {
		return e.s.bytes
	}
	return e.m.bytes
}

// sendMsg ships m from r to rank m.to, charged as bytes on the wire, with
// m itself as the fabric receiver, and returns the arrival time.
func (r *Rank) sendMsg(bytes int64, m *message) int64 {
	m.dst = r.world.ranks[m.to]
	return r.world.Cluster.Net.Send(r.node, m.dst.node, bytes, m)
}

// Handle is a clean arrival of a message sent by sendMsg.
func (m *message) Handle() { m.dst.arrive(m, fabric.Delivery{}) }

// Deliver is an arrival of a message sent by sendMsg that the link
// corrupted or duplicated.
func (m *message) Deliver(d fabric.Delivery) { m.dst.arrive(m, d) }

// Request is a non-blocking operation handle (MPI_Request). It is 160 B
// (TestRequestSize): the state that only a pipelined rendezvous or the
// reliability layer needs sits behind pipe and rel, made by the legs that
// use it. Callers keep a *Request after Wait, so requests are never
// recycled.
type Request struct {
	rank  *Rank
	peer  int
	tag   int
	buf   *gpu.Buffer
	entry *layoutcache.Entry
	bytes int64

	// seq is a send's per-destination envelope sequence. A receive, which
	// has none, keeps there when it posted its fault-free RGET read: the
	// start of its rdma-read span.
	seq    int64
	sseq   int64       // send: reliability-layer stream sequence of the emitted envelope
	packed *gpu.Buffer // staging (send: packed output; recv: packed input)
	handle Handle      // pack or unpack handle
	// matched is a receive's matched message: an eager frame, or under
	// the reliability layer an RTS or abort.
	matched *message
	// peerReq is the request at the other end of a matched rendezvous. A
	// send's is set by the receiver: the one that issued an RPUT CTS, that
	// matched a pipelined envelope, or whose fault-free RGET read the send
	// receives. A receive's is its matched send when, without the
	// reliability layer, the send was its own RTS.
	peerReq *Request
	pipe    *pipeState // pipelined rendezvous (pipeline.go); nil on a plain leg
	rel     *relState  // reliability-layer and ULFM state (reliable.go); nil without a fault plan

	// err is the terminal error once state == stFailed.
	err error
	// DoneAt is the completion/failure time (valid once settled).
	DoneAt int64

	unacked     int32 // reliability layer: emitted messages not yet acked
	state       reqState
	isSend      bool
	contig      bool
	dataHere    bool // recv: payload landed in staging
	finHere     bool // send: FIN arrived (or local RDMA write done)
	ctsHere     bool // send RPUT: CTS arrived
	rtsSent     bool // send rendezvous: RTS already posted
	rdmaStarted bool // recv: RDMA/CTS/IPC already initiated
	finSent     bool // recv: FIN already posted (one-shot)
	emitted     bool // send: envelope FIFO slot consumed
	wantDone    bool // reliability layer: protocol done, waiting for last acks
	errSent     bool // reliability layer: peer-abort notification already sent
}

// Done reports successful completion without charging any cost.
func (q *Request) Done() bool { return q.state == stDone }

// Failed reports terminal failure; Err carries the typed cause.
func (q *Request) Failed() bool { return q.state == stFailed }

// Err returns the request's terminal error: nil while in flight or on
// success, a *OpError after the reliability layer gave up.
func (q *Request) Err() error { return q.err }

// settled reports that q reached a terminal state (done or failed).
func (q *Request) settled() bool { return q.state == stDone || q.state == stFailed }

// --- posting operations ---

// lookupLayout charges the layout-cache cost and returns the entry.
func (r *Rank) lookupLayout(p *sim.Proc, l *datatype.Layout, count int) *layoutcache.Entry {
	e, hit := r.cache.GetCharged(l, count)
	if r.world.Cfg.DisableLayoutCache {
		hit = false // always pay the full flattening cost
	}
	c := layoutcache.Lookup(hit, e.Segments)
	t0 := p.Now()
	p.Sleep(c)
	r.Trace.Charge(timeline.LayerMPI, trace.Other, "layout-lookup", t0, c)
	return e
}

// LayoutEntry returns the cached flattened layout + compiled plan for
// (l, count) WITHOUT charging virtual time. Collective engines use it to
// reach the compiled pack plans; point-to-point posting keeps charging
// through lookupLayout. Both share the rank's one cache, but an uncharged
// lookup never turns a later charged lookup into a charged hit, so every
// virtual-time charge is independent of uncharged lookups.
func (r *Rank) LayoutEntry(l *datatype.Layout, count int) *layoutcache.Entry {
	e, _ := r.cache.Get(l, count)
	return e
}

// CacheStats snapshots this rank's layout-cache counters.
func (r *Rank) CacheStats() layoutcache.Stats { return r.cache.Stats() }

// CollTagBase is the first tag of the reserved collective range
// [CollTagBase, ∞), which belongs to internal/coll: user Isend/Irecv with
// a tag in it fails with a *TagError instead of colliding with collective
// envelopes. internal/coll's tags start at CollTagBase+4096; the sub-range
// below that is unused, and the offset is pinned by golden traces.
const CollTagBase = 1 << 20

// TagError is the typed configuration error returned (through
// Request.Err and Wait/Waitall) when a user point-to-point operation uses
// a tag inside the reserved collective range [CollTagBase, ∞). It unwraps
// to ErrTagReserved for errors.Is checks.
type TagError struct {
	Rank   int
	Tag    int
	IsSend bool
}

func (e *TagError) Error() string {
	dir := "Irecv"
	if e.IsSend {
		dir = "Isend"
	}
	return fmt.Sprintf("mpi: rank %d: %s tag %d is inside the reserved collective range [%d, ∞)",
		e.Rank, dir, e.Tag, CollTagBase)
}

// Unwrap lets errors.Is(err, ErrTagReserved) match a *TagError.
func (e *TagError) Unwrap() error { return ErrTagReserved }

// ErrTagReserved is the sentinel wrapped by every *TagError.
var ErrTagReserved = errors.New("mpi: tag in reserved collective range")

// failedTagRequest builds an already-failed request for a guarded tag: it
// never enters the active list (so it cannot leak), settles immediately,
// and surfaces a *TagError from Wait/Waitall.
func (r *Rank) failedTagRequest(isSend bool, peer, tag int) *Request {
	q := &Request{
		rank: r, isSend: isSend, peer: peer, tag: tag,
		state:  stFailed,
		err:    &TagError{Rank: r.id, Tag: tag, IsSend: isSend},
		DoneAt: r.world.Env.Now(),
	}
	return q
}

// Isend posts a non-blocking send of count elements of layout l from buf.
// Tags at or above CollTagBase are reserved for collective traffic: such a
// send fails immediately with a *TagError instead of silently colliding
// with collective envelopes.
func (r *Rank) Isend(p *sim.Proc, dest, tag int, buf *gpu.Buffer, l *datatype.Layout, count int) *Request {
	if tag >= CollTagBase {
		return r.failedTagRequest(true, dest, tag)
	}
	return r.IsendRaw(p, dest, tag, buf, l, count)
}

// IsendRaw is Isend without the reserved-tag guard. It exists for the
// collective engine (internal/coll), which owns the reserved range; user
// code should always go through Isend.
func (r *Rank) IsendRaw(p *sim.Proc, dest, tag int, buf *gpu.Buffer, l *datatype.Layout, count int) *Request {
	if fq := r.postGuard(true, dest, tag); fq != nil {
		return fq // peer declared dead: fail fast (ULFM semantics)
	}
	e := r.lookupLayout(p, l, count)
	q := &Request{
		rank: r, isSend: true, peer: dest, tag: tag,
		buf: buf, entry: e, bytes: e.Bytes,
		contig: e.Segments == 1,
	}
	r.active = append(r.active, q)
	r.assignSeq(q)
	if tl := r.Timeline(); tl != nil {
		tl.Instant(timeline.LayerMPI, "", "isend", p.Now(),
			timeline.Arg{Key: "dst", Val: strconv.Itoa(dest)},
			timeline.Arg{Key: "tag", Val: strconv.Itoa(tag)},
			timeline.Arg{Key: "bytes", Val: strconv.FormatInt(e.Bytes, 10)})
	}

	if r.ipcPeer(dest) {
		// Same-node: offer DirectIPC. No packing; the receiver drives
		// a zero-copy gather/scatter kernel and FINs us.
		q.state = stWaitFin
		r.emitInOrder(p, q)
		return q
	}

	if q.contig {
		// Contiguous payloads skip packing entirely.
		q.state = stReadyToSend
		r.startTransfer(p, q)
		return q
	}

	if r.wantsPipeline(q) {
		r.startPipelinedSend(p, q, buf)
		return q
	}

	q.packed = r.stagingBuf(e.Bytes)
	job := pack.JobFor(pack.OpPack, buf, q.packed, e)
	q.handle = r.scheme.Pack(p, job)
	q.state = stPacking
	if r.world.Cfg.Rendezvous == RPUT && q.bytes > r.world.Cfg.EagerLimitBytes {
		// RPUT sends RTS before packing finishes: the handshake
		// overlaps the pack kernel (Section IV-B1).
		q.rtsSent = true
		r.emitInOrder(p, q)
	}
	return q
}

// Irecv posts a non-blocking receive into buf. Tags at or above
// CollTagBase are reserved for collective traffic and fail immediately
// with a *TagError (AnyTag is always allowed).
func (r *Rank) Irecv(p *sim.Proc, src, tag int, buf *gpu.Buffer, l *datatype.Layout, count int) *Request {
	if tag >= CollTagBase {
		return r.failedTagRequest(false, src, tag)
	}
	return r.IrecvRaw(p, src, tag, buf, l, count)
}

// IrecvRaw is Irecv without the reserved-tag guard, for the collective
// engine (internal/coll); user code should always go through Irecv.
func (r *Rank) IrecvRaw(p *sim.Proc, src, tag int, buf *gpu.Buffer, l *datatype.Layout, count int) *Request {
	if fq := r.postGuard(false, src, tag); fq != nil {
		return fq // peer declared dead: fail fast (ULFM semantics)
	}
	e := r.lookupLayout(p, l, count)
	q := &Request{
		rank: r, isSend: false, peer: src, tag: tag,
		buf: buf, entry: e, bytes: e.Bytes,
		contig: e.Segments == 1,
		state:  stWaitMatch,
	}
	r.active = append(r.active, q)
	if tl := r.Timeline(); tl != nil {
		tl.Instant(timeline.LayerMPI, "", "irecv", p.Now(),
			timeline.Arg{Key: "src", Val: strconv.Itoa(src)},
			timeline.Arg{Key: "tag", Val: strconv.Itoa(tag)},
			timeline.Arg{Key: "bytes", Val: strconv.FormatInt(e.Bytes, 10)})
	}
	// Check the unexpected queue first (arrival order preserved).
	for i, e := range r.unexpected {
		if q.matches(e) {
			r.unexpected = slices.Delete(r.unexpected, i, i+1)
			r.deliver(q, e)
			return q
		}
	}
	r.posted = append(r.posted, q)
	return q
}

func (q *Request) matches(e envelope) bool {
	if q.peer != AnySource && q.peer != e.source() {
		return false
	}
	if q.tag != AnyTag && q.tag != e.tag() {
		return false
	}
	return e.s != nil || e.m.kind == mkEager || e.m.kind == mkRTS || e.m.kind == mkErr
}

// rndvSend returns the send behind receive q's matched rendezvous
// envelope, or nil while q is unmatched or matched eager data.
func (q *Request) rndvSend() *Request {
	if m := q.matched; m != nil {
		if m.kind == mkRTS {
			return m.sender
		}
		return nil
	}
	return q.peerReq
}

// stagingBuf lends a packed staging buffer from the rank's device pool;
// the request gives it back when it settles (complete, fail). Every
// caller writes all n bytes before anything reads them: a send's pack
// output (whole or chunk by chunk) and a receive's landing zone (eager
// payload, pipelined chunks, RPUT write, RGET read), so a reused buffer
// is not cleared first (Device.StagingOverwrite).
func (r *Rank) stagingBuf(n int64) *gpu.Buffer { return r.Dev.StagingOverwrite(int(n)) }

// ReleaseStaging gives staging lent by the rank's device back to the pool
// when reusable is set and nothing can still reach it, and retires it
// otherwise. With the reliability layer on, nothing is reusable: late RDMA
// callbacks and retransmissions may still read or write any buffer a
// request touched after the request settled.
func (r *Rank) ReleaseStaging(b *gpu.Buffer, reusable bool) {
	switch {
	case b == nil:
	case reusable && !r.reliable():
		r.Dev.Free(b)
	default:
		r.Dev.Retire(b)
	}
}

// postCtrl sends a small control message on behalf of owner, charging NIC
// post cost. Under the reliability layer it is tracked, checksummed, and
// retransmitted until acked.
func (r *Rank) postCtrl(p *sim.Proc, owner *Request, m *message) {
	if r.reliable() {
		r.sendReliable(p, owner, m, r.world.Cluster.Net.Spec.CtrlBytes)
		return
	}
	m.dst = r.world.ranks[m.to]
	r.postSignal(p, m.kind, int(m.to), m.tag, m)
}

// postSignal posts an untracked control message of kind to rank to, with
// rcv as its fabric receiver: the message itself, or a request standing
// in for it, which makes no frame. It charges the NIC post and records
// the message's wire time.
func (r *Rank) postSignal(p *sim.Proc, kind msgKind, to, tag int, rcv fabric.Receiver) {
	net := r.world.Cluster.Net
	net.Post(p)
	t0 := p.Now()
	arrive := net.Send(r.node, r.world.ranks[to].node, net.Spec.CtrlBytes, rcv)
	if tl := r.Timeline(); tl != nil {
		tl.Span(timeline.LayerMPI, timeline.CostNone, "net", "ctrl:"+kind.String(), t0, arrive-t0,
			timeline.Arg{Key: "peer", Val: strconv.Itoa(to)},
			timeline.Arg{Key: "tag", Val: strconv.Itoa(tag)})
	}
}

// signal posts a FIN or CTS from receive q to its matched send. Under the
// reliability layer it is a tracked message. Without it no rank can crash
// and no frame can be damaged, so the send request itself receives the
// arrival (finArrival, ctsArrival) and the signal makes no frame.
func (r *Rank) signal(p *sim.Proc, q *Request, kind msgKind) {
	s := q.rndvSend()
	if r.reliable() {
		r.postCtrl(p, q, &message{kind: kind, from: int32(r.id), to: int32(s.rank.id), tag: q.tag, receiver: s})
		return
	}
	var to fabric.Receiver = (*finArrival)(s)
	if kind == mkCTS {
		to = (*ctsArrival)(s)
	}
	r.postSignal(p, kind, s.rank.id, q.tag, to)
}

// finArrival is a send request as the receiver of its FIN.
type finArrival Request

func (a *finArrival) Handle()                 { a.finHere = true }
func (a *finArrival) Deliver(fabric.Delivery) { a.Handle() }

// ctsArrival is an RPUT send request as the receiver of its CTS.
type ctsArrival Request

func (a *ctsArrival) Handle()                 { a.ctsHere = true }
func (a *ctsArrival) Deliver(fabric.Delivery) { a.Handle() }

// postRead posts the RDMA read of send s's whole payload into receive q's
// staging without the reliability layer. s receives both legs of its
// read, as it received its own RTS, so the read makes no closure and no
// frame.
func (r *Rank) postRead(p *sim.Proc, q, s *Request) {
	net := r.world.Cluster.Net
	net.Post(p)
	s.peerReq, q.seq = q, p.Now()
	net.RDMAReadBy(r.node, s.rank.node, (*readRequest)(s), (*readLanded)(s))
}

// readRequest is an RGET send as the receiver of its read's control
// leg at its own node, which answers with the payload.
type readRequest Request

func (c *readRequest) Handle() {
	s := (*Request)(c)
	q := s.peerReq
	s.rank.world.Cluster.Net.RDMAReadReply(s.rank.node, q.rank.node, q.bytes, (*readLanded)(s))
}

// Deliver drops a corrupted or duplicated control request, as the HCA
// does.
func (c *readRequest) Deliver(d fabric.Delivery) {
	if !d.Corrupt && !d.Dup {
		c.Handle()
	}
}

// readLanded is an RGET send as the receiver of its payload at the
// reading rank, which copies it into the receive's staging.
type readLanded Request

func (l *readLanded) Handle() {
	s := (*Request)(l)
	q := s.peerReq
	sb, so := s.srcBuf()
	gpu.CopyRange(q.packed, 0, sb, so, q.bytes)
	q.dataHere = true
	if tl := q.rank.Timeline(); tl != nil {
		tl.Span(timeline.LayerMPI, timeline.CostNone, "net", "rdma-read", q.seq, q.rank.world.Env.Now()-q.seq,
			timeline.Arg{Key: "peer", Val: strconv.Itoa(s.rank.id)},
			timeline.Arg{Key: "bytes", Val: strconv.FormatInt(q.bytes, 10)})
	}
}

func (l *readLanded) Deliver(fabric.Delivery) { l.Handle() }

// postChunkRead posts the RDMA read of RTS-chunk m's span into receive
// q's staging without the reliability layer. m receives both legs of its
// read, as it received its own delivery.
func (r *Rank) postChunkRead(p *sim.Proc, q *Request, m *message) {
	net := r.world.Cluster.Net
	net.Post(p)
	m.receiver, m.readAt = q, p.Now()
	net.RDMAReadBy(r.node, r.world.ranks[m.from].node, (*chunkRequest)(m), (*chunkLanded)(m))
}

// chunkRequest is an RTS-chunk as the receiver of its read's control leg
// at the sender's node, which answers with the chunk.
type chunkRequest message

func (c *chunkRequest) Handle() {
	m := (*message)(c)
	q := m.receiver
	net := q.rank.world.Cluster.Net
	net.RDMAReadReply(q.rank.world.ranks[m.from].node, q.rank.node, m.chunkBytes, (*chunkLanded)(m))
}

// Deliver drops a corrupted or duplicated control request, as the HCA
// does.
func (c *chunkRequest) Deliver(d fabric.Delivery) {
	if !d.Corrupt && !d.Dup {
		c.Handle()
	}
}

// chunkLanded is an RTS-chunk as the receiver of its span at the reading
// rank, which copies it into the receive's staging.
type chunkLanded message

func (l *chunkLanded) Handle() {
	m := (*message)(l)
	q := m.receiver
	r := q.rank
	gpu.CopyRange(q.packed, m.chunkOff, m.sender.packed, m.chunkOff, m.chunkBytes)
	q.land(m.chunkBytes)
	if tl := r.Timeline(); tl != nil {
		tl.Span(timeline.LayerMPI, timeline.CostNone, "net", "rdma-read-chunk", m.readAt, r.world.Env.Now()-m.readAt,
			timeline.Arg{Key: "off", Val: strconv.FormatInt(m.chunkOff, 10)},
			timeline.Arg{Key: "bytes", Val: strconv.FormatInt(m.chunkBytes, 10)})
	}
}

func (l *chunkLanded) Deliver(fabric.Delivery) { l.Handle() }

// arrive runs in scheduler context when a message lands at this rank,
// with the fabric's delivery verdict. The reliability prologue discards
// corrupted frames (the checksum rejects them), re-acks duplicates, and
// acks + dedups tracked messages before they take effect.
func (r *Rank) arrive(m *message, d fabric.Delivery) {
	if r.world.isCrashed(r.id) {
		// A dead rank is silent: no acks, no matching, no progress. The
		// sender's retransmissions go unanswered until the failure
		// detector converts the silence into typed errors.
		return
	}
	if r.reliable() {
		if m.id != 0 {
			if d.Corrupt {
				// Damaged frame: header/payload CRC rejects it; the
				// sender's retransmission recovers.
				if m.wire.CorruptionUndetected() {
					panic("mpi: corruption not detected by checksum")
				}
				return
			}
			if r.seen[m.id] {
				r.sendAck(m) // retransmission or duplicate: re-ack only
				return
			}
			r.seen[m.id] = true
			r.sendAck(m)
		} else if d.Corrupt || (d.Dup && m.kind == mkErr) {
			return // untracked frame damaged or duplicated: drop
		}
	}
	switch m.kind {
	case mkCTS:
		m.receiver.ctsHere = true
	case mkFIN:
		m.receiver.finHere = true
	case mkRTSChunk:
		r.acceptChunk(m)
	case mkErr:
		if m.receiver != nil {
			r.fail(nil, m.receiver, "peer-abort", 0, ErrPeerAborted)
			return
		}
		// Unmatched abort: matched like an envelope, so it fails a
		// posted receive or parks for a future Irecv.
		r.admit(m)
	default: // eager data or RTS: needs matching
		r.admit(m)
	}
}

// match hands an envelope (or an unmatched abort) to the first matching
// posted receive, or parks it on the unexpected queue.
func (r *Rank) match(e envelope) {
	for i, q := range r.posted {
		if q.matches(e) {
			r.posted = slices.Delete(r.posted, i, i+1)
			r.deliver(q, e)
			return
		}
	}
	r.unexpected = append(r.unexpected, e)
}

// deliver attaches envelope e to matched receive q (scheduler or proc
// context; must not block).
func (r *Rank) deliver(q *Request, e envelope) {
	m := e.m
	if m != nil && m.kind == mkErr {
		// The matching send on the peer already failed.
		r.fail(nil, q, "peer-abort", 0, ErrPeerAborted)
		return
	}
	if n := e.bytes(); n > q.bytes {
		// MPI_ERR_TRUNCATE: the matched message is larger than the
		// posted receive. Under the reliability layer this is a typed
		// request error; without it, a programming-error panic.
		if r.reliable() {
			q.matched = m // lets the abort notification target the sender
			r.fail(nil, q, "match", 0, ErrTruncate)
			return
		}
		panic(fmt.Sprintf("mpi: message truncation: rank %d recv (src=%d tag=%d) posted %d bytes, message carries %d",
			r.id, q.peer, q.tag, q.bytes, n))
	}
	q.matched, q.peerReq = m, e.s
	// A message shorter than the posted receive is legal: receive exactly
	// its bytes, and unpack them into the front of the posted layout only
	// (recvShape), leaving the rest of the receive buffer untouched.
	q.bytes = e.bytes()
	s := q.rndvSend()
	if s == nil {
		// Eager: the payload came with the envelope.
		if q.contig {
			b := q.entry.Blocks[0]
			m.wire.CopyTo(q.buf, b.Offset)
			q.dataHere = true
			q.state = stWaitData // progress completes it
			return
		}
		q.packed = r.stagingBuf(q.bytes)
		m.wire.CopyTo(q.packed, 0)
		q.dataHere = true
		q.state = stWaitData
		return
	}
	q.state = stWaitData
	if s.pipe != nil {
		// Pipelined envelope: remember the cross link and adopt chunks
		// that raced ahead of the match.
		s.peerReq = q
		q.pipe = &pipeState{}
		q.packed = r.stagingBuf(q.bytes)
		r.adoptOrphanChunks(q)
	}
	// progress() drives RDMA read / CTS / IPC — those charge the receiving
	// proc, so they cannot run here.
}

// --- transfer initiation (sender side) ---

// srcBuf returns the buffer and base offset holding a send's wire bytes.
// The reliability layer lands the range with gpu.CopyRange and checks it
// only on a corrupt delivery (Buffer.CorruptionUndetected); both are
// payload-mode independent.
func (q *Request) srcBuf() (*gpu.Buffer, int64) {
	if q.contig {
		return q.buf, q.entry.Blocks[0].Offset
	}
	return q.packed, 0
}

// startTransfer moves a packed/contiguous payload toward the peer. The
// matchable envelope (eager data or RTS) is emitted through the
// per-destination FIFO so sends cannot overtake each other.
func (r *Rank) startTransfer(p *sim.Proc, q *Request) {
	if q.bytes > r.world.Cfg.EagerLimitBytes {
		q.state = stRTSSent
		if q.rtsSent {
			return // RPUT: the RTS went out while q was packing
		}
		q.rtsSent = true
	}
	r.emitInOrder(p, q)
}

// complete finishes a request successfully.
func (r *Rank) complete(q *Request) {
	q.state = stDone
	q.DoneAt = r.world.Env.Now()
	r.ReleaseStaging(q.packed, true)
	for i, a := range r.active {
		if a == q {
			r.active = append(r.active[:i], r.active[i+1:]...)
			break
		}
	}
	r.world.Env.Beat()
}

// --- progress engine ---

// progress advances every active request one step; called from Wait/Test.
func (r *Rank) progress(p *sim.Proc) {
	// A progressing rank is a live rank: refresh its heartbeat (the
	// failure detector piggybacks on the progress engine).
	r.world.heartbeat(r)
	if r.needDrain {
		// A failure from scheduler context advanced the envelope FIFO;
		// drain now that a proc is available (sorted for determinism).
		r.needDrain = false
		dests := make([]int, 0, len(r.emitWait))
		for d := range r.emitWait {
			dests = append(dests, d)
		}
		sort.Ints(dests)
		for _, d := range dests {
			r.drainEmits(p, d)
		}
	}
	if r.reliable() {
		r.retransmitScan(p)
	}
	// Iterate over a snapshot: completions mutate r.active. The snapshot
	// slice is taken from the rank while in use, so a nested poll, or the
	// first poll after a kill unwound this loop, starts a slice of its own.
	snap := append(r.snap[:0], r.active...)
	r.snap = nil
	for _, q := range snap {
		if q.settled() {
			continue
		}
		if q.isSend {
			r.progressSend(p, q)
		} else {
			r.progressRecv(p, q)
		}
	}
	clear(snap) // keep no settled request reachable
	r.snap = snap[:0]
}

func (r *Rank) progressSend(p *sim.Proc, q *Request) {
	switch q.state {
	case stPacking:
		if q.pipe != nil {
			r.progressPipelinedSend(p, q)
			return
		}
		if err := q.handle.Err(); err != nil {
			r.fail(p, q, "pack", 0, err)
			return
		}
		if !q.handle.Done(p) {
			return
		}
		q.state = stReadyToSend
		r.startTransfer(p, q)
	case stRTSSent:
		if q.handle != nil {
			if err := q.handle.Err(); err != nil {
				r.fail(p, q, "pack", 0, err)
				return
			}
		}
		if r.world.Cfg.Rendezvous == RPUT {
			if q.ctsHere && (q.contig || q.handle == nil || q.handle.Done(p)) {
				q.state = stWriting
				if r.reliable() {
					r.issueWrite(p, q, false)
					return
				}
				net := r.world.Cluster.Net
				net.Post(p)
				peer := r.world.ranks[q.peer]
				recvReq := q.peerReq
				t0 := p.Now()
				net.Send(r.node, peer.node, q.bytes, fabric.ReceiverFunc(func(fabric.Delivery) {
					if recvReq != nil {
						sb, so := q.srcBuf()
						gpu.CopyRange(recvReq.packed, 0, sb, so, q.bytes)
						recvReq.dataHere = true
					}
					q.finHere = true // local write completion
					if tl := r.Timeline(); tl != nil {
						tl.Span(timeline.LayerMPI, timeline.CostNone, "net", "rdma-write", t0, r.world.Env.Now()-t0,
							timeline.Arg{Key: "peer", Val: strconv.Itoa(q.peer)},
							timeline.Arg{Key: "bytes", Val: strconv.FormatInt(q.bytes, 10)})
					}
				}))
			}
			return
		}
		// RGET: wait for FIN after the receiver's read.
		if q.finHere {
			r.maybeComplete(q)
		}
	case stWriting, stWaitFin:
		if q.finHere {
			r.maybeComplete(q)
			return
		}
		if q.state == stWriting && r.reliable() {
			r.scanWrite(p, q)
		}
	}
}

func (r *Rank) progressRecv(p *sim.Proc, q *Request) {
	switch q.state {
	case stWaitData:
		s := q.rndvSend()
		if s != nil && s.pipe != nil {
			if !r.progressPipelinedRecv(p, q) {
				if r.reliable() && !q.settled() {
					r.scanReads(p, q)
				}
				return
			}
			// fall through to the completion handling below
		} else if s != nil && !q.rdmaStarted {
			q.rdmaStarted = true
			if s.ipcOffer() {
				r.startIPC(p, q, s)
				return
			}
			if r.world.Cfg.Rendezvous == RPUT {
				// Tell the sender where to put the data.
				q.packed = r.stagingBuf(q.bytes)
				s.peerReq = q
				r.signal(p, q, mkCTS)
				return
			}
			// RGET: pull the packed payload from the sender.
			q.packed = r.stagingBuf(q.bytes)
			if r.reliable() {
				r.issueRead(p, q, q.newRead(0, q.bytes), false)
				return
			}
			r.postRead(p, q, s)
			return
		}
		if !q.dataHere {
			if r.reliable() {
				r.scanReads(p, q)
			}
			return
		}
		// Payload landed. Under RGET the sender still waits for a
		// FIN; under RPUT its local write completion already fired.
		// finSent guards the reliable path, where an unacked FIN keeps
		// the request un-settled and this state re-entered each poll.
		if s != nil && r.world.Cfg.Rendezvous == RGET && !q.finSent {
			q.finSent = true
			r.signal(p, q, mkFIN)
		}
		if q.contig {
			if s != nil {
				b := q.entry.Blocks[0]
				gpu.CopyRange(q.buf, b.Offset, q.packed, 0, q.bytes)
			}
			r.maybeComplete(q)
			return
		}
		q.handle = r.scheme.Unpack(p, pack.Job{Op: pack.OpUnpack, Origin: q.packed, Target: q.buf, Shape: q.recvShape()})
		q.state = stUnpacking
	case stUnpacking:
		if err := q.handle.Err(); err != nil {
			r.fail(p, q, "unpack", 0, err)
			return
		}
		if q.handle.Done(p) {
			r.maybeComplete(q)
		}
	case stIPC:
		if err := q.handle.Err(); err != nil {
			r.fail(p, q, "ipc", 0, err)
			return
		}
		if q.handle.Done(p) {
			if !q.finSent {
				q.finSent = true
				r.signal(p, q, mkFIN)
			}
			r.maybeComplete(q)
		}
	}
}

// startIPC launches the zero-copy same-node path from send s into receive
// q, falling back to the packed path if the scheme cannot fuse DirectIPC.
func (r *Rank) startIPC(p *sim.Proc, q, s *Request) {
	job := pack.JobFor(pack.OpDirectIPC, s.buf, q.buf, s.entry)
	job.Peer = r.ipcLink(q)
	if h, ok := r.scheme.DirectIPC(p, job); ok {
		q.handle = h
		q.state = stIPC
		return
	}
	// Fallback: receiver pulls via staging as if inter-node; the sender
	// has no packed buffer, so stream the gather on the receiver's GPU
	// as an IPC job with identical layouts through a staging hop. For
	// simplicity (and matching MVAPICH2's behaviour when IPC is off) we
	// unpack directly from the sender's buffer with a plain kernel.
	h, _ := alwaysIPCFallback{r}.run(p, job)
	q.handle = h
	q.state = stIPC
}

// ipcLink returns the destination side of a DirectIPC job into receive q:
// its filled layout and the GPU-GPU link. A receive that its message fills
// shares its layout entry's cached Peer; a short one makes its own.
func (r *Rank) ipcLink(q *Request) *pack.Peer {
	full, i := q.bytes == q.entry.Bytes, int(q.entry.Index)
	if full && i < len(r.ipcLinks) && r.ipcLinks[i] != nil {
		return r.ipcLinks[i]
	}
	spec := r.world.Cluster.Spec
	pr := &pack.Peer{Shape: q.recvShape(), BWBytesPerNs: spec.GPUPeerBWBytesPerNs, LatencyNs: spec.GPUPeerLatencyNs}
	if full {
		for len(r.ipcLinks) <= i {
			r.ipcLinks = append(r.ipcLinks, nil)
		}
		r.ipcLinks[i] = pr
	}
	return pr
}

// recvShape returns the part of a receive's posted layout that the
// matched message fills: the cached shape, or for a short message a shape
// of its own over the prefix of blocks covering q.bytes, with no plan.
func (q *Request) recvShape() *layoutcache.Shape {
	if q.bytes == q.entry.Bytes {
		return &q.entry.Shape
	}
	var out []datatype.Block
	for n, i := q.bytes, 0; n > 0; i++ {
		b := q.entry.Blocks[i]
		b.Len = min(b.Len, n)
		out = append(out, b)
		n -= b.Len
	}
	s := layoutcache.NewShape(out)
	return &s
}

// alwaysIPCFallback runs DirectIPC as a plain (unfused) kernel when the
// scheme declines it.
type alwaysIPCFallback struct{ r *Rank }

func (f alwaysIPCFallback) run(p *sim.Proc, job pack.Job) (Handle, bool) {
	st := f.r.Dev.NewStream("ipc-fallback")
	c := st.Launch(p, job.KernelSpec())
	over := f.r.Dev.Arch.LaunchOverheadNs
	f.r.Trace.Charge(timeline.LayerMPI, trace.Launch, "ipc-fallback-launch", p.Now()-over, over)
	return completionHandle{c}, true
}

// completionHandle adapts a gpu.Completion to Handle with zero query cost
// (used only by the fallback path).
type completionHandle struct{ c *gpu.Completion }

func (h completionHandle) Done(p *sim.Proc) bool { return h.c.Done() }
func (h completionHandle) DoneEv() *sim.Event    { return h.c.Event() }
func (h completionHandle) Err() error            { return nil }

// --- waiting ---

// Progress drives the progress engine one step without flushing the
// scheme. The collective engine's batched wait uses it to advance protocol
// state (matching, RDMA, FINs, retransmissions) while a fusion window is
// holding pack/unpack launches back.
func (r *Rank) Progress(p *sim.Proc) { r.progress(p) }

// Processing reports that a receive's datatype processing (unpack or
// DirectIPC) has been handed to the scheme — the point at which a
// collective-scope fusion window has seen all of the receive's GPU work
// and may close. Settled requests report false; pair with Done/Failed.
func (q *Request) Processing() bool {
	return q.state == stUnpacking || q.state == stIPC
}

// Test advances progress once and reports whether q settled (completed or
// failed; check q.Err to distinguish).
func (r *Rank) Test(p *sim.Proc, q *Request) bool {
	r.progress(p)
	return q.settled()
}

// Wait blocks until q settles and returns its terminal error (nil on
// success).
func (r *Rank) Wait(p *sim.Proc, q *Request) error {
	return r.Waitall(p, []*Request{q})
}

// Waitall drives the progress engine until every request settles. It
// first flushes the scheme — the progress engine "has no more operations
// to request and reaches the synchronization point" (Section IV-C
// scenario 1) — then polls, attributing otherwise-idle waiting to Comm.
// The joined typed errors of failed requests are returned; nil means every
// request completed successfully. Deadlocks are the sim watchdog's job
// (Config.StallTimeoutNs), not Waitall's.
func (r *Rank) Waitall(p *sim.Proc, reqs []*Request) error {
	for {
		// Flush first: the progress engine has nothing further to
		// enqueue before this synchronization point, so any pending
		// fused work (including unpacks enqueued by the previous
		// poll iteration) must launch now.
		r.scheme.Flush(p)
		r.progress(p)
		done := 0
		for _, q := range reqs {
			if q.settled() {
				done++
			}
		}
		if done == len(reqs) {
			// Collect errors strictly in request index order — never in
			// settle order. In a mixed batch the caller sees the first
			// failed request's typed error first (e.g. request 0's
			// *OpError before request 1's ErrPeerAborted), regardless of
			// which one failed first on the virtual clock. This keeps
			// multi-error reports deterministic and is locked in by
			// TestWaitallErrorOrderDeterministic.
			var errs []error
			for _, q := range reqs {
				if q.err != nil {
					errs = append(errs, q.err)
				}
			}
			return errors.Join(errs...)
		}
		// Attribute the idle poll: if some request is still inside a
		// pack/unpack handle the CPU is effectively synchronizing with
		// the GPU; otherwise it is observing communication.
		cat := trace.Comm
		for _, q := range reqs {
			if !q.settled() && (q.state == stPacking || q.state == stUnpacking || q.state == stIPC) {
				cat = trace.Sync
				break
			}
		}
		r.Trace.Charge(timeline.LayerMPI, cat, "poll", p.Now(), r.world.Cfg.PollIntervalNs)
		p.Sleep(r.world.Cfg.PollIntervalNs)
	}
}

// Barrier synchronizes all ranks (linear counter barrier; the experiments
// only use it between iterations, so its cost shape is irrelevant). Under
// failure tolerance it synchronizes the *live* ranks: per-rank arrival
// tracking (not a bare counter) guards against a rank that arrived and then
// died inflating the count, and the failure detector re-evaluates the
// barrier when it declares a death.
func (w *World) Barrier(p *sim.Proc) {
	if w.ftOn {
		w.ftBarrier(p)
		return
	}
	if w.barrierEv == nil {
		w.barrierEv = w.Env.NewEvent("barrier")
	}
	w.barrierCount++
	if w.barrierCount == len(w.ranks) {
		w.barrierCount = 0
		ev := w.barrierEv
		w.barrierEv = nil
		ev.Fire()
		return
	}
	ev := w.barrierEv
	p.Wait(ev)
}
