// Package rma is the one-sided (NVSHMEM-style) communication backend,
// layered beside the point-to-point/rendezvous engine of internal/mpi.
// It provides a per-rank symmetric heap (window allocations mirrored
// across every rank at identical offsets), one-sided Put/Get/PutSignal
// verbs, signal wait/poll primitives, and Quiet/Fence completion
// semantics — all on the virtual clock with a one-sided cost model: a
// put pays the NIC doorbell (verb post) plus the wire leg, never the
// RTS/CTS/FIN control round-trip of the rendezvous protocol, and no CPU
// progress engine runs on the target.
//
// PackPut is the fused pack-and-put primitive: a single pack-kernel
// launch whose retirement deposits the packed bytes directly onto the
// wire (GPU-triggered communication), eliminating the stream-sync gap
// between packing and posting that the CPU-driven path pays.
//
// Fault injection extends to the put path through Plan.RMA (drop,
// CRC-reject corrupt, delay, signal loss), rolled at per-endpoint sites
// ("rma:rankN"). Recovery is endpoint-local: every issued op arms a
// deterministic retransmission timer (only when an injector is
// installed, so fault-free runs keep their event streams byte-identical)
// and placement is idempotent — payload and signal application are
// guarded separately, so a put whose signal was lost retransmits without
// double-depositing bytes. Exact and lazy payload modes share one code
// path via gpu.CopyRange.
package rma

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// ErrRetriesExhausted surfaces from Quiet when an op's bounded
// retransmissions all failed.
var ErrRetriesExhausted = errors.New("rma: retries exhausted")

// OpError wraps a failed one-sided operation. Target is a fabric member
// index (identical to the world rank until the fabric is reseated onto a
// survivor communicator).
type OpError struct {
	Verb   string
	Target int
	Tries  int
	Err    error
}

func (e *OpError) Error() string {
	return fmt.Sprintf("rma: %s to rank %d failed after %d tries: %v", e.Verb, e.Target, e.Tries, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// RevokedError reports a one-sided access on a revoked (or superseded)
// fabric epoch: the communicator backing the fabric was revoked, or the
// window/signal belongs to an epoch an intervening Reseat replaced. It
// unwraps to mpi.ErrCommRevoked, so the chaos contract's
// errors.Is(err, mpi.ErrCommRevoked) holds for one-sided survivors too.
type RevokedError struct {
	Epoch int   // the invalidated fabric epoch
	At    int64 // virtual time of revocation (or reseat)
}

func (e *RevokedError) Error() string {
	return fmt.Sprintf("rma: fabric epoch %d revoked at %dns", e.Epoch, e.At)
}

func (e *RevokedError) Unwrap() error { return mpi.ErrCommRevoked }

// Fabric is the one-sided fabric: one symmetric heap and one endpoint
// per rank. It is built over an existing mpi.World and shares its
// cluster, clock, fault injector, and timeline.
//
// A fabric is bound to a communicator epoch. At construction it spans
// the whole world (epoch 0, member index == world rank). After a rank
// failure, Reseat re-rendezvouses the fabric onto a Shrink survivor
// communicator: members are densely re-ranked, the symmetric heap is
// rebuilt from scratch (fresh mirrored offsets), and windows/signals of
// the old epoch are invalidated. Verb targets and window/signal rank
// indices are always member indices of the fabric's current epoch.
type Fabric struct {
	w     *mpi.World
	heap  *Heap
	eps   []*Endpoint
	named map[string]*winRef
	sigs  map[string]*Signal

	// Epoch state (ft.go). members maps member index -> world rank;
	// mindex is the inverse (-1 for non-members).
	comm      *mpi.Comm
	epoch     int
	members   []int
	mindex    []int
	joined    []int // per world rank: last epoch the rank joined (reseat charge dedup)
	revoked   bool
	revokedAt int64
	ft        bool        // world has failure tolerance armed
	fsite     *fault.Site // fabric-level reap/reseat event site (nil without injector)

	nextOp   int64
	nextColl int
	free     []*op // settled ops to reuse (see op); empty under faults or failure tolerance
}

// New builds the one-sided fabric for a world, spanning every rank at
// epoch 0. Multiple fabrics over one world are independent (separate
// heaps and endpoints) but share the wire and the injector's per-site
// streams. When the world has failure tolerance armed, the fabric
// registers with the heartbeat detector so in-flight deposits involving
// a declared-dead rank are reaped, and with the revocation observer so
// comm revocation invalidates the matching fabric epoch.
func New(w *mpi.World) *Fabric {
	f := &Fabric{
		w:     w,
		named: make(map[string]*winRef),
		sigs:  make(map[string]*Signal),
		ft:    w.FTEnabled(),
	}
	f.heap = &Heap{f: f, align: 64}
	n := w.Size()
	f.members = make([]int, n)
	f.mindex = make([]int, n)
	f.joined = make([]int, n)
	for i := 0; i < n; i++ {
		f.members[i] = i
		f.mindex[i] = i
	}
	inj := w.Injector()
	for i := 0; i < n; i++ {
		ep := &Endpoint{f: f, r: w.Rank(i)}
		if inj != nil {
			ep.site = inj.Site(fmt.Sprintf("rma:rank%d", i))
		}
		f.eps = append(f.eps, ep)
	}
	if inj != nil {
		f.fsite = inj.Site("rma:fabric")
	}
	if f.ft {
		w.OnRankFailed(f.reapDead)
		w.OnCommRevoked(f.commRevoked)
	}
	return f
}

// Endpoint returns world rank i's one-sided endpoint. Endpoints are
// world-rank addressed across reseats (the NIC belongs to the machine,
// not the epoch); verb targets are member indices.
func (f *Fabric) Endpoint(rank int) *Endpoint { return f.eps[rank] }

// Epoch reports the communicator epoch the fabric currently serves
// (0 = the unshrunk world).
func (f *Fabric) Epoch() int { return f.epoch }

// MemberOf translates a world rank to its member index at the current
// epoch (-1 for non-members).
func (f *Fabric) MemberOf(worldRank int) int {
	if worldRank < 0 || worldRank >= len(f.mindex) {
		return -1
	}
	return f.mindex[worldRank]
}

// NextCollID hands out collective-engine namespace ids so two engines
// over one fabric never collide on window/signal names.
func (f *Fabric) NextCollID() int {
	f.nextColl++
	return f.nextColl
}

// PendingOps sums incomplete operations across all endpoints — the
// leak oracle chaos tests assert reaches zero.
func (f *Fabric) PendingOps() int {
	n := 0
	for _, ep := range f.eps {
		n += ep.pending
	}
	return n
}

// TotalStats aggregates endpoint counters across the fabric.
func (f *Fabric) TotalStats() Stats {
	var s Stats
	for _, ep := range f.eps {
		s.add(ep.Stats)
	}
	return s
}

func (f *Fabric) net() *fabric.Network { return f.w.Cluster.Net }
func (f *Fabric) env() *sim.Env        { return f.w.Env }

// Stats counts one-sided activity on an endpoint.
type Stats struct {
	Puts        int64 // Put/PutSignal ops issued
	Gets        int64 // Get ops issued
	PackPuts    int64 // fused/unfused pack-and-put ops issued
	Doorbells   int64 // NIC verb posts (including doorbell retries)
	Retransmits int64 // timer-driven re-issues
	Polls       int64 // quiet/signal poll sleeps
	CtrlPuts    int64 // zero-payload control SignalPuts (offset exchange etc.)
	Reaped      int64 // in-flight ops completed early because a rank died
	BytesPut    int64
	BytesGot    int64
}

func (s *Stats) add(o Stats) {
	s.Puts += o.Puts
	s.Gets += o.Gets
	s.PackPuts += o.PackPuts
	s.Doorbells += o.Doorbells
	s.Retransmits += o.Retransmits
	s.Polls += o.Polls
	s.CtrlPuts += o.CtrlPuts
	s.Reaped += o.Reaped
	s.BytesPut += o.BytesPut
	s.BytesGot += o.BytesGot
}

// Endpoint is one rank's attachment to the one-sided fabric: the issue
// path for verbs, the completion state Quiet polls, and the per-rank
// fault site.
type Endpoint struct {
	f      *Fabric
	r      *mpi.Rank
	site   *fault.Site // nil without an injector: no timers, no rolls
	stream *gpu.Stream // lazily created pack-and-put stream

	pending  int           // ops issued and not yet complete
	inflight map[int64]*op // op registry for the reaper (only under failure tolerance)
	firstErr error

	Stats Stats
}
