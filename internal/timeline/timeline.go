// Package timeline records per-rank event traces on the deterministic
// virtual clock. Where internal/trace answers "how much time went to each
// cost category" (the paper's Fig. 11 breakdown), timeline answers *when* —
// every kernel launch, fused flush, rendezvous handshake, RDMA transfer, and
// scheduler sleep becomes a span with {rank, layer, category, name, start,
// duration, args}.
//
// The recorder is designed for a zero-cost disabled path: a nil *Recorder is
// a valid, fully disabled recorder, every method is a nil-safe no-op, and
// instrumentation sites guard any allocation (name formatting, arg
// construction) behind an explicit nil check. Memory is bounded by a ring
// buffer; cost sums are accumulated at emit time and survive ring eviction,
// so the per-category totals always reconcile with trace.Breakdown even when
// old events have been dropped. Cost-carrying spans come only from a rank's
// Ledger, whose one Charge method feeds both views.
package timeline

import (
	"repro/internal/trace"
)

// Layer identifies which simulation subsystem emitted an event.
type Layer uint8

const (
	// LayerSim is the discrete-event kernel: proc lifetimes, sleeps, waits.
	LayerSim Layer = iota
	// LayerGPU is the device model: kernels, copies, stream/event waits.
	LayerGPU
	// LayerMPI is the message runtime: eager/rendezvous protocol phases,
	// progress-engine polls, pipeline chunks.
	LayerMPI
	// LayerFusion is the dynamic kernel-fusion scheduler: enqueues,
	// threshold trips, flushes.
	LayerFusion
	// LayerFault is the fault injector and reliability layer: injected
	// drops/flaps/corruptions and the recovery actions (timeouts,
	// retransmissions, fallbacks) they trigger.
	LayerFault
	// LayerFailure is the rank-failure tolerance machinery: crashes,
	// heartbeat detections, communicator revoke/shrink/agree.
	LayerFailure
	// LayerColl is the collective-communication engine: per-collective
	// windows, schedule passes, and phase markers.
	LayerColl
	// LayerRMA is the one-sided backend: symmetric-heap windows, put/get
	// doorbells, wire legs, signal waits, and quiet/fence polls.
	LayerRMA

	numLayers
)

var layerNames = [numLayers]string{"sim", "gpu", "mpi", "fusion", "fault", "failure", "coll", "rma"}

func (l Layer) String() string {
	if l >= numLayers {
		return "layer?"
	}
	return layerNames[l]
}

// CostNone marks an event that carries no Breakdown cost — a machine-view
// span (GPU stream occupancy, wire time) or a protocol marker. Events with
// Cost != CostNone mirror exactly one Ledger.Charge; summing their durations
// per category reproduces the ledger's breakdown.
const CostNone trace.Category = -1

// Arg is one key/value annotation on an event.
type Arg struct {
	Key string
	Val string
}

// Event is one recorded span (Dur > 0) or instant (Dur == 0).
type Event struct {
	Layer Layer
	// Cost is the Breakdown category this event's duration was charged to,
	// or CostNone for machine-view/protocol events.
	Cost  trace.Category
	Track string // sub-track within the rank: "" = cpu, else stream/net/sched
	Name  string
	Start int64 // virtual ns
	Dur   int64 // virtual ns
	Args  []Arg
}

// End returns the event's end time.
func (e Event) End() int64 { return e.Start + e.Dur }

// DefaultCapacity bounds the ring buffer when the caller doesn't choose.
const DefaultCapacity = 1 << 16

// Recorder collects events for one rank. A nil Recorder is disabled: every
// method no-ops, costs nothing, and allocates nothing.
type Recorder struct {
	max     int
	buf     []Event // grows to max, then becomes a ring
	head    int     // oldest element once len(buf) == max
	last    int     // index of most recently written event, -1 if none
	dropped int64
	sums    []int64 // per-category emitted cost, never evicted
	counts  []int64 // per-category event counts, never evicted
}

// NewRecorder builds an enabled recorder with the given ring capacity
// (<= 0 selects DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		max:    capacity,
		last:   -1,
		sums:   make([]int64, trace.NumCategories()),
		counts: make([]int64, trace.NumCategories()),
	}
}

// Span records an event. Consecutive events with identical layer, cost,
// track, and name that abut exactly (prev end == next start) and carry no
// args are coalesced into one span — this keeps progress-engine poll loops
// from flooding the ring — but their cost still accrues per emission, so
// Sums stays exact.
func (r *Recorder) Span(layer Layer, cost trace.Category, track, name string, start, dur int64, args ...Arg) {
	if r == nil {
		return
	}
	if dur < 0 {
		panic("timeline: negative duration for " + name)
	}
	if cost >= 0 {
		if int(cost) >= len(r.sums) {
			panic("timeline: bad cost category for " + name)
		}
		r.sums[cost] += dur
		r.counts[cost]++
	}
	if len(args) == 0 && r.last >= 0 {
		le := &r.buf[r.last]
		if le.Layer == layer && le.Cost == cost && le.Track == track &&
			le.Name == name && len(le.Args) == 0 && le.End() == start && dur > 0 {
			le.Dur += dur
			return
		}
	}
	ev := Event{Layer: layer, Cost: cost, Track: track, Name: name, Start: start, Dur: dur, Args: args}
	if len(r.buf) < r.max {
		r.buf = append(r.buf, ev)
		r.last = len(r.buf) - 1
		return
	}
	// Ring is full: overwrite the oldest.
	r.buf[r.head] = ev
	r.last = r.head
	r.head++
	if r.head == r.max {
		r.head = 0
	}
	r.dropped++
}

// Instant records a zero-duration marker.
func (r *Recorder) Instant(layer Layer, track, name string, at int64, args ...Arg) {
	if r == nil {
		return
	}
	r.Span(layer, CostNone, track, name, at, 0, args...)
}

// Events returns the retained events in emission order. The slice aliases
// internal storage only when no eviction has occurred; treat it as read-only.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if len(r.buf) < r.max || r.head == 0 {
		return r.buf
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Sums returns the per-category cost totals across every emitted event —
// including evicted ones — as a Breakdown. By construction this equals the
// breakdown of the Ledger that owns the recorder.
func (r *Recorder) Sums() *trace.Breakdown {
	b := &trace.Breakdown{}
	if r == nil {
		return b
	}
	for i, v := range r.sums {
		b.Add(trace.Category(i), v)
	}
	return b
}

// Count reports how many cost-carrying events were emitted for category c.
func (r *Recorder) Count(c trace.Category) int64 {
	if r == nil || c < 0 || int(c) >= len(r.counts) {
		return 0
	}
	return r.counts[c]
}

// reset discards all recorded events and zeroes the cost sums; Ledger.Reset
// calls it with the paired breakdown's reset.
func (r *Recorder) reset() {
	if r == nil {
		return
	}
	r.buf = r.buf[:0]
	r.head = 0
	r.last = -1
	r.dropped = 0
	for i := range r.sums {
		r.sums[i] = 0
		r.counts[i] = 0
	}
}
