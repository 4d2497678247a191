// Package fabric models the cluster interconnect: point-to-point links with
// latency, bandwidth, and per-message processing cost, and NIC verbs (send,
// RDMA read, RDMA write) layered on top. Links serialize payloads — two
// messages on the same directional link share its bandwidth by queueing —
// while latency pipelines.
//
// The model corresponds to the systems in the paper's Table II: dual-rail
// InfiniBand EDR between nodes, NVLink2 or PCIe Gen3 between CPU and GPU,
// and NVLink2 between GPUs inside a node.
//
// Fault injection: InjectFaults threads a fault.Injector through the
// crossbar. Each directional link owns an independent draw site; every
// transfer then rolls (in fixed order) flap, degrade, drop, corrupt, delay,
// and duplicate faults per the plan. A link with no site installed keeps
// the exact fault-free arithmetic, so fault-free runs are byte-identical to
// builds without the injector.
package fabric

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/sim"
)

// LinkSpec describes one directional channel.
type LinkSpec struct {
	Name         string
	LatencyNs    int64   // propagation + switch latency
	BWBytesPerNs float64 // serialization bandwidth
	PerMessageNs int64   // per-message NIC/DMA processing cost
}

// Validate reports an error on nonsense parameters.
func (s LinkSpec) Validate() error {
	if s.BWBytesPerNs <= 0 {
		return fmt.Errorf("fabric: link bandwidth must be positive: %s", s.Name)
	}
	if s.LatencyNs < 0 || s.PerMessageNs < 0 {
		return fmt.Errorf("fabric: negative link costs: %s", s.Name)
	}
	return nil
}

// Delivery describes how one message actually arrived.
type Delivery struct {
	// Corrupt marks the payload as damaged in flight; receivers that
	// checksum must discard and rely on retransmission.
	Corrupt bool
	// Dup marks the second arrival of a duplicated message.
	Dup bool
}

// Receiver takes a message's arrival in scheduler context. A clean
// delivery calls Handle, so an object that already exists (an operation,
// a message) is queued as its own arrival, with no closure; a corrupted or
// duplicated delivery calls Deliver with the verdict.
type Receiver interface {
	sim.Handler
	Deliver(Delivery)
}

// ReceiverFunc adapts a func(Delivery) to Receiver.
type ReceiverFunc func(Delivery)

// Handle is a clean delivery: f(Delivery{}).
func (f ReceiverFunc) Handle() { f(Delivery{}) }

// Deliver calls f(d).
func (f ReceiverFunc) Deliver(d Delivery) { f(d) }

// deliverAt queues h's arrival at t: h itself for a clean delivery, a
// closure carrying the verdict otherwise.
func deliverAt(env *sim.Env, t int64, h Receiver, d Delivery) {
	if d == (Delivery{}) {
		env.AtHandler(t, h)
		return
	}
	env.At(t, func() { h.Deliver(d) })
}

// Link is a directional channel instance with an occupancy cursor. It
// reads its network's spec and is named from its endpoints only when the
// name is read.
type Link struct {
	spec      *LinkSpec
	env       *sim.Env
	busyUntil int64
	from, to  int32 // crossbar endpoints

	// faults is made by InjectFaults; nil (or a nil site) is the
	// fault-free fast path.
	faults *linkFaults

	// Stats
	Messages int64
	Bytes    int64
}

// linkFaults is a link's fault state: its draw site, its outage and
// degrade windows, and what it injected.
type linkFaults struct {
	site          *fault.Site
	downUntil     int64 // link flapped; serialization queues behind this
	degradedUntil int64 // bandwidth divided by DegradeFactor until this

	drops, dups, corrupts, delays, flaps, degrades int64
}

// Name is the spec's name, suffixed [from->to].
func (l *Link) Name() string {
	return fmt.Sprintf("%s[%d->%d]", l.spec.Name, l.from, l.to)
}

// InjectFaults installs the link's draw site. Nil restores the fault-free
// fast path; the link keeps its fault counts.
func (l *Link) InjectFaults(site *fault.Site) {
	if l.faults == nil {
		if site == nil {
			return
		}
		l.faults = &linkFaults{}
	}
	l.faults.site = site
}

// Transfer schedules bytes onto the link, delivering to h (nil: nothing is
// delivered). The payload occupies the link for its serialization time
// starting when the link frees up; h receives it (in scheduler context)
// one latency after serialization completes. Transfer itself costs the
// caller nothing — callers model their own CPU posting cost. Under an
// installed fault site the message may be dropped (nothing is delivered),
// duplicated (delivered twice, the second with Dup set), delayed, or
// corrupted; the link itself may flap (traffic queues until it returns) or
// degrade (reduced bandwidth window). Returns the nominal arrival time.
func (l *Link) Transfer(bytes int64, h Receiver) int64 {
	now := l.env.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	spec := l.spec
	bw := spec.BWBytesPerNs
	f := l.faults
	if f != nil && f.site == nil {
		f = nil
	}
	if f != nil {
		s := f.site
		lp := &s.Plan().Link
		if s.Roll(lp.FlapProb) {
			f.downUntil = now + lp.FlapDownNs
			f.flaps++
			s.Recordf(fault.Flap, "down for %dns", lp.FlapDownNs)
		}
		if f.downUntil > start {
			// Link-layer retransmission: traffic queues behind the outage
			// rather than vanishing.
			start = f.downUntil
		}
		if s.Roll(lp.DegradeProb) {
			f.degradedUntil = now + lp.DegradeNs
			f.degrades++
			s.Recordf(fault.Degrade, "bw/%g for %dns", lp.DegradeFactor, lp.DegradeNs)
		}
		if start < f.degradedUntil {
			bw /= lp.DegradeFactor
		}
	}
	ser := spec.PerMessageNs + int64(math.Ceil(float64(bytes)/bw))
	l.busyUntil = start + ser
	arrive := start + ser + spec.LatencyNs
	l.Messages++
	l.Bytes += bytes
	d := Delivery{}
	dup := false
	if f != nil {
		s := f.site
		lp := &s.Plan().Link
		if s.Roll(lp.DropProb) {
			f.drops++
			s.Recordf(fault.Drop, "%dB", bytes)
			return arrive
		}
		if s.Roll(lp.CorruptProb) {
			d.Corrupt = true
			f.corrupts++
			s.Recordf(fault.Corrupt, "%dB", bytes)
		}
		if s.Roll(lp.DelayProb) {
			extra := 1 + s.Int63n(lp.DelayMaxNs)
			arrive += extra
			f.delays++
			s.Recordf(fault.Delay, "+%dns", extra)
		}
		dup = s.Roll(lp.DupProb)
	}
	if h != nil {
		deliverAt(l.env, arrive, h, d)
		if dup {
			f.dups++
			f.site.Recordf(fault.Duplicate, "%dB", bytes)
			d2 := d
			d2.Dup = true
			deliverAt(l.env, arrive+spec.PerMessageNs, h, d2)
		}
	}
	return arrive
}

// NetworkSpec configures an inter-node network.
type NetworkSpec struct {
	Nodes int
	// Link is the spec used for every directional node pair.
	Link LinkSpec
	// PostCostNs is the CPU cost of posting one work request to the NIC
	// (ibv_post_send and friends).
	PostCostNs int64
	// CtrlBytes is the size charged for control packets (RTS/CTS/FIN).
	CtrlBytes int64
}

// Validate reports an error on nonsense parameters.
func (s NetworkSpec) Validate() error {
	if s.Nodes <= 0 {
		return errors.New("fabric: network needs at least one node")
	}
	if err := s.Link.Validate(); err != nil {
		return err
	}
	if s.PostCostNs < 0 || s.CtrlBytes < 0 {
		return errors.New("fabric: negative network costs")
	}
	return nil
}

// ErrNICPost is the transient verb-post failure injected by a NIC fault
// plan; callers retry with backoff.
var ErrNICPost = errors.New("fabric: transient NIC verb post failure")

// Network is a full crossbar of directional links between nodes.
type Network struct {
	Spec NetworkSpec
	env  *sim.Env
	// links[from*Nodes+to] is the link from -> to; the diagonal is unused.
	links []Link
	nic   *fault.Site // verb-post fault site (nil = fault-free)
}

// NewNetwork builds the crossbar.
func NewNetwork(env *sim.Env, spec NetworkSpec) (*Network, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.CtrlBytes <= 0 {
		spec.CtrlBytes = 64
	}
	nodes := spec.Nodes
	n := &Network{Spec: spec, env: env, links: make([]Link, nodes*nodes)}
	for i := range n.links {
		n.links[i] = Link{spec: &n.Spec.Link, env: env, from: int32(i / nodes), to: int32(i % nodes)}
	}
	return n, nil
}

// eachLink calls f on every directional link in (from, to) order.
func (n *Network) eachLink(f func(*Link)) {
	for i := range n.links {
		if l := &n.links[i]; l.from != l.to {
			f(l)
		}
	}
}

// InjectFaults installs per-link and NIC draw sites from inj (nil removes
// them). Links are wired in (from, to) order so site creation order — and
// hence nothing at all, since sites are independently seeded — cannot
// perturb determinism.
func (n *Network) InjectFaults(inj *fault.Injector) {
	if inj == nil {
		n.nic = nil
		n.eachLink(func(l *Link) { l.InjectFaults(nil) })
		return
	}
	n.nic = inj.Site("nic")
	fs := make([]linkFaults, 0, len(n.links))
	n.eachLink(func(l *Link) {
		if l.faults == nil {
			fs = append(fs, linkFaults{})
			l.faults = &fs[len(fs)-1]
		}
		l.faults.site = inj.Site("link:" + l.Name())
	})
}

// LinkBetween returns the directional link from node a to node b.
func (n *Network) LinkBetween(a, b int) *Link {
	nodes := n.Spec.Nodes
	if a == b || uint(a) >= uint(nodes) || uint(b) >= uint(nodes) {
		panic(fmt.Sprintf("fabric: no link %d->%d", a, b))
	}
	return &n.links[a*nodes+b]
}

// Post charges the calling proc the NIC posting cost.
func (n *Network) Post(p *sim.Proc) {
	p.Sleep(n.Spec.PostCostNs)
}

// PostV charges the posting cost and, under a NIC fault plan, may fail
// transiently with ErrNICPost (the cost is paid either way, as a rejected
// verb still burns the CPU round trip).
func (n *Network) PostV(p *sim.Proc) error {
	p.Sleep(n.Spec.PostCostNs)
	if s := n.nic; s != nil && s.Roll(s.Plan().NIC.PostErrorProb) {
		s.Record(fault.NICError, "post")
		return ErrNICPost
	}
	return nil
}

// Send ships bytes from node `from` to node `to`, delivering to h when the
// message arrives (see Link.Transfer). The caller should have paid Post.
// Loopback (from == to) is a shared-memory copy: it delivers after a small
// constant memcpy-like delay and never faults. An RDMA write is a send on
// the wire: one payload leg.
func (n *Network) Send(from, to int, bytes int64, h Receiver) int64 {
	if from == to {
		arrive := n.env.Now() + n.Spec.Link.PerMessageNs
		if h != nil {
			n.env.AtHandler(arrive, h)
		}
		return arrive
	}
	return n.LinkBetween(from, to).Transfer(bytes, h)
}

// RDMAReadBy issues a one-sided read from node target into node reader: a
// control request travels reader->target, then the payload travels
// target->reader. The read's own object receives both legs, as a message
// receives its own delivery, so the read makes no closure. ctrl receives
// the control request at the target: on a clean arrival it answers with
// RDMAReadReply, and it ignores a corrupted or duplicated request (the
// HCA's CRC rejects it; a duplicate asks for nothing new), so a dropped or
// corrupted control leg silently aborts the read. Payload-leg faults reach
// data.Deliver. A loopback read has no control leg: data receives the
// payload after the shared-memory copy delay.
func (n *Network) RDMAReadBy(reader, target int, ctrl, data Receiver) {
	if reader == target {
		arrive := n.env.Now() + n.Spec.Link.PerMessageNs
		if data != nil {
			n.env.AtHandler(arrive, data)
		}
		return
	}
	n.LinkBetween(reader, target).Transfer(n.Spec.CtrlBytes, ctrl)
}

// RDMAReadReply sends an RDMA read's payload leg of bytes from node target
// back to node reader, delivered to h.
func (n *Network) RDMAReadReply(target, reader int, bytes int64, h Receiver) {
	n.LinkBetween(target, reader).Transfer(bytes, h)
}

// TotalBytes sums payload bytes across all links (for tests/metrics).
func (n *Network) TotalBytes() int64 {
	var sum int64
	for i := range n.links {
		sum += n.links[i].Bytes
	}
	return sum
}

// TotalMessages sums message counts across all links.
func (n *Network) TotalMessages() int64 {
	var sum int64
	for i := range n.links {
		sum += n.links[i].Messages
	}
	return sum
}

// FaultCounts sums per-link fault stats across the crossbar, rendered as
// "drops=N dups=N corrupts=N delays=N flaps=N degrades=N" (zeros included),
// for diagnostics.
func (n *Network) FaultCounts() string {
	var t linkFaults
	n.eachLink(func(l *Link) {
		if f := l.faults; f != nil {
			t.drops += f.drops
			t.dups += f.dups
			t.corrupts += f.corrupts
			t.delays += f.delays
			t.flaps += f.flaps
			t.degrades += f.degrades
		}
	})
	return fmt.Sprintf("drops=%d dups=%d corrupts=%d delays=%d flaps=%d degrades=%d",
		t.drops, t.dups, t.corrupts, t.delays, t.flaps, t.degrades)
}
