package coll

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/sim"
)

// VOp is one buffer slot of a v-collective: a buffer, a layout, and an
// element count. Displacements are folded into the layout (byte-based,
// via datatype.Hindexed).
type VOp struct {
	Buf   *gpu.Buffer
	Type  *datatype.Layout
	Count int
}

func (op VOp) bytes() int64 {
	if op.Type == nil {
		return 0
	}
	return op.Type.SizeBytes * int64(op.Count)
}

// Allgatherv gathers every rank's contribution to every rank: send is this
// rank's contribution, recvs[i] is where rank i's contribution lands in
// this rank's receive space (recvs[self] included). Every rank must pass
// size-consistent arguments (rank i's send byte count == everyone's
// recvs[i] byte count): like MPI_Allgatherv's recvcounts vector, the full
// recvs slice is significant on every rank, which is what lets the
// hierarchical variant plan without a size exchange.
func (e *Engine) Allgatherv(p *sim.Proc, r *mpi.Rank, send VOp, recvs []VOp) error {
	if len(recvs) != e.size() {
		return fmt.Errorf("coll: Allgatherv: %d recv slots for %d ranks", len(recvs), e.size())
	}
	alg := e.tuning.Allgatherv
	if err := validAlg("allgatherv", alg, Linear, Ring, Bruck, RecursiveDoubling, Hierarchical, OneSidedRing, OneSidedBruck); err != nil {
		return err
	}
	if alg == Auto {
		alg = e.pickAllgatherv(recvs)
	}
	alg = e.flatten(alg)
	if alg == RecursiveDoubling && !isPow2(e.size()) {
		return fmt.Errorf("coll: allgatherv recursive-doubling requires a power-of-two world, have %d ranks", e.size())
	}
	c := e.begin(r, p, 2*len(recvs))
	var err error
	switch alg {
	case Linear:
		err = c.allgathervLinear(send, recvs)
	case Ring:
		err = c.allgathervRing(send, recvs)
	case Bruck:
		err = c.allgathervBruck(send, recvs)
	case RecursiveDoubling:
		err = c.allgathervRD(send, recvs)
	case Hierarchical:
		err = c.allgathervHier(send, recvs)
	case OneSidedRing, OneSidedBruck:
		err = c.allgathervOneSided(send, recvs, alg == OneSidedBruck)
	}
	return c.finish("allgatherv", alg.String(), err)
}

func (e *Engine) pickAllgatherv(recvs []VOp) Algorithm {
	var maxLeg int64
	for _, op := range recvs {
		if b := op.bytes(); b > maxLeg {
			maxLeg = b
		}
	}
	if maxLeg <= smallMsgBytes {
		return Bruck
	}
	if e.topoHierarchical() {
		return Hierarchical
	}
	if isPow2(e.size()) {
		return RecursiveDoubling
	}
	return Ring
}

// selfCopy lands this rank's own contribution via the loopback path, as
// its own fused mini-phase (ring/Bruck/RD forward out of recvs[self]).
func (c *call) selfCopy(send VOp, recvs []VOp) error {
	id := c.rank()
	return c.exchangePhase(
		[]leg{{peer: id, tag: c.tag(tagData), buf: recvs[id].Buf, l: recvs[id].Type, count: recvs[id].Count}},
		[]leg{{peer: id, tag: c.tag(tagData), buf: send.Buf, l: send.Type, count: send.Count}},
	)
}

func (c *call) allgathervLinear(send VOp, recvs []VOp) error {
	rl := make([]leg, 0, len(recvs))
	sl := make([]leg, 0, len(recvs))
	for peer, op := range recvs {
		rl = append(rl, leg{peer: peer, tag: c.tag(tagData), buf: op.Buf, l: op.Type, count: op.Count})
		sl = append(sl, leg{peer: peer, tag: c.tag(tagData), buf: send.Buf, l: send.Type, count: send.Count})
	}
	return c.exchangePhase(rl, sl)
}

// allgathervRing circulates blocks around the ring: at each step every
// rank forwards the block it received the step before.
func (c *call) allgathervRing(send VOp, recvs []VOp) error {
	size := len(recvs)
	id := c.rank()
	if err := c.selfCopy(send, recvs); err != nil {
		return err
	}
	right := (id + 1) % size
	left := (id - 1 + size) % size
	for s := 1; s < size; s++ {
		sendBlk := (id - s + 1 + size) % size
		recvBlk := (id - s + size) % size
		err := c.exchangePhase(
			[]leg{{peer: left, tag: c.tag(tagData), buf: recvs[recvBlk].Buf, l: recvs[recvBlk].Type, count: recvs[recvBlk].Count}},
			[]leg{{peer: right, tag: c.tag(tagData), buf: recvs[sendBlk].Buf, l: recvs[sendBlk].Type, count: recvs[sendBlk].Count}},
		)
		if err != nil {
			return err
		}
	}
	return nil
}

// allgathervBruck runs log-round dissemination: at round k every rank
// ships all 2^k blocks it holds to (id-2^k) and receives the next block
// span from (id+2^k) — ceil(log2 n) fused phases regardless of n.
func (c *call) allgathervBruck(send VOp, recvs []VOp) error {
	size := len(recvs)
	id := c.rank()
	if err := c.selfCopy(send, recvs); err != nil {
		return err
	}
	for span := 1; span < size; span <<= 1 {
		cnt := span
		if size-span < cnt {
			cnt = size - span
		}
		to := (id - span + size) % size
		from := (id + span) % size
		var rl, sl []leg
		// The receiver (to) posts exactly cnt recvs — in the final
		// non-power-of-two round cnt < span, so the send loop must be
		// bounded by cnt too or the extra sends strand in rts-sent.
		for j := 0; j < cnt; j++ {
			blk := (id + j) % size
			sl = append(sl, leg{peer: to, tag: c.tag(tagData), buf: recvs[blk].Buf, l: recvs[blk].Type, count: recvs[blk].Count})
		}
		for j := span; j < span+cnt; j++ {
			blk := (id + j) % size
			rl = append(rl, leg{peer: from, tag: c.tag(tagData), buf: recvs[blk].Buf, l: recvs[blk].Type, count: recvs[blk].Count})
		}
		if err := c.exchangePhase(rl, sl); err != nil {
			return err
		}
	}
	return nil
}

// allgathervRD exchanges doubling block groups with partner id^2^k;
// power-of-two worlds only.
func (c *call) allgathervRD(send VOp, recvs []VOp) error {
	size := len(recvs)
	id := c.rank()
	if err := c.selfCopy(send, recvs); err != nil {
		return err
	}
	for mask := 1; mask < size; mask <<= 1 {
		partner := id ^ mask
		haveBase := id &^ (mask - 1)
		partnerBase := partner &^ (mask - 1)
		var rl, sl []leg
		for j := 0; j < mask; j++ {
			blk := haveBase + j
			sl = append(sl, leg{peer: partner, tag: c.tag(tagData), buf: recvs[blk].Buf, l: recvs[blk].Type, count: recvs[blk].Count})
		}
		for j := 0; j < mask; j++ {
			blk := partnerBase + j
			rl = append(rl, leg{peer: partner, tag: c.tag(tagData), buf: recvs[blk].Buf, l: recvs[blk].Type, count: recvs[blk].Count})
		}
		if err := c.exchangePhase(rl, sl); err != nil {
			return err
		}
	}
	return nil
}

// allgathervHier aggregates contributions on the node leader, exchanges
// one bundle per node pair over the inter-node link, and fans each node's
// data back out — with all of a rank's remote-contribution unpacks fused
// into a single kernel launch.
func (c *call) allgathervHier(send VOp, recvs []VOp) error {
	e, r := c.e, c.r
	size := len(recvs)
	id := r.ID()
	node := e.nodeOf(id)
	leader := e.leaderOf(node)
	locals := e.localRanks(node)
	nodes := e.nodes()

	// Global contribution offsets (rank-asc) — ranks are node-major, so
	// each node's region is contiguous.
	off := make([]int64, size+1)
	for i := 0; i < size; i++ {
		off[i+1] = off[i] + recvs[i].bytes()
	}
	nodeOff := func(n int) int64 { return off[e.leaderOf(n)] }
	nodeLen := func(n int) int64 {
		first := e.leaderOf(n)
		return off[first+e.gpusPerNode()] - off[first]
	}

	if id == leader {
		staging := c.staging(off[size])
		// Window A1: gather recvs from locals (IPC into staging), own
		// contribution packed into place, bundle recvs posted (contig,
		// ungated), our contribution direct-sent to local peers.
		if c.batch != nil {
			c.openWin()
		}
		for ns := 0; ns < nodes; ns++ {
			if ns == node || nodeLen(ns) == 0 {
				continue
			}
			q := c.bind(r.IrecvRaw(c.p, e.leaderOf(ns), c.tag(tagBundle), staging, c.bytesAt(nodeOff(ns), nodeLen(ns)), 1))
			c.all = append(c.all, q)
			c.bundleRecvs = append(c.bundleRecvs, q)
		}
		for _, lr := range locals {
			if lr == id || recvs[lr].bytes() == 0 {
				continue
			}
			q := c.bind(r.IrecvRaw(c.p, lr, c.tag(tagGather), staging, c.bytesAt(off[lr], recvs[lr].bytes()), 1))
			c.all = append(c.all, q)
			c.gatherRecvs = append(c.gatherRecvs, q)
		}
		if send.bytes() > 0 {
			e := r.LayoutEntry(send.Type, send.Count)
			job := pack.JobFor(pack.OpPack, send.Buf, staging, e)
			job.TargetOff = off[id]
			c.packHs = append(c.packHs, r.Scheme().Pack(c.p, job))
			c.bytes += send.bytes()
		}
		for _, lr := range locals {
			if lr == id || send.bytes() == 0 {
				continue
			}
			c.bytes += send.bytes()
			c.all = append(c.all, c.bind(r.IsendRaw(c.p, lr, c.tag(tagDirect), send.Buf, send.Type, send.Count)))
		}
		if c.batch != nil {
			c.closeWin()
			c.openWin()
			c.gate(c.gatherRecvs)
			c.closeWin()
		}
		if err := c.subsetWait(c.gatherRecvs); err != nil {
			return err
		}
		if err := c.waitHandles(c.packHs); err != nil {
			return err
		}
		// Bundle phase: our whole node region, one message per peer node.
		for nd := 0; nd < nodes; nd++ {
			if nd == node || nodeLen(node) == 0 {
				continue
			}
			c.bytes += nodeLen(node)
			c.all = append(c.all, c.bind(r.IsendRaw(c.p, e.leaderOf(nd), c.tag(tagBundle), staging, c.bytesAt(nodeOff(node), nodeLen(node)), 1)))
		}
		if err := c.subsetWait(c.bundleRecvs); err != nil {
			return err
		}
		// Window B: fan remote regions out to locals (one contiguous
		// slice per node per local) and unpack EVERY contribution for
		// ourselves from staging — one fused unpack launch.
		if c.batch != nil {
			c.openWin()
		}
		for _, lr := range locals {
			if lr == id {
				continue
			}
			for ns := 0; ns < nodes; ns++ {
				if ns == node || nodeLen(ns) == 0 {
					continue
				}
				c.all = append(c.all, c.bind(r.IsendRaw(c.p, lr, c.tag(tagSlice), staging, c.bytesAt(nodeOff(ns), nodeLen(ns)), 1)))
			}
		}
		for i := 0; i < size; i++ {
			if recvs[i].bytes() == 0 {
				continue
			}
			c.unpackHs = append(c.unpackHs, c.unpackJob(staging, recvs[i].Buf, recvs[i].Type, recvs[i].Count, off[i]))
		}
		if c.batch != nil {
			c.closeWin()
		}
		return c.waitHandles(c.unpackHs)
	}

	// --- non-leader ---
	var remote int64
	remOff := make([]int64, nodes)
	for ns := 0; ns < nodes; ns++ {
		if ns == node {
			continue
		}
		remOff[ns] = remote
		remote += nodeLen(ns)
	}
	myStaging := c.staging(remote)
	// Window A: everything we originate (contribution to the leader and
	// to local peers) plus all our receives, posted then closed.
	if c.batch != nil {
		c.openWin()
	}
	if send.bytes() > 0 {
		c.bytes += 2 * send.bytes()
		c.all = append(c.all, c.bind(r.IsendRaw(c.p, leader, c.tag(tagGather), send.Buf, send.Type, send.Count)))
		for _, lr := range locals {
			if lr == id || lr == leader {
				continue
			}
			c.all = append(c.all, c.bind(r.IsendRaw(c.p, lr, c.tag(tagDirect), send.Buf, send.Type, send.Count)))
		}
		c.all = append(c.all, c.bind(r.IsendRaw(c.p, id, c.tag(tagDirect), send.Buf, send.Type, send.Count)))
	}
	for _, lr := range locals {
		if recvs[lr].bytes() == 0 {
			continue
		}
		q := c.bind(r.IrecvRaw(c.p, lr, c.tag(tagDirect), recvs[lr].Buf, recvs[lr].Type, recvs[lr].Count))
		c.all = append(c.all, q)
		c.directRecvs = append(c.directRecvs, q)
	}
	for ns := 0; ns < nodes; ns++ {
		if ns == node || nodeLen(ns) == 0 {
			continue
		}
		q := c.bind(r.IrecvRaw(c.p, leader, c.tag(tagSlice), myStaging, c.bytesAt(remOff[ns], nodeLen(ns)), 1))
		c.all = append(c.all, q)
		c.sliceRecvs = append(c.sliceRecvs, q)
	}
	if c.batch != nil {
		c.closeWin()
		// Window B: local IPC scatters + self unpack fuse.
		c.openWin()
		c.gate(c.directRecvs)
		c.closeWin()
	}
	if err := c.subsetWait(c.sliceRecvs); err != nil {
		return err
	}
	// Window C: every remote contribution unpacks from the staged node
	// regions in ONE fused launch.
	if c.batch != nil {
		c.openWin()
	}
	for i := 0; i < size; i++ {
		ns := e.nodeOf(i)
		if ns == node || recvs[i].bytes() == 0 {
			continue
		}
		c.unpackHs = append(c.unpackHs, c.unpackJob(myStaging, recvs[i].Buf, recvs[i].Type, recvs[i].Count, remOff[ns]+(off[i]-nodeOff(ns))))
	}
	if c.batch != nil {
		c.closeWin()
	}
	return c.waitHandles(c.unpackHs)
}
