package coll

import (
	"encoding/binary"
	"fmt"

	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/sim"
)

// WOp is one peer's slot of an Alltoallw call: what this rank sends to and
// receives from that peer, with per-peer datatypes and counts — the shape
// of MPI_Alltoallw with displacements folded into the layouts (build them
// with datatype.Hindexed over byte displacements).
type WOp struct {
	SendBuf   *gpu.Buffer
	SendType  *datatype.Layout
	SendCount int
	RecvBuf   *gpu.Buffer
	RecvType  *datatype.Layout
	RecvCount int
}

func (op WOp) sendBytes() int64 {
	if op.SendType == nil {
		return 0
	}
	return op.SendType.SizeBytes * int64(op.SendCount)
}

func (op WOp) recvBytes() int64 {
	if op.RecvType == nil {
		return 0
	}
	return op.RecvType.SizeBytes * int64(op.RecvCount)
}

// Alltoallw runs a personalized all-to-all exchange: ops[i] describes the
// legs with peer i, and len(ops) must equal the world size on every rank.
// Algorithms: Linear (one fused phase), Pairwise (one peer per fused
// step), Hierarchical (two-level node-leader aggregation), Auto.
func (e *Engine) Alltoallw(p *sim.Proc, r *mpi.Rank, ops []WOp) error {
	if len(ops) != e.size() {
		return fmt.Errorf("coll: Alltoallw: %d ops for %d ranks", len(ops), e.size())
	}
	alg := e.tuning.Alltoallw
	if err := validAlg("alltoallw", alg, Linear, Pairwise, Hierarchical, OneSidedRing, OneSidedBruck); err != nil {
		return err
	}
	if alg == Auto {
		alg = e.pickAlltoallw(ops)
	}
	alg = e.flatten(alg)
	legs := 2 * len(ops)
	if alg == Hierarchical {
		legs += 2*e.gpusPerNode() + 2*e.nodes() // size/gather/bundle overhead
	}
	c := e.begin(r, p, legs)
	var err error
	switch alg {
	case Linear:
		err = c.alltoallwLinear(ops)
	case Pairwise:
		err = c.alltoallwPairwise(ops)
	case Hierarchical:
		err = c.alltoallwHier(ops)
	case OneSidedRing, OneSidedBruck:
		err = c.alltoallwOneSided(ops, alg == OneSidedBruck)
	}
	return c.finish("alltoallw", alg.String(), err)
}

func (e *Engine) pickAlltoallw(ops []WOp) Algorithm {
	var maxLeg int64
	for _, op := range ops {
		if b := op.sendBytes(); b > maxLeg {
			maxLeg = b
		}
		if b := op.recvBytes(); b > maxLeg {
			maxLeg = b
		}
	}
	if maxLeg <= smallMsgBytes {
		return Linear
	}
	if e.topoHierarchical() {
		return Hierarchical
	}
	return Pairwise
}

func (op WOp) recvLeg(peer, tag int) leg {
	return leg{peer: peer, tag: tag, buf: op.RecvBuf, l: op.RecvType, count: op.RecvCount}
}

func (op WOp) sendLeg(peer, tag int) leg {
	return leg{peer: peer, tag: tag, buf: op.SendBuf, l: op.SendType, count: op.SendCount}
}

// alltoallwLinear posts every leg in one fused phase: all packs launch as
// one kernel, all unpacks/IPC scatters as another. It lists only the
// non-empty legs (post would skip the others), so a sparse op table costs
// its live legs, not the communicator size.
func (c *call) alltoallwLinear(ops []WOp) error {
	tag := c.tag(tagData)
	nr, ns := 0, 0
	for peer, op := range ops {
		if !op.recvLeg(peer, tag).empty() {
			nr++
		}
		if !op.sendLeg(peer, tag).empty() {
			ns++
		}
	}
	legs := make([]leg, nr+ns)
	recvs, sends := legs[:0:nr], legs[nr:nr]
	for peer, op := range ops {
		if lg := op.recvLeg(peer, tag); !lg.empty() {
			recvs = append(recvs, lg)
		}
		if lg := op.sendLeg(peer, tag); !lg.empty() {
			sends = append(sends, lg)
		}
	}
	return c.exchangePhase(recvs, sends)
}

// alltoallwPairwise exchanges with one peer per step — rank i sends to
// (i+step) and receives from (i-step), the classic congestion-avoiding
// schedule; each step is its own fused phase.
func (c *call) alltoallwPairwise(ops []WOp) error {
	size := len(ops)
	id := c.rank()
	for step := 0; step < size; step++ {
		to := (id + step) % size
		from := (id - step + size) % size
		err := c.exchangePhase(
			[]leg{ops[from].recvLeg(from, c.tag(tagData))},
			[]leg{ops[to].sendLeg(to, c.tag(tagData))},
		)
		if err != nil {
			return err
		}
	}
	return nil
}

// --- hierarchical two-level alltoallw ---
//
// Cross-node traffic is aggregated on the node leader: locals hand their
// remote-bound legs to the leader over NVLink (DirectIPC into a staging
// bundle), leaders exchange ONE bundle per node pair over IB, and each
// leader slices its incoming bundles back out to the local destinations.
// Same-node legs go direct. The fused-window structure is deadlock-safe
// by one rule: a window is always closed right after its posts (packs
// launch), and gates only ever wait for a peer's *envelope* (reaching
// Processing), never for work held in any open window.

// sizeTable is the leader's view of one local's per-peer byte counts:
// its own ops, or the table a local sent, read where it landed in
// byte-exact staging (out[0..size) then in[0..size), little-endian).
type sizeTable struct {
	ops  []WOp
	data []byte // nil: the leader's own legs, read from ops
}

func (t sizeTable) out(peer int) int64 {
	if t.data == nil {
		return t.ops[peer].sendBytes()
	}
	return int64(binary.LittleEndian.Uint64(t.data[8*peer:]))
}

func (t sizeTable) in(peer int) int64 {
	if t.data == nil {
		return t.ops[peer].recvBytes()
	}
	return int64(binary.LittleEndian.Uint64(t.data[8*(len(t.ops)+peer):]))
}

// hierLeg is one non-empty cross-node leg of the leader's node: local
// index li of the node, the remote peer, and its byte count. Legs lie back
// to back in their staging in plan order, so a leg's offset is the sum of
// the legs before it, and each remote node's legs form its bundle.
type hierLeg struct {
	li, peer int32
	n        int64
}

// hierPlan is the leader's per-call plan, kept in rankState and reused by
// every call so the bookkeeping allocates nothing once warm. Out legs are
// ordered (remote node, local, dst) — the outbound bundle layout — and in
// legs (remote node, src, local), mirroring the sending leader's layout,
// which is also the order the slices are forwarded in.
type hierPlan struct {
	tabs    []sizeTable // one per local, cleared once the layout is built
	out, in []hierLeg
}

// layout lays the node's cross-node legs out in bundle order from the
// size tables and returns the total outbound and inbound staging bytes.
func (pl *hierPlan) layout(e *Engine, node int) (totalOut, totalIn int64) {
	pl.out, pl.in = pl.out[:0], pl.in[:0]
	for nd := 0; nd < e.nodes(); nd++ {
		if nd == node {
			continue
		}
		peers := e.localRanks(nd)
		for li, t := range pl.tabs {
			for _, dst := range peers {
				if n := t.out(dst); n > 0 {
					pl.out = append(pl.out, hierLeg{li: int32(li), peer: int32(dst), n: n})
					totalOut += n
				}
			}
		}
		for _, src := range peers {
			for li, t := range pl.tabs {
				if n := t.in(src); n > 0 {
					pl.in = append(pl.in, hierLeg{li: int32(li), peer: int32(src), n: n})
					totalIn += n
				}
			}
		}
	}
	pl.dropTables()
	return totalOut, totalIn
}

// dropTables forgets the size tables, which point into the call's ops and
// staging.
func (pl *hierPlan) dropTables() {
	clear(pl.tabs)
	pl.tabs = pl.tabs[:0]
}

// eachBundle calls fn(node, off, n) for each remote node's bundle, in node
// order: the run of legs bound to that node.
func (e *Engine) eachBundle(legs []hierLeg, fn func(node int, off, n int64)) {
	var off int64
	for i := 0; i < len(legs); {
		nd, start := e.nodeOf(int(legs[i].peer)), off
		for ; i < len(legs) && e.nodeOf(int(legs[i].peer)) == nd; i++ {
			off += legs[i].n
		}
		fn(nd, start, off-start)
	}
}

func (c *call) alltoallwHier(ops []WOp) error {
	e, r := c.e, c.r
	size := len(ops)
	id := r.ID()
	node := e.nodeOf(id)
	leader := e.leaderOf(node)
	locals := e.localRanks(node)

	if id != leader {
		return c.hierLocal(ops, leader, locals)
	}

	// --- size phase: collect every local's table; each is read where it
	// lands. Size tables are control metadata, not payload: byte-exact
	// staging whatever the payload mode. ---
	pl := &c.st.hier
	pl.dropTables() // a killed call may have left some behind
	for _, lr := range locals {
		if lr == id {
			pl.tabs = append(pl.tabs, sizeTable{ops: ops})
			continue
		}
		buf := c.stagingExact(int64(2 * size * 8))
		pl.tabs = append(pl.tabs, sizeTable{ops: ops, data: buf.Data})
		q := c.bind(r.IrecvRaw(c.p, lr, c.tag(tagSizes), buf, c.bytesAt(0, int64(2*size*8)), 1))
		c.all = append(c.all, q)
		c.sizeRecvs = append(c.sizeRecvs, q)
	}
	if err := c.subsetWait(c.sizeRecvs); err != nil {
		pl.dropTables()
		return err
	}
	totalOut, totalIn := pl.layout(e, node)
	stagingOut := c.staging(totalOut)
	stagingIn := c.staging(totalIn)

	// --- window A1: post everything outbound-facing; close launches the
	// fused pack kernel (own cross-leg packs + self-leg pack). ---
	if c.batch != nil {
		c.openWin()
	}
	e.eachBundle(pl.in, func(nd int, off, n int64) {
		q := c.bind(r.IrecvRaw(c.p, e.leaderOf(nd), c.tag(tagBundle), stagingIn, c.bytesAt(off, n), 1))
		c.all = append(c.all, q)
		c.bundleRecvs = append(c.bundleRecvs, q)
	})
	// Each local's gather legs in dst order, the order it sends them.
	for li, lr := range locals {
		if lr == id {
			continue
		}
		var off int64
		for _, g := range pl.out {
			if int(g.li) == li {
				q := c.bind(r.IrecvRaw(c.p, lr, c.tag(tagGather), stagingOut, c.bytesAt(off, g.n), 1))
				c.all = append(c.all, q)
				c.gatherRecvs = append(c.gatherRecvs, q)
			}
			off += g.n
		}
	}
	var off int64
	for _, g := range pl.out {
		if locals[g.li] == id {
			op := ops[g.peer]
			e := r.LayoutEntry(op.SendType, op.SendCount)
			job := pack.JobFor(pack.OpPack, op.SendBuf, stagingOut, e)
			job.TargetOff = off
			c.packHs = append(c.packHs, r.Scheme().Pack(c.p, job))
			c.bytes += g.n
		}
		off += g.n
	}
	c.postDirect(ops, locals)
	if c.batch != nil {
		c.closeWin()
		// --- window A2: the phase's inbound GPU work (gather IPC
		// scatters, direct unpacks, self unpack) fuses into one launch. ---
		c.openWin()
		c.gate(c.gatherRecvs, c.directRecvs)
		c.closeWin()
	}
	if err := c.subsetWait(c.gatherRecvs); err != nil {
		return err
	}
	if err := c.waitHandles(c.packHs); err != nil {
		return err
	}

	// --- bundle phase: one contiguous message per remote node pair. ---
	e.eachBundle(pl.out, func(nd int, off, n int64) {
		c.bytes += n
		c.all = append(c.all, c.bind(r.IsendRaw(c.p, e.leaderOf(nd), c.tag(tagBundle), stagingOut, c.bytesAt(off, n), 1)))
	})
	if err := c.subsetWait(c.bundleRecvs); err != nil {
		return err
	}

	// --- window B: slice the incoming bundles back out (DirectIPC to
	// locals, fused direct unpacks for the leader's own legs). ---
	if c.batch != nil {
		c.openWin()
	}
	off = 0
	for _, g := range pl.in {
		if lr := locals[g.li]; lr != id {
			c.all = append(c.all, c.bind(r.IsendRaw(c.p, lr, c.tag(tagSlice), stagingIn, c.bytesAt(off, g.n), 1)))
		} else {
			op := ops[g.peer]
			c.unpackHs = append(c.unpackHs, c.unpackJob(stagingIn, op.RecvBuf, op.RecvType, op.RecvCount, off))
		}
		off += g.n
	}
	if c.batch != nil {
		c.closeWin()
	}
	return c.waitHandles(c.unpackHs)
}

// hierLocal is the non-leader side: hand cross-node legs to the leader,
// exchange direct legs, and receive forwarded slices.
func (c *call) hierLocal(ops []WOp, leader int, locals []int) error {
	e, r := c.e, c.r
	size := len(ops)
	node := e.nodeOf(r.ID())

	// --- window A: every post this rank originates. Close right away so
	// the fused pack kernel (gather legs under no-IPC, self leg) launches
	// and nothing gated below depends on our own open window. ---
	if c.batch != nil {
		c.openWin()
	}
	// The size table is encoded straight from ops into the staging it is
	// sent from; control metadata stays byte-exact.
	sizeBuf := c.stagingExact(int64(2 * size * 8))
	for i, op := range ops {
		binary.LittleEndian.PutUint64(sizeBuf.Data[i*8:], uint64(op.sendBytes()))
		binary.LittleEndian.PutUint64(sizeBuf.Data[(size+i)*8:], uint64(op.recvBytes()))
	}
	c.all = append(c.all, c.bind(r.IsendRaw(c.p, leader, c.tag(tagSizes), sizeBuf, c.bytesAt(0, int64(2*size*8)), 1)))
	for dst, op := range ops {
		if e.nodeOf(dst) == node || op.sendBytes() == 0 {
			continue
		}
		c.bytes += op.sendBytes()
		c.all = append(c.all, c.bind(r.IsendRaw(c.p, leader, c.tag(tagGather), op.SendBuf, op.SendType, op.SendCount)))
	}
	for src, op := range ops {
		if e.nodeOf(src) == node || op.recvBytes() == 0 {
			continue
		}
		q := c.bind(r.IrecvRaw(c.p, leader, c.tag(tagSlice), op.RecvBuf, op.RecvType, op.RecvCount))
		c.all = append(c.all, q)
		c.sliceRecvs = append(c.sliceRecvs, q)
	}
	c.postDirect(ops, locals)
	if c.batch != nil {
		c.closeWin()
		// --- window B: all inbound GPU work (direct IPC scatters, self
		// unpack, slice unpacks) fuses into one launch once everything
		// has at least reached the scheme. ---
		c.openWin()
		c.gate(c.directRecvs, c.sliceRecvs)
		c.closeWin()
	}
	return nil
}

// postDirect posts the same-node legs (peers in ascending rank order,
// self included via the loopback path), listing the receives in the
// call's directRecvs.
func (c *call) postDirect(ops []WOp, locals []int) {
	for _, peer := range locals {
		op := ops[peer]
		if op.recvBytes() > 0 {
			q := c.bind(c.r.IrecvRaw(c.p, peer, c.tag(tagDirect), op.RecvBuf, op.RecvType, op.RecvCount))
			c.all = append(c.all, q)
			c.directRecvs = append(c.directRecvs, q)
		}
	}
	for _, peer := range locals {
		op := ops[peer]
		if op.sendBytes() > 0 {
			c.bytes += op.sendBytes()
			c.all = append(c.all, c.bind(c.r.IsendRaw(c.p, peer, c.tag(tagDirect), op.SendBuf, op.SendType, op.SendCount)))
		}
	}
}

// validAlg rejects algorithms a collective doesn't implement.
func validAlg(kind string, alg Algorithm, allowed ...Algorithm) error {
	if alg == Auto {
		return nil
	}
	for _, a := range allowed {
		if alg == a {
			return nil
		}
	}
	return fmt.Errorf("coll: %s does not implement algorithm %q", kind, alg)
}
