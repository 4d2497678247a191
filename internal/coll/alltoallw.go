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
	return c.finish("alltoallw", alg, err)
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
	if maxLeg <= e.tuning.SmallMsgBytes {
		return Linear
	}
	if e.topoHierarchical() {
		return Hierarchical
	}
	return Pairwise
}

// alltoallwLinear posts every leg in one fused phase: all packs launch as
// one kernel, all unpacks/IPC scatters as another.
func (c *call) alltoallwLinear(ops []WOp) error {
	recvs := make([]leg, 0, len(ops))
	sends := make([]leg, 0, len(ops))
	for peer, op := range ops {
		recvs = append(recvs, leg{peer: peer, tag: c.tag(tagData), buf: op.RecvBuf, l: op.RecvType, count: op.RecvCount})
		sends = append(sends, leg{peer: peer, tag: c.tag(tagData), buf: op.SendBuf, l: op.SendType, count: op.SendCount})
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
			[]leg{{peer: from, tag: c.tag(tagData), buf: ops[from].RecvBuf, l: ops[from].RecvType, count: ops[from].RecvCount}},
			[]leg{{peer: to, tag: c.tag(tagData), buf: ops[to].SendBuf, l: ops[to].SendType, count: ops[to].SendCount}},
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

// hierPlan is the leader's size bookkeeping, decoded from the size phase.
type hierPlan struct {
	out          [][]int64 // [localIdx][dst] bytes local sends to dst
	in           [][]int64 // [localIdx][src] bytes local expects from src
	outOff       map[[2]int]int64
	inOff        map[[2]int]int64
	bundleOutOff []int64
	bundleOutLen []int64
	bundleInOff  []int64
	bundleInLen  []int64
	totalOut     int64
	totalIn      int64
}

func (c *call) alltoallwHier(ops []WOp) error {
	e, r := c.e, c.r
	size := len(ops)
	id := r.ID()
	node := e.nodeOf(id)
	leader := e.leaderOf(node)
	locals := e.localRanks(node)
	gpn := e.gpusPerNode()

	// Every rank's own size vectors: out[dst], in[src].
	myOut := make([]int64, size)
	myIn := make([]int64, size)
	for i, op := range ops {
		myOut[i] = op.sendBytes()
		myIn[i] = op.recvBytes()
	}

	if id != leader {
		return c.hierLocal(ops, leader, locals, myOut, myIn)
	}

	// --- size phase: collect every local's vectors ---
	sizeBufs := make([]*gpu.Buffer, gpn)
	var sizeRecvs []*mpi.Request
	for li, lr := range locals {
		if lr == id {
			continue
		}
		sizeBufs[li] = c.stagingExact(int64(2 * size * 8))
		q := c.bind(r.IrecvRaw(c.p, lr, c.tag(tagSizes), sizeBufs[li], c.bytesAt(0, int64(2*size*8)), 1))
		c.all = append(c.all, q)
		sizeRecvs = append(sizeRecvs, q)
	}
	if err := c.subsetWait(sizeRecvs); err != nil {
		return err
	}
	plan := &hierPlan{
		out:    make([][]int64, gpn),
		in:     make([][]int64, gpn),
		outOff: make(map[[2]int]int64),
		inOff:  make(map[[2]int]int64),
	}
	for li, lr := range locals {
		if lr == id {
			plan.out[li], plan.in[li] = myOut, myIn
			continue
		}
		out := make([]int64, size)
		in := make([]int64, size)
		// Size tables are control metadata, not payload: byte-exact
		// staging whatever the payload mode.
		data := sizeBufs[li].Data
		for i := 0; i < size; i++ {
			out[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
			in[i] = int64(binary.LittleEndian.Uint64(data[(size+i)*8:]))
		}
		plan.out[li], plan.in[li] = out, in
	}

	// --- staging layout: bundleOut per remote node is ordered
	// (srcLocal asc, dst asc); bundleIn mirrors the sender's ordering
	// (src asc, dstLocal asc) — identical because both iterate the
	// sending node's locals outer, receiving node's locals inner. ---
	nodes := e.nodes()
	plan.bundleOutOff = make([]int64, nodes)
	plan.bundleOutLen = make([]int64, nodes)
	plan.bundleInOff = make([]int64, nodes)
	plan.bundleInLen = make([]int64, nodes)
	for nd := 0; nd < nodes; nd++ {
		if nd == node {
			continue
		}
		plan.bundleOutOff[nd] = plan.totalOut
		for li, lr := range locals {
			_ = lr
			for _, dst := range e.localRanks(nd) {
				n := plan.out[li][dst]
				if n == 0 {
					continue
				}
				plan.outOff[[2]int{locals[li], dst}] = plan.totalOut
				plan.totalOut += n
			}
		}
		plan.bundleOutLen[nd] = plan.totalOut - plan.bundleOutOff[nd]

		plan.bundleInOff[nd] = plan.totalIn
		for _, src := range e.localRanks(nd) {
			for li := range locals {
				n := plan.in[li][src]
				if n == 0 {
					continue
				}
				plan.inOff[[2]int{src, locals[li]}] = plan.totalIn
				plan.totalIn += n
			}
		}
		plan.bundleInLen[nd] = plan.totalIn - plan.bundleInOff[nd]
	}
	stagingOut := c.staging(plan.totalOut)
	stagingIn := c.staging(plan.totalIn)

	// --- window A1: post everything outbound-facing; close launches the
	// fused pack kernel (own cross-leg packs + self-leg pack). ---
	if c.batch != nil {
		c.openWin()
	}
	var bundleRecvs, gatherRecvs []*mpi.Request
	for ns := 0; ns < nodes; ns++ {
		if n := plan.bundleInLen[ns]; n > 0 {
			q := c.bind(r.IrecvRaw(c.p, e.leaderOf(ns), c.tag(tagBundle), stagingIn, c.bytesAt(plan.bundleInOff[ns], n), 1))
			c.all = append(c.all, q)
			bundleRecvs = append(bundleRecvs, q)
		}
	}
	for li, lr := range locals {
		if lr == id {
			continue
		}
		for dst := 0; dst < size; dst++ {
			if e.nodeOf(dst) == node {
				continue
			}
			n := plan.out[li][dst]
			if n == 0 {
				continue
			}
			q := c.bind(r.IrecvRaw(c.p, lr, c.tag(tagGather), stagingOut, c.bytesAt(plan.outOff[[2]int{lr, dst}], n), 1))
			c.all = append(c.all, q)
			gatherRecvs = append(gatherRecvs, q)
		}
	}
	var packHs []mpi.Handle
	for dst := 0; dst < size; dst++ {
		if e.nodeOf(dst) == node || myOut[dst] == 0 {
			continue
		}
		e := r.LayoutEntry(ops[dst].SendType, ops[dst].SendCount)
		job := pack.NewJob(pack.OpPack, ops[dst].SendBuf, stagingOut, e.Blocks)
		job.Plan = e.Plan
		job.TargetOff = plan.outOff[[2]int{id, dst}]
		packHs = append(packHs, r.Scheme().Pack(c.p, job))
		c.bytes += myOut[dst]
	}
	directRecvs := c.postDirect(ops, locals)
	if c.batch != nil {
		c.closeWin()
		// --- window A2: the phase's inbound GPU work (gather IPC
		// scatters, direct unpacks, self unpack) fuses into one launch. ---
		c.openWin()
		c.gate(append(append([]*mpi.Request{}, gatherRecvs...), directRecvs...))
		c.closeWin()
	}
	if err := c.subsetWait(gatherRecvs); err != nil {
		return err
	}
	if err := c.waitHandles(packHs); err != nil {
		return err
	}

	// --- bundle phase: one contiguous message per remote node pair. ---
	for nd := 0; nd < nodes; nd++ {
		if n := plan.bundleOutLen[nd]; n > 0 {
			c.bytes += n
			c.all = append(c.all, c.bind(r.IsendRaw(c.p, e.leaderOf(nd), c.tag(tagBundle), stagingOut, c.bytesAt(plan.bundleOutOff[nd], n), 1)))
		}
	}
	if err := c.subsetWait(bundleRecvs); err != nil {
		return err
	}

	// --- window B: slice the incoming bundles back out (DirectIPC to
	// locals, fused direct unpacks for the leader's own legs). ---
	if c.batch != nil {
		c.openWin()
	}
	var unpackHs []mpi.Handle
	for src := 0; src < size; src++ {
		if e.nodeOf(src) == node {
			continue
		}
		for li, lr := range locals {
			n := plan.in[li][src]
			if n == 0 {
				continue
			}
			off := plan.inOff[[2]int{src, lr}]
			if lr == id {
				unpackHs = append(unpackHs, c.unpackJob(stagingIn, ops[src].RecvBuf, ops[src].RecvType, ops[src].RecvCount, off))
				continue
			}
			c.all = append(c.all, c.bind(r.IsendRaw(c.p, lr, c.tag(tagSlice), stagingIn, c.bytesAt(off, n), 1)))
		}
	}
	if c.batch != nil {
		c.closeWin()
	}
	return c.waitHandles(unpackHs)
}

// hierLocal is the non-leader side: hand cross-node legs to the leader,
// exchange direct legs, and receive forwarded slices.
func (c *call) hierLocal(ops []WOp, leader int, locals []int, myOut, myIn []int64) error {
	e, r := c.e, c.r
	size := len(ops)
	node := e.nodeOf(r.ID())

	// --- window A: every post this rank originates. Close right away so
	// the fused pack kernel (gather legs under no-IPC, self leg) launches
	// and nothing gated below depends on our own open window. ---
	if c.batch != nil {
		c.openWin()
	}
	sizeBuf := c.stagingExact(int64(2 * size * 8))
	sizeData := sizeBuf.Data // control metadata stays byte-exact
	for i := 0; i < size; i++ {
		binary.LittleEndian.PutUint64(sizeData[i*8:], uint64(myOut[i]))
		binary.LittleEndian.PutUint64(sizeData[(size+i)*8:], uint64(myIn[i]))
	}
	c.all = append(c.all, c.bind(r.IsendRaw(c.p, leader, c.tag(tagSizes), sizeBuf, c.bytesAt(0, int64(2*size*8)), 1)))
	for dst := 0; dst < size; dst++ {
		if e.nodeOf(dst) == node || myOut[dst] == 0 {
			continue
		}
		c.bytes += myOut[dst]
		c.all = append(c.all, c.bind(r.IsendRaw(c.p, leader, c.tag(tagGather), ops[dst].SendBuf, ops[dst].SendType, ops[dst].SendCount)))
	}
	var sliceRecvs []*mpi.Request
	for src := 0; src < size; src++ {
		if e.nodeOf(src) == node || myIn[src] == 0 {
			continue
		}
		q := c.bind(r.IrecvRaw(c.p, leader, c.tag(tagSlice), ops[src].RecvBuf, ops[src].RecvType, ops[src].RecvCount))
		c.all = append(c.all, q)
		sliceRecvs = append(sliceRecvs, q)
	}
	directRecvs := c.postDirect(ops, locals)
	if c.batch != nil {
		c.closeWin()
		// --- window B: all inbound GPU work (direct IPC scatters, self
		// unpack, slice unpacks) fuses into one launch once everything
		// has at least reached the scheme. ---
		c.openWin()
		c.gate(append(append([]*mpi.Request{}, directRecvs...), sliceRecvs...))
		c.closeWin()
	}
	return nil
}

// postDirect posts the same-node legs (peers in ascending rank order,
// self included via the loopback path) and returns the receives.
func (c *call) postDirect(ops []WOp, locals []int) []*mpi.Request {
	var recvs []*mpi.Request
	for _, peer := range locals {
		op := ops[peer]
		if op.recvBytes() > 0 {
			q := c.bind(c.r.IrecvRaw(c.p, peer, c.tag(tagDirect), op.RecvBuf, op.RecvType, op.RecvCount))
			c.all = append(c.all, q)
			recvs = append(recvs, q)
		}
	}
	for _, peer := range locals {
		op := ops[peer]
		if op.sendBytes() > 0 {
			c.bytes += op.sendBytes()
			c.all = append(c.all, c.bind(c.r.IsendRaw(c.p, peer, c.tag(tagDirect), op.SendBuf, op.SendType, op.SendCount)))
		}
	}
	return recvs
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
