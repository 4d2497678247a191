package coll

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/sim"
)

// Gatherv collects every rank's contribution at root: send is this rank's
// contribution, recvs[i] is where rank i's contribution lands at root.
// Like the rest of the subsystem the full recvs vector must be passed on
// EVERY rank (SPMD full-args), which is what lets remote node leaders
// size their aggregation staging without a size exchange.
func (e *Engine) Gatherv(p *sim.Proc, r *mpi.Rank, root int, send VOp, recvs []VOp) error {
	if len(recvs) != e.size() {
		return fmt.Errorf("coll: Gatherv: %d recv slots for %d ranks", len(recvs), e.size())
	}
	if root < 0 || root >= e.size() {
		return fmt.Errorf("coll: Gatherv: root %d out of range", root)
	}
	alg := e.tuning.Gatherv
	if err := validAlg("gatherv", alg, Linear, Hierarchical); err != nil {
		return err
	}
	if alg == Auto {
		if e.topoHierarchical() {
			alg = Hierarchical
		} else {
			alg = Linear
		}
	}
	alg = e.flatten(alg)
	c := e.begin(r, p, len(recvs)+1)
	var err error
	if alg == Linear {
		err = c.gathervLinear(root, send, recvs)
	} else {
		err = c.gathervHier(root, send, recvs)
	}
	return c.finish("gatherv", alg.String(), err)
}

func (c *call) gathervLinear(root int, send VOp, recvs []VOp) error {
	if c.rank() != root {
		return c.exchangePhase(nil,
			[]leg{{peer: root, tag: c.tag(tagData), buf: send.Buf, l: send.Type, count: send.Count}})
	}
	rl := make([]leg, 0, len(recvs))
	for peer, op := range recvs {
		rl = append(rl, leg{peer: peer, tag: c.tag(tagData), buf: op.Buf, l: op.Type, count: op.Count})
	}
	return c.exchangePhase(rl,
		[]leg{{peer: root, tag: c.tag(tagData), buf: send.Buf, l: send.Type, count: send.Count}})
}

// gathervHier: remote nodes aggregate on their leader (one bundle per
// node crosses the inter-node link to root), root's own node sends
// direct; root unpacks every remote contribution in one fused launch.
func (c *call) gathervHier(root int, send VOp, recvs []VOp) error {
	e, r := c.e, c.r
	id := r.ID()
	node := e.nodeOf(id)
	rootNode := e.nodeOf(root)
	locals := e.localRanks(node)
	leader := e.leaderOf(node)
	nodes := e.nodes()

	// Per-node staged region: contributions of the node's ranks, rank asc.
	nodeTotal := func(n int) int64 {
		var t int64
		for _, lr := range e.localRanks(n) {
			t += recvs[lr].bytes()
		}
		return t
	}

	if node == rootNode && id != root {
		// Same node as root: one direct IPC leg.
		if send.bytes() == 0 {
			return nil
		}
		c.bytes += send.bytes()
		c.all = append(c.all, c.bind(r.IsendRaw(c.p, root, c.tag(tagDirect), send.Buf, send.Type, send.Count)))
		return nil
	}
	if id != root && id != leader {
		// Remote non-leader: hand the contribution to the node leader.
		if send.bytes() == 0 {
			return nil
		}
		c.bytes += send.bytes()
		c.all = append(c.all, c.bind(r.IsendRaw(c.p, leader, c.tag(tagGather), send.Buf, send.Type, send.Count)))
		return nil
	}
	if id != root {
		// Remote leader: aggregate the node region, ship one bundle.
		total := nodeTotal(node)
		if total == 0 {
			return nil
		}
		staging := c.staging(total)
		loff := make(map[int]int64, len(locals))
		var at int64
		for _, lr := range locals {
			loff[lr] = at
			at += recvs[lr].bytes()
		}
		if c.batch != nil {
			c.openWin()
		}
		for _, lr := range locals {
			if lr == id || recvs[lr].bytes() == 0 {
				continue
			}
			q := c.bind(r.IrecvRaw(c.p, lr, c.tag(tagGather), staging, c.bytesAt(loff[lr], recvs[lr].bytes()), 1))
			c.all = append(c.all, q)
			c.gatherRecvs = append(c.gatherRecvs, q)
		}
		if send.bytes() > 0 {
			e := r.LayoutEntry(send.Type, send.Count)
			job := pack.JobFor(pack.OpPack, send.Buf, staging, e)
			job.TargetOff = loff[id]
			c.packHs = append(c.packHs, r.Scheme().Pack(c.p, job))
			c.bytes += send.bytes()
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
		c.bytes += total
		c.all = append(c.all, c.bind(r.IsendRaw(c.p, root, c.tag(tagBundle), staging, c.bytesAt(0, total), 1)))
		return nil
	}

	// Root: bundles from remote leaders, direct legs from local peers,
	// the self leg via loopback, then one fused unpack of every remote
	// contribution.
	var totalIn int64
	inOff := make([]int64, nodes)
	for ns := 0; ns < nodes; ns++ {
		if ns == rootNode {
			continue
		}
		inOff[ns] = totalIn
		totalIn += nodeTotal(ns)
	}
	stagingIn := c.staging(totalIn)
	if c.batch != nil {
		c.openWin()
	}
	for ns := 0; ns < nodes; ns++ {
		if ns == rootNode || nodeTotal(ns) == 0 {
			continue
		}
		q := c.bind(r.IrecvRaw(c.p, e.leaderOf(ns), c.tag(tagBundle), stagingIn, c.bytesAt(inOff[ns], nodeTotal(ns)), 1))
		c.all = append(c.all, q)
		c.bundleRecvs = append(c.bundleRecvs, q)
	}
	for _, lr := range locals {
		if recvs[lr].bytes() == 0 {
			continue
		}
		tag := c.tag(tagDirect)
		q := c.bind(r.IrecvRaw(c.p, lr, tag, recvs[lr].Buf, recvs[lr].Type, recvs[lr].Count))
		c.all = append(c.all, q)
		c.directRecvs = append(c.directRecvs, q)
	}
	if send.bytes() > 0 {
		c.bytes += send.bytes()
		c.all = append(c.all, c.bind(r.IsendRaw(c.p, id, c.tag(tagDirect), send.Buf, send.Type, send.Count)))
	}
	if c.batch != nil {
		c.closeWin()
		c.openWin()
		c.gate(c.directRecvs)
		c.closeWin()
	}
	if err := c.subsetWait(c.bundleRecvs); err != nil {
		return err
	}
	if c.batch != nil {
		c.openWin()
	}
	for ns := 0; ns < nodes; ns++ {
		if ns == rootNode {
			continue
		}
		at := inOff[ns]
		for _, lr := range e.localRanks(ns) {
			n := recvs[lr].bytes()
			if n == 0 {
				continue
			}
			c.unpackHs = append(c.unpackHs, c.unpackJob(stagingIn, recvs[lr].Buf, recvs[lr].Type, recvs[lr].Count, at))
			at += n
		}
	}
	if c.batch != nil {
		c.closeWin()
	}
	return c.waitHandles(c.unpackHs)
}

// Scatterv distributes per-rank slots from root: sends[i] is what rank i
// receives, recv is where this rank lands it. The full sends vector must
// be passed on every rank (SPMD full-args).
func (e *Engine) Scatterv(p *sim.Proc, r *mpi.Rank, root int, sends []VOp, recv VOp) error {
	if len(sends) != e.size() {
		return fmt.Errorf("coll: Scatterv: %d send slots for %d ranks", len(sends), e.size())
	}
	if root < 0 || root >= e.size() {
		return fmt.Errorf("coll: Scatterv: root %d out of range", root)
	}
	alg := e.tuning.Scatterv
	if err := validAlg("scatterv", alg, Linear, Hierarchical); err != nil {
		return err
	}
	if alg == Auto {
		if e.topoHierarchical() {
			alg = Hierarchical
		} else {
			alg = Linear
		}
	}
	alg = e.flatten(alg)
	c := e.begin(r, p, len(sends)+1)
	var err error
	if alg == Linear {
		err = c.scattervLinear(root, sends, recv)
	} else {
		err = c.scattervHier(root, sends, recv)
	}
	return c.finish("scatterv", alg.String(), err)
}

func (c *call) scattervLinear(root int, sends []VOp, recv VOp) error {
	rl := []leg{{peer: root, tag: c.tag(tagData), buf: recv.Buf, l: recv.Type, count: recv.Count}}
	if c.rank() != root {
		return c.exchangePhase(rl, nil)
	}
	sl := make([]leg, 0, len(sends))
	for peer, op := range sends {
		sl = append(sl, leg{peer: peer, tag: c.tag(tagData), buf: op.Buf, l: op.Type, count: op.Count})
	}
	return c.exchangePhase(rl, sl)
}

// scattervHier: root packs every remote rank's slot into per-node bundles
// in ONE fused launch, ships one bundle per node to its leader, and the
// leaders slice locally over NVLink.
func (c *call) scattervHier(root int, sends []VOp, recv VOp) error {
	e, r := c.e, c.r
	id := r.ID()
	node := e.nodeOf(id)
	rootNode := e.nodeOf(root)
	locals := e.localRanks(node)
	leader := e.leaderOf(node)
	nodes := e.nodes()

	nodeTotal := func(n int) int64 {
		var t int64
		for _, lr := range e.localRanks(n) {
			t += sends[lr].bytes()
		}
		return t
	}

	if id == root {
		var totalOut int64
		outOff := make([]int64, nodes)
		for nd := 0; nd < nodes; nd++ {
			if nd == rootNode {
				continue
			}
			outOff[nd] = totalOut
			totalOut += nodeTotal(nd)
		}
		stagingOut := c.staging(totalOut)
		if c.batch != nil {
			c.openWin()
		}
		for nd := 0; nd < nodes; nd++ {
			if nd == rootNode {
				continue
			}
			at := outOff[nd]
			for _, lr := range e.localRanks(nd) {
				n := sends[lr].bytes()
				if n == 0 {
					continue
				}
				e := r.LayoutEntry(sends[lr].Type, sends[lr].Count)
				job := pack.JobFor(pack.OpPack, sends[lr].Buf, stagingOut, e)
				job.TargetOff = at
				c.packHs = append(c.packHs, r.Scheme().Pack(c.p, job))
				c.bytes += n
				at += n
			}
		}
		for _, lr := range locals {
			if sends[lr].bytes() == 0 {
				continue
			}
			c.bytes += sends[lr].bytes()
			c.all = append(c.all, c.bind(r.IsendRaw(c.p, lr, c.tag(tagDirect), sends[lr].Buf, sends[lr].Type, sends[lr].Count)))
		}
		if recv.bytes() > 0 {
			q := c.bind(r.IrecvRaw(c.p, id, c.tag(tagDirect), recv.Buf, recv.Type, recv.Count))
			c.all = append(c.all, q)
			c.directRecvs = append(c.directRecvs, q)
		}
		if c.batch != nil {
			c.closeWin()
			c.openWin()
			c.gate(c.directRecvs)
			c.closeWin()
		}
		if err := c.waitHandles(c.packHs); err != nil {
			return err
		}
		for nd := 0; nd < nodes; nd++ {
			if nd == rootNode || nodeTotal(nd) == 0 {
				continue
			}
			c.bytes += nodeTotal(nd)
			c.all = append(c.all, c.bind(r.IsendRaw(c.p, e.leaderOf(nd), c.tag(tagBundle), stagingOut, c.bytesAt(outOff[nd], nodeTotal(nd)), 1)))
		}
		return nil
	}

	if node == rootNode {
		// Root's node: one direct leg from root, fused unpack via the
		// windowed gate.
		return c.exchangePhase(
			[]leg{{peer: root, tag: c.tag(tagDirect), buf: recv.Buf, l: recv.Type, count: recv.Count}}, nil)
	}
	if id == leader {
		// Remote leader: take the node bundle, slice it out locally, and
		// unpack our own slot — slice IPC + own unpack fuse.
		total := nodeTotal(node)
		if total == 0 {
			return nil
		}
		staging := c.staging(total)
		q := c.bind(r.IrecvRaw(c.p, root, c.tag(tagBundle), staging, c.bytesAt(0, total), 1))
		c.all = append(c.all, q)
		c.bundleRecvs = append(c.bundleRecvs, q)
		if err := c.subsetWait(c.bundleRecvs); err != nil {
			return err
		}
		if c.batch != nil {
			c.openWin()
		}
		var at int64
		for _, lr := range locals {
			n := sends[lr].bytes()
			if n == 0 {
				continue
			}
			if lr == id {
				c.unpackHs = append(c.unpackHs, c.unpackJob(staging, recv.Buf, recv.Type, recv.Count, at))
			} else {
				c.all = append(c.all, c.bind(r.IsendRaw(c.p, lr, c.tag(tagSlice), staging, c.bytesAt(at, n), 1)))
			}
			at += n
		}
		if c.batch != nil {
			c.closeWin()
		}
		return c.waitHandles(c.unpackHs)
	}
	// Remote non-leader: our slice arrives from the leader.
	return c.exchangePhase(
		[]leg{{peer: leader, tag: c.tag(tagSlice), buf: recv.Buf, l: recv.Type, count: recv.Count}}, nil)
}
