package coll

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// NeighborAlltoallw exchanges per-neighbor datatyped legs — the paper's
// bulk non-contiguous transfer pattern (MPI_Neighbor_alltoallw). ops keep
// their topology order: the k-th leg to a peer on one side matches the
// k-th leg from that peer on the other (index-FIFO matching), so both
// endpoints must list any repeated peer in the same order, as the MPI
// graph-topology contract guarantees.
//
// The whole exchange is ONE fused phase: every leg's pack launches as a
// single kernel, and every arrival's unpack/IPC scatter as another.
func (e *Engine) NeighborAlltoallw(p *sim.Proc, r *mpi.Rank, ops []mpi.NeighborOp) error {
	for _, op := range ops {
		if op.Peer < 0 || op.Peer >= e.size() {
			return fmt.Errorf("coll: NeighborAlltoallw: peer %d out of range", op.Peer)
		}
	}
	c := e.begin(r, p, 2*len(ops))
	recvs := make([]leg, 0, len(ops))
	sends := make([]leg, 0, len(ops))
	for _, op := range ops {
		count := op.Count
		if count == 0 {
			count = 1
		}
		recvs = append(recvs, leg{peer: op.Peer, tag: c.tag(tagData), buf: op.RecvBuf, l: op.RecvType, count: count})
		sends = append(sends, leg{peer: op.Peer, tag: c.tag(tagData), buf: op.SendBuf, l: op.SendType, count: count})
	}
	err := c.exchangePhase(recvs, sends)
	return c.finish("neighbor-alltoallw", Linear.String(), err)
}
