package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// CollTagBase is the first tag of the reserved collective range. Every tag
// in [CollTagBase, ∞) belongs to the runtime's collective machinery (this
// file's legacy collectives and internal/coll); user Isend/Irecv with a
// tag in the range fails with a *TagError instead of silently colliding
// with collective envelopes. User code must stay below CollTagBase.
const CollTagBase = 1 << 20

// Legacy collective tag assignments (all within the reserved range):
//
//	CollTagBase+1              Bcast binomial tree
//	CollTagBase+64..+127       AllreduceSumF64 phases
//
// internal/coll derives its tags from CollTagBase+4096 upward.
const (
	bcastTag          = CollTagBase + 1
	allreduceTagFold  = CollTagBase + 64 // non-pow2 pre-fold / post-bcast
	allreduceTagPhase = CollTagBase + 65 // + log2 step index
)

// Bcast broadcasts count elements of layout l from root's buf to every
// rank's buf using a binomial tree. Every rank must call it with the same
// arguments (SPMD style). Errors from the underlying transfers are
// returned. Under fault tolerance a root already declared dead fails every
// caller with a *RankFailedError, and the tree's requests are bound to the
// world communicator: the first rank to see a member die revokes it, so
// the subtree below a rank that can no longer forward fails with
// ErrCommRevoked instead of waiting forever or keeping stale bytes.
func (r *Rank) Bcast(p *sim.Proc, root int, buf *gpu.Buffer, l *datatype.Layout, count int) error {
	if q := r.postGuard(false, root, bcastTag); q != nil {
		return r.Wait(p, q)
	}
	wait := func(q *Request) error {
		if r.world.ftOn {
			r.world.WorldComm().Bind(q)
		}
		return r.Wait(p, q)
	}
	size := r.world.Size()
	// Rotate so the root is virtual rank 0; classic binomial tree.
	vrank := (r.id - root + size) % size
	toReal := func(v int) int { return (v + root) % size }
	mask := 1
	for mask < size {
		if vrank&mask != 0 {
			if err := wait(r.IrecvRaw(p, toReal(vrank-mask), bcastTag, buf, l, count)); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	// mask is now the received bit (or >= size for the root); forward to
	// children at vrank+mask/2, vrank+mask/4, ...
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < size {
			if err := wait(r.IsendRaw(p, toReal(vrank+mask), bcastTag, buf, l, count)); err != nil {
				return err
			}
		}
	}
	return nil
}

// AllreduceSumF64 sums n float64 values element-wise across all ranks into
// every rank's buf. Power-of-two worlds run pure recursive doubling; other
// sizes use the binary-blocks fallback: the size-2^k remainder ranks fold
// their vectors into partners inside the largest power-of-two core, the
// core runs recursive doubling, and the result is sent back out. Errors
// (undersized buffer, failed underlying transfers) are returned — the old
// power-of-two-only panic path is gone.
func (r *Rank) AllreduceSumF64(p *sim.Proc, buf *gpu.Buffer, n int) (err error) {
	size := r.world.Size()
	bytes := n * 8
	if n < 0 || buf.Len() < bytes {
		return fmt.Errorf("mpi: AllreduceSumF64: buffer holds %d bytes, need %d", buf.Len(), bytes)
	}
	if n == 0 || size == 1 {
		return nil
	}
	l := datatype.Commit(datatype.Contiguous(n, datatype.Float64))
	// Element-wise arithmetic needs real bytes whatever the payload mode:
	// a sum is not expressible in the lazy span algebra.
	tmp := r.Dev.StagingExact(bytes)
	defer func() { r.ReleaseStaging(tmp, err == nil) }()
	buf.Materialize()
	reduceInto := func(dst *gpu.Buffer, src *gpu.Buffer) {
		for i := 0; i < n; i++ {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst.Data[i*8:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src.Data[i*8:]))
			binary.LittleEndian.PutUint64(dst.Data[i*8:], math.Float64bits(a+b))
		}
	}

	// Largest power-of-two core; rem ranks at the top fold downward.
	core := 1
	for core*2 <= size {
		core *= 2
	}
	rem := size - core
	if r.id >= core {
		// Extra rank: fold into partner, then wait for the result.
		partner := r.id - core
		if err := r.Wait(p, r.IsendRaw(p, partner, allreduceTagFold, buf, l, 1)); err != nil {
			return err
		}
		return r.Wait(p, r.IrecvRaw(p, partner, allreduceTagFold, buf, l, 1))
	}
	if r.id < rem {
		// Core partner of an extra rank: fold its vector in first.
		if err := r.Wait(p, r.IrecvRaw(p, r.id+core, allreduceTagFold, tmp, l, 1)); err != nil {
			return err
		}
		reduceInto(buf, tmp)
	}
	step := 0
	for mask := 1; mask < core; mask <<= 1 {
		peer := r.id ^ mask
		rq := r.IrecvRaw(p, peer, allreduceTagPhase+step, tmp, l, 1)
		sq := r.IsendRaw(p, peer, allreduceTagPhase+step, buf, l, 1)
		if err := r.Waitall(p, []*Request{rq, sq}); err != nil {
			return err
		}
		reduceInto(buf, tmp)
		step++
	}
	if r.id < rem {
		// Send the finished vector back out to the extra rank.
		return r.Wait(p, r.IsendRaw(p, r.id+core, allreduceTagFold, buf, l, 1))
	}
	return nil
}

// NeighborOp describes one leg of a neighborhood exchange: what to send to
// and receive from one peer, with per-peer datatypes — the shape of
// MPI_Neighbor_alltoallw, which is exactly the paper's "bulk
// non-contiguous data transfer".
type NeighborOp struct {
	Peer     int
	SendBuf  *gpu.Buffer
	SendType *datatype.Layout
	RecvBuf  *gpu.Buffer
	RecvType *datatype.Layout
	Count    int
}
