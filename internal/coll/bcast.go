package coll

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Bcast broadcasts count elements of l from comm rank root's buf to every
// member's buf along a binomial tree rooted at root: one phase receives
// from the parent, one fused phase forwards to every child. Under failure
// tolerance a root already declared dead fails every caller with a
// *mpi.RankFailedError (and finish revokes the communicator), so no
// member waits on a parent that will never send.
func (e *Engine) Bcast(p *sim.Proc, r *mpi.Rank, root int, buf *gpu.Buffer, l *datatype.Layout, count int) error {
	if root < 0 || root >= e.size() {
		return fmt.Errorf("coll: Bcast: root %d out of range", root)
	}
	c := e.begin(r, p, bits.Len(uint(e.size())))
	return c.finish("bcast", "binomial", c.bcastBinomial(root, buf, l, count))
}

func (c *call) bcastBinomial(root int, buf *gpu.Buffer, l *datatype.Layout, count int) error {
	if wr := c.cm.WorldRank(root); c.e.w.RankFailed(wr) {
		return &mpi.RankFailedError{Rank: wr, DetectedAt: c.e.w.FailedAt(wr)}
	}
	// Rotate so the root is virtual rank 0: a member receives from the
	// virtual rank with its lowest set bit (mask) cleared, and forwards
	// to vrank+mask/2, vrank+mask/4, ...; the root's is at or above size.
	size := c.size()
	vrank := (c.rank() - root + size) % size
	one := func(v int) []leg {
		return []leg{{peer: (v + root) % size, tag: c.tag(tagData), buf: buf, l: l, count: count}}
	}
	mask := vrank & -vrank
	if vrank == 0 {
		mask = 1 << bits.Len(uint(size-1))
	} else if err := c.exchangePhase(one(vrank-mask), nil); err != nil {
		return err
	}
	var children []leg
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < size {
			children = append(children, one(vrank+mask)...)
		}
	}
	if len(children) == 0 {
		return nil
	}
	return c.exchangePhase(nil, children)
}

// AllreduceSumF64 sums n float64 values element-wise across every member
// into every member's buf. A power-of-two communicator runs pure
// recursive doubling, one phase per step; other sizes use the
// binary-blocks fallback: the members above the largest power-of-two core
// fold their vectors into partners inside it, the core runs recursive
// doubling, and the result is sent back out.
func (e *Engine) AllreduceSumF64(p *sim.Proc, r *mpi.Rank, buf *gpu.Buffer, n int) error {
	if n < 0 || buf.Len() < n*8 {
		return fmt.Errorf("coll: AllreduceSumF64: buffer holds %d bytes, need %d", buf.Len(), n*8)
	}
	if n == 0 || e.size() == 1 {
		return nil
	}
	c := e.begin(r, p, 2*bits.Len(uint(e.size())))
	return c.finish("allreduce", RecursiveDoubling.String(), c.allreduceSumF64(buf, n))
}

func (c *call) allreduceSumF64(buf *gpu.Buffer, n int) error {
	size, id := c.size(), c.rank()
	l := c.bytesAt(0, int64(n*8))
	// Element-wise arithmetic needs real bytes whatever the payload mode:
	// a sum is not expressible in the lazy span algebra.
	tmp := c.stagingExact(int64(n * 8))
	buf.Materialize()
	on := func(b *gpu.Buffer, peer int) []leg {
		return []leg{{peer: peer, tag: c.tag(tagData), buf: b, l: l, count: 1}}
	}
	sum := func() {
		for i := 0; i < n*8; i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(buf.Data[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(tmp.Data[i:]))
			binary.LittleEndian.PutUint64(buf.Data[i:], math.Float64bits(a+b))
		}
	}

	// Largest power-of-two core; the members above it fold downward.
	core := 1 << (bits.Len(uint(size)) - 1)
	if id >= core {
		if err := c.exchangePhase(nil, on(buf, id-core)); err != nil {
			return err
		}
		return c.exchangePhase(on(buf, id-core), nil)
	}
	if id+core < size {
		if err := c.exchangePhase(on(tmp, id+core), nil); err != nil {
			return err
		}
		sum()
	}
	for mask := 1; mask < core; mask <<= 1 {
		if err := c.exchangePhase(on(tmp, id^mask), on(buf, id^mask)); err != nil {
			return err
		}
		sum()
	}
	if id+core < size {
		return c.exchangePhase(nil, on(buf, id+core))
	}
	return nil
}
