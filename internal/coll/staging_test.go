package coll_test

import (
	"fmt"
	"testing"

	"repro/internal/coll"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/rma"
	"repro/internal/sim"
)

// stagingVec gives legs of 8, 16 and 24 KiB (counts 1–3), so a call mixes
// eager and rendezvous messages around the 16 KiB eager limit.
func stagingVec() *datatype.Layout {
	return datatype.Commit(datatype.Vector(16, 64, 128, datatype.Float64))
}

// stagingWorkload is a persistent world running, per step, a hierarchical
// Alltoallw and a one-sided Allgatherv, with every receive buffer cleared
// before the step.
type stagingWorkload struct {
	w     *mpi.World
	f     *rma.Fabric
	e     *coll.Engine
	ops   [][]coll.WOp
	sends []coll.VOp
	recvs [][]coll.VOp
}

func newStagingWorkload(lazy bool, faults *fault.Plan) *stagingWorkload {
	_, w := lazyCollWorld("Proposed-Tuned", lazy, func(c *mpi.Config) { c.Faults = faults })
	sw := &stagingWorkload{w: w, ops: makeA2AOpsPRF(w, stagingVec())}
	sw.sends, sw.recvs = makeAGPRF(w, denseVec())
	sw.e = coll.New(w, coll.Tuning{Alltoallw: coll.Hierarchical, Allgatherv: coll.OneSidedRing})
	sw.f = rma.New(w)
	sw.e.UseRMA(sw.f)
	return sw
}

func clearBuf(b *gpu.Buffer) {
	if b.IsLazy() {
		b.Lazy.Zero(0, b.Lazy.Len())
		return
	}
	clear(b.Data)
}

// step runs one step and returns every receive buffer's checksum.
func (sw *stagingWorkload) step(t *testing.T) []uint64 {
	t.Helper()
	for r := range sw.ops {
		for _, op := range sw.ops[r] {
			clearBuf(op.RecvBuf)
		}
		for _, op := range sw.recvs[r] {
			clearBuf(op.Buf)
		}
	}
	err := sw.w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if cerr := sw.e.Alltoallw(p, r, sw.ops[r.ID()]); cerr != nil {
			t.Errorf("rank %d Alltoallw: %v", r.ID(), cerr)
		}
		if cerr := sw.e.Allgatherv(p, r, sw.sends[r.ID()], sw.recvs[r.ID()]); cerr != nil {
			t.Errorf("rank %d Allgatherv: %v", r.ID(), cerr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, sw.w, "staging step")
	if n := sw.f.PendingOps(); n != 0 {
		t.Fatalf("%d one-sided ops pending", n)
	}
	var sums []uint64
	for r := range sw.ops {
		for _, op := range sw.ops[r] {
			sums = append(sums, op.RecvBuf.Checksum())
		}
		for _, op := range sw.recvs[r] {
			sums = append(sums, op.Buf.Checksum())
		}
	}
	return sums
}

// deviceMemory sums what every device of w holds: Alloc'ed bytes, lent
// staging bytes and idle pooled buffers.
func deviceMemory(w *mpi.World) (alloc, live int64, pooled int) {
	for i := 0; i < w.Size(); i++ {
		d := w.Rank(i).Dev
		alloc += d.AllocatedBytes()
		live += d.LiveBytes()
		pooled += d.PooledBuffers()
	}
	return alloc, live, pooled
}

// A persistent world allocates its staging once: over repeated calls the
// device memory and the pool stay flat, nothing stays lent, and reused
// staging never leaks old bytes into a result.
func TestStagingFlatOnPersistentWorld(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			sw := newStagingWorkload(lazy, nil)
			var first []uint64
			var alloc0 int64
			var pooled0 int
			for step := 0; step < 5; step++ {
				sums := sw.step(t)
				alloc, live, pooled := deviceMemory(sw.w)
				if live != 0 {
					t.Fatalf("step %d: %d staging bytes left lent", step, live)
				}
				if step == 0 {
					first, alloc0, pooled0 = sums, alloc, pooled
					if pooled == 0 {
						t.Fatal("no staging went back to the pool")
					}
					continue
				}
				if alloc != alloc0 || pooled != pooled0 {
					t.Fatalf("step %d: allocated %d B and %d pooled buffers, step 0 had %d B and %d",
						step, alloc, pooled, alloc0, pooled0)
				}
				if fmt.Sprint(sums) != fmt.Sprint(first) {
					t.Fatalf("step %d: results differ from step 0", step)
				}
			}
		})
	}
}

// Under message faults (mixed) and one-sided faults (rma-flaky) that force
// retransmissions, staging that late callbacks may still reach is retired,
// never reused: every step's bytes match the fault-free run and nothing
// stays lent.
func TestStagingRetiredUnderRetransmission(t *testing.T) {
	plan, err := fault.Preset("mixed", 3)
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := fault.Preset("rma-flaky", 3)
	if err != nil {
		t.Fatal(err)
	}
	plan.RMA = flaky.RMA
	want := newStagingWorkload(true, nil).step(t)
	sw := newStagingWorkload(true, plan)
	for step := 0; step < 3; step++ {
		if got := sw.step(t); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: results differ from the fault-free run", step)
		}
		if n := sw.w.LiveStagingBytes(); n != 0 {
			t.Fatalf("step %d: %d staging bytes left lent", step, n)
		}
	}
	if n := sw.w.Injector().Count(fault.Retransmit); n == 0 {
		t.Fatal("the plan forced no retransmission")
	}
}
