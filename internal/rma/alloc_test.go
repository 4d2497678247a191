package rma_test

import (
	"fmt"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/rma"
	"repro/internal/sim"
)

// TestWarmFusedPackPutAllocs pins that a warm fused PackPut + Quiet to a
// rank on another node allocates nothing, in both payload modes. The op
// comes from the fabric's free list, the kernel's retirement and the wire
// delivery are the op itself, so no Completion, event or closure is made,
// and the op packs from the cached layout with a job on the stack.
func TestWarmFusedPackPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled span lists, so allocation counts do not hold")
	}
	l := datatype.Commit(datatype.Vector(64, 8, 16, datatype.Float64))
	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			w := testWorld(2, lazy, nil, false)
			f := rma.New(w)
			win, err := f.AllocWindow("pin", 2*l.SizeBytes)
			if err != nil {
				t.Fatal(err)
			}
			src := w.Rank(0).Dev.Alloc("src", int(l.ExtentBytes))
			src.FillStream(1)
			allocs := -1.0
			err = w.Run(func(r *mpi.Rank, p *sim.Proc) {
				if r.ID() != 0 {
					return
				}
				ep := f.Endpoint(0)
				put := func() {
					if err := ep.PackPut(p, win, 4, l.SizeBytes, src, l, 1, 0, nil, 0, 0, true); err != nil {
						t.Error(err)
					}
					if err := ep.Quiet(p); err != nil {
						t.Error(err)
					}
				}
				put() // warm: layout cache, stream, queue buckets and span lists
				allocs = testing.AllocsPerRun(100, put)
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Fatalf("a warm fused PackPut + Quiet allocates %v times, want 0", allocs)
			}
		})
	}
}

// TestWarmGetAllocs pins that a warm fault-free 4 KiB Get + Quiet from a
// rank on another node allocates nothing, in both payload modes: the op
// comes from the fabric's free list and receives both of its legs, the
// control request as a getRequest and the payload as itself, so the read
// makes no closure.
func TestWarmGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled span lists, so allocation counts do not hold")
	}
	const n = 4 << 10
	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			w := testWorld(2, lazy, nil, false)
			f := rma.New(w)
			win, err := f.AllocWindow("pin", n)
			if err != nil {
				t.Fatal(err)
			}
			win.Buf(4).FillStream(1)
			dst := w.Rank(0).Dev.Alloc("dst", n)
			allocs := -1.0
			err = w.Run(func(r *mpi.Rank, p *sim.Proc) {
				if r.ID() != 0 {
					return
				}
				ep := f.Endpoint(0)
				get := func() {
					if err := ep.Get(p, win, 4, 0, dst, 0, n); err != nil {
						t.Error(err)
					}
					if err := ep.Quiet(p); err != nil {
						t.Error(err)
					}
				}
				get() // warm: stream, queue buckets and the op free list
				allocs = testing.AllocsPerRun(100, get)
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Fatalf("a warm Get + Quiet allocates %v times, want 0", allocs)
			}
		})
	}
}
