package mpi_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestCartCreate2x2x2(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	cart := w.CartCreate([]int{2, 2, 2}, []bool{true, true, true})
	if !cart.Member(7) || cart.Member(8) {
		t.Fatal("cart size is not 8")
	}
	// Coords round-trip.
	for r := 0; r < 8; r++ {
		if got := cart.RankOf(cart.Coords(r)); got != r {
			t.Fatalf("rank %d -> %v -> %d", r, cart.Coords(r), got)
		}
	}
	// Periodic shift wraps: with dims of 2, +1 and -1 reach the same peer.
	src, dst := cart.Shift(0, 0, 1)
	if src != dst || src != 4 {
		t.Fatalf("shift(0, axis0) = %d,%d want 4,4", src, dst)
	}
}

func TestCartNonPeriodicBoundary(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	cart := w.CartCreate([]int{4, 2}, []bool{false, true})
	src, dst := cart.Shift(0, 0, 1) // row 0 of 4
	if src != -1 {
		t.Fatalf("top boundary should have PROC_NULL source, got %d", src)
	}
	if dst != 2 {
		t.Fatalf("down neighbor = %d, want 2", dst)
	}
	// rank 0 at (0,0): -x none, +x rank 2; y periodic with dim 2: both = rank 1.
	if src, dst := cart.Shift(0, 1, 1); src != 1 || dst != 1 {
		t.Fatalf("y neighbors = %d,%d want 1,1", src, dst)
	}
}

func TestCartTooBigPanics(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.CartCreate([]int{3, 3}, []bool{false, false})
}

func TestReservedTagGuard(t *testing.T) {
	// User pt2pt traffic in [CollTagBase, ∞) fails with a typed error and
	// leaks nothing; the raw collective entry points still work there.
	w := newWorld("GPU-Sync", nil)
	l := datatype.Commit(datatype.Contiguous(16, datatype.Byte))
	buf := w.Rank(0).Dev.Alloc("b", int(l.ExtentBytes))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() != 0 {
			return
		}
		sq := r.Isend(p, 4, mpi.CollTagBase, buf, l, 1)
		serr := r.Wait(p, sq)
		var te *mpi.TagError
		if !errors.As(serr, &te) || !errors.Is(serr, mpi.ErrTagReserved) {
			t.Errorf("Isend tag guard: got %v, want *TagError wrapping ErrTagReserved", serr)
		}
		if te != nil && (!te.IsSend || te.Tag != mpi.CollTagBase) {
			t.Errorf("TagError fields: %+v", te)
		}
		rq := r.Irecv(p, 4, mpi.CollTagBase+77, buf, l, 1)
		if rerr := r.Wait(p, rq); !errors.Is(rerr, mpi.ErrTagReserved) {
			t.Errorf("Irecv tag guard: got %v", rerr)
		}
		// Below the base is untouched (AnyTag too).
		if q := r.Irecv(p, mpi.AnySource, mpi.AnyTag, buf, l, 1); q.Failed() {
			t.Error("AnyTag receive must not trip the guard")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaked := w.LeakedRequests(); leaked != 1 { // only the AnyTag recv stays posted
		t.Fatalf("leaked = %d, want 1 (the deliberately unmatched AnyTag recv)", leaked)
	}
}

func TestPackUnpackExplicitAPI(t *testing.T) {
	// Algorithm 1 usage: blocking MPI_Pack into a staging buffer, ship
	// it as bytes, blocking MPI_Unpack on the receiver.
	for _, scheme := range []string{"GPU-Sync", "Proposed-Tuned", "CPU-GPU-Hybrid"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			w := newWorld(scheme, nil)
			l := datatype.Commit(datatype.Vector(128, 2, 5, datatype.Float32))
			packedType := datatype.Commit(datatype.Contiguous(int(l.SizeBytes), datatype.Byte))
			src := w.Rank(0).Dev.Alloc("src", int(l.ExtentBytes))
			spacked := w.Rank(0).Dev.Alloc("spacked", int(l.SizeBytes))
			rpacked := w.Rank(4).Dev.Alloc("rpacked", int(l.SizeBytes))
			dst := w.Rank(4).Dev.Alloc("dst", int(l.ExtentBytes))
			for i := range src.Data {
				src.Data[i] = byte(i % 251)
			}
			err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
				switch r.ID() {
				case 0:
					var pos int64
					r.Pack(p, src, l, 1, spacked, &pos)
					if pos != l.SizeBytes {
						t.Errorf("position = %d, want %d", pos, l.SizeBytes)
					}
					r.Wait(p, r.Isend(p, 4, 0, spacked, packedType, 1))
				case 4:
					r.Wait(p, r.Irecv(p, 0, 0, rpacked, packedType, 1))
					var pos int64
					r.Unpack(p, rpacked, &pos, dst, l, 1)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range l.Blocks {
				if !bytes.Equal(dst.Data[b.Offset:b.Offset+b.Len], src.Data[b.Offset:b.Offset+b.Len]) {
					t.Fatalf("block %+v mismatch", b)
				}
			}
		})
	}
}

func TestPackPositionAdvancesAcrossCalls(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	l := datatype.Commit(datatype.Vector(4, 1, 2, datatype.Byte))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() != 0 {
			return
		}
		src1 := r.Dev.Alloc("s1", int(l.ExtentBytes))
		src2 := r.Dev.Alloc("s2", int(l.ExtentBytes))
		out := r.Dev.Alloc("o", int(2*l.SizeBytes))
		for i := range src1.Data {
			src1.Data[i] = 0xA0
			src2.Data[i] = 0xB0
		}
		var pos int64
		r.Pack(p, src1, l, 1, out, &pos)
		r.Pack(p, src2, l, 1, out, &pos)
		if pos != 2*l.SizeBytes {
			t.Errorf("pos = %d", pos)
		}
		if out.Data[0] != 0xA0 || out.Data[l.SizeBytes] != 0xB0 {
			t.Errorf("packed order wrong: % x", out.Data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackOverflowPanics(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	l := datatype.Commit(datatype.Contiguous(64, datatype.Byte))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() != 0 {
			return
		}
		src := r.Dev.Alloc("s", 64)
		out := r.Dev.Alloc("o", 8) // too small
		var pos int64
		r.Pack(p, src, l, 1, out, &pos)
	})
}

func TestPackSize(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	l := datatype.Commit(datatype.Vector(4, 2, 5, datatype.Float64))
	if got := w.Rank(0).PackSize(l, 3); got != 3*l.SizeBytes {
		t.Fatalf("PackSize = %d", got)
	}
}
