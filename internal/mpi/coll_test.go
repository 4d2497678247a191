package mpi_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/schemes"
	"repro/internal/sim"
)

func TestCartCreate2x2x2(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	cart := w.CartCreate([]int{2, 2, 2}, []bool{true, true, true})
	if cart.Size() != 8 {
		t.Fatalf("size = %d", cart.Size())
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
	n := cart.Neighbors(0)
	// rank 0 at (0,0): -x none, +x rank 2; y periodic with dim 2: both = rank 1.
	if len(n) != 3 {
		t.Fatalf("neighbors = %v", n)
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

func TestBcastAllRoots(t *testing.T) {
	l := datatype.Commit(datatype.Contiguous(256, datatype.Float64))
	for root := 0; root < 8; root += 3 {
		w := newWorld("Proposed-Tuned", nil)
		bufs := make([]*gpu.Buffer, 8)
		for i := range bufs {
			bufs[i] = w.Rank(i).Dev.Alloc("b", int(l.ExtentBytes))
		}
		for i := range bufs[root].Data {
			bufs[root].Data[i] = byte(i*7 + root)
		}
		errs := make([]error, 8)
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			errs[r.ID()] = r.Bcast(p, root, bufs[r.ID()], l, 1)
		})
		if err = errors.Join(append(errs, err)...); err != nil {
			t.Fatalf("root %d: %v", root, err)
		}
		for i := range bufs {
			if !bytes.Equal(bufs[i].Data, bufs[root].Data) {
				t.Fatalf("root %d: rank %d data mismatch", root, i)
			}
		}
	}
}

func TestBcastNoncontiguousType(t *testing.T) {
	l := datatype.Commit(datatype.Vector(64, 2, 5, datatype.Float32))
	w := newWorld("Proposed-Tuned", nil)
	bufs := make([]*gpu.Buffer, 8)
	for i := range bufs {
		bufs[i] = w.Rank(i).Dev.Alloc("b", int(l.ExtentBytes))
	}
	for i := range bufs[0].Data {
		bufs[0].Data[i] = byte(i)
	}
	errs := make([]error, 8)
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		errs[r.ID()] = r.Bcast(p, 0, bufs[r.ID()], l, 1)
	})
	if err = errors.Join(append(errs, err)...); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 8; i++ {
		for _, b := range l.Blocks {
			if !bytes.Equal(bufs[i].Data[b.Offset:b.Offset+b.Len], bufs[0].Data[b.Offset:b.Offset+b.Len]) {
				t.Fatalf("rank %d block %+v mismatch", i, b)
			}
		}
	}
}

func TestAllreduceSumF64(t *testing.T) {
	const n = 32
	w := newWorld("Proposed-Tuned", nil)
	bufs := make([]*gpu.Buffer, 8)
	for i := range bufs {
		bufs[i] = w.Rank(i).Dev.Alloc("v", n*8)
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint64(bufs[i].Data[j*8:], math.Float64bits(float64(i*100+j)))
		}
	}
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if aerr := r.AllreduceSumF64(p, bufs[r.ID()], n); aerr != nil {
			t.Errorf("rank %d: %v", r.ID(), aerr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		for j := 0; j < n; j++ {
			got := math.Float64frombits(binary.LittleEndian.Uint64(bufs[i].Data[j*8:]))
			want := float64(0)
			for k := 0; k < 8; k++ {
				want += float64(k*100 + j)
			}
			if got != want {
				t.Fatalf("rank %d elem %d = %f, want %f", i, j, got, want)
			}
		}
	}
}

func TestAllreduceSumF64NonPowerOfTwo(t *testing.T) {
	// Binary-blocks fallback: 3 nodes x 2 GPUs = 6 ranks (not a power of
	// two). Every rank must end with the full sum.
	const n = 17
	spec := cluster.Lassen()
	spec.Nodes = 3
	spec.GPUsPerNode = 2
	c := cluster.MustBuild(sim.NewEnv(), spec)
	w := mpi.NewWorld(c, mpi.DefaultConfig(), schemes.Factory("Proposed-Tuned"))
	size := w.Size()
	bufs := make([]*gpu.Buffer, size)
	for i := range bufs {
		bufs[i] = w.Rank(i).Dev.Alloc("v", n*8)
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint64(bufs[i].Data[j*8:], math.Float64bits(float64(i*100+j)))
		}
	}
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if aerr := r.AllreduceSumF64(p, bufs[r.ID()], n); aerr != nil {
			t.Errorf("rank %d: %v", r.ID(), aerr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		for j := 0; j < n; j++ {
			got := math.Float64frombits(binary.LittleEndian.Uint64(bufs[i].Data[j*8:]))
			want := float64(0)
			for k := 0; k < size; k++ {
				want += float64(k*100 + j)
			}
			if got != want {
				t.Fatalf("rank %d elem %d = %f, want %f", i, j, got, want)
			}
		}
	}
}

func TestAllreduceSumF64BufferTooSmall(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	small := w.Rank(0).Dev.Alloc("small", 8)
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() != 0 {
			return
		}
		if aerr := r.AllreduceSumF64(p, small, 4); aerr == nil {
			t.Error("expected an error for an undersized buffer")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
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
