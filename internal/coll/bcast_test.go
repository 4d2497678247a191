package coll_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/schemes"
	"repro/internal/sim"
)

func TestBcastAllRoots(t *testing.T) {
	l := datatype.Commit(datatype.Contiguous(256, datatype.Float64))
	for root := 0; root < 8; root += 3 {
		w := collWorld("Proposed-Tuned", nil)
		e := coll.New(w, coll.Tuning{})
		bufs := make([]*gpu.Buffer, 8)
		for i := range bufs {
			bufs[i] = w.Rank(i).Dev.Alloc("b", int(l.ExtentBytes))
		}
		for i := range bufs[root].Data {
			bufs[root].Data[i] = byte(i*7 + root)
		}
		errs := make([]error, 8)
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			errs[r.ID()] = e.Bcast(p, r, root, bufs[r.ID()], l, 1)
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
	w := collWorld("Proposed-Tuned", nil)
	e := coll.New(w, coll.Tuning{})
	bufs := make([]*gpu.Buffer, 8)
	for i := range bufs {
		bufs[i] = w.Rank(i).Dev.Alloc("b", int(l.ExtentBytes))
	}
	for i := range bufs[0].Data {
		bufs[0].Data[i] = byte(i)
	}
	errs := make([]error, 8)
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		errs[r.ID()] = e.Bcast(p, r, 0, bufs[r.ID()], l, 1)
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
	w := collWorld("Proposed-Tuned", nil)
	e := coll.New(w, coll.Tuning{})
	bufs := make([]*gpu.Buffer, 8)
	for i := range bufs {
		bufs[i] = w.Rank(i).Dev.Alloc("v", n*8)
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint64(bufs[i].Data[j*8:], math.Float64bits(float64(i*100+j)))
		}
	}
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if aerr := e.AllreduceSumF64(p, r, bufs[r.ID()], n); aerr != nil {
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
	e := coll.New(w, coll.Tuning{})
	size := w.Size()
	bufs := make([]*gpu.Buffer, size)
	for i := range bufs {
		bufs[i] = w.Rank(i).Dev.Alloc("v", n*8)
		for j := 0; j < n; j++ {
			binary.LittleEndian.PutUint64(bufs[i].Data[j*8:], math.Float64bits(float64(i*100+j)))
		}
	}
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if aerr := e.AllreduceSumF64(p, r, bufs[r.ID()], n); aerr != nil {
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
	w := collWorld("GPU-Sync", nil)
	e := coll.New(w, coll.Tuning{})
	small := w.Rank(0).Dev.Alloc("small", 8)
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() != 0 {
			return
		}
		if aerr := e.AllreduceSumF64(p, r, small, 4); aerr == nil {
			t.Error("expected an error for an undersized buffer")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
