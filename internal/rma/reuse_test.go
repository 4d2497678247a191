package rma_test

import (
	"fmt"
	"testing"

	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/rma"
	"repro/internal/sim"
)

// reuseBufs is what a reuse cell's verb reads and writes: a window and a
// signal over every rank, and rank 0's pack origin and get destination.
type reuseBufs struct {
	win         *rma.Window
	sig         *rma.Signal
	origin, dst *gpu.Buffer
}

// reuseCall issues one verb from rank 0 to tgt at offset off.
type reuseCall func(ep *rma.Endpoint, p *sim.Proc, b reuseBufs, tgt int, off int64) error

// reuseRun has rank 0 issue one verb twice, each followed by Quiet: first
// to rank 4 on the other node, then to rank 1 on its own node at other
// offsets, so the second call runs on the op the first one gave back.
// It returns the final clock, a digest of every window, the get
// destination and the signal, and the fabric's counters.
func reuseRun(t *testing.T, lazy bool, call reuseCall) (int64, uint64, rma.Stats) {
	t.Helper()
	const size = 8192
	w := testWorld(2, lazy, nil, false)
	f := rma.New(w)
	win, err := f.AllocWindow("reuse", size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.Size(); i++ {
		win.Buf(i).FillStream(uint64(i) + 40)
	}
	sig, err := f.OpenSignal("reuse-sig", 2)
	if err != nil {
		t.Fatal(err)
	}
	b := reuseBufs{win: win, sig: sig,
		origin: w.Rank(0).Dev.Alloc("reuse-origin", 4096), dst: w.Rank(0).Dev.Alloc("reuse-dst", size)}
	b.origin.FillStream(11)
	err = w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() != 0 {
			return
		}
		ep := f.Endpoint(0)
		for i, tgt := range []int{4, 1} {
			if err := call(ep, p, b, tgt, int64(i)*size/2); err != nil {
				t.Errorf("call %d to rank %d: %v", i, tgt, err)
			}
			if err := ep.Quiet(p); err != nil {
				t.Errorf("quiet %d: %v", i, err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := f.PendingOps(); n != 0 {
		t.Fatalf("%d ops still pending", n)
	}
	if n := rma.FreeOps(f); n != 1 {
		t.Fatalf("the free list holds %d ops, want 1: the second call reuses the first call's op", n)
	}
	var sum uint64
	mix := func(v uint64) { sum = sum*1099511628211 ^ v }
	for i := 0; i < w.Size(); i++ {
		mix(win.Buf(i).Checksum())
		mix(sig.Value(i, 0))
		mix(sig.Value(i, 1))
	}
	mix(b.dst.Checksum())
	return w.Env.Now(), sum, f.TotalStats()
}

// TestReusedOpClocks pins the final clock, the bytes and the counters of
// fault-free verbs issued twice in a row, in both payload modes. Without
// an injector or failure tolerance a settled op goes back to the
// fabric's free list, so the second call of each cell runs on a recycled
// op; these figures were read before ops were recycled.
func TestReusedOpClocks(t *testing.T) {
	l := datatype.Commit(datatype.Vector(16, 8, 16, datatype.Float64))
	packPut := func(fused bool) reuseCall {
		return func(ep *rma.Endpoint, p *sim.Proc, b reuseBufs, tgt int, off int64) error {
			return ep.PackPut(p, b.win, tgt, off+l.SizeBytes, b.origin, l, 2, off, b.sig, 1, 3, fused)
		}
	}
	type want struct {
		clock int64
		sum   uint64
		stats rma.Stats
	}
	cells := []struct {
		name string
		call reuseCall
		want want
	}{
		{name: "Put", call: func(ep *rma.Endpoint, p *sim.Proc, b reuseBufs, tgt int, off int64) error {
			return ep.Put(p, b.win, tgt, off, b.win.Buf(0), off+512, 1536)
		}, want: want{2200, 0x6523838df98cbbf9, rma.Stats{Puts: 2, Doorbells: 2, Polls: 9, BytesPut: 3072}}},
		{name: "PutSignal", call: func(ep *rma.Endpoint, p *sim.Proc, b reuseBufs, tgt int, off int64) error {
			return ep.PutSignal(p, b.win, tgt, off+64, b.win.Buf(0), off, 3000, b.sig, 0, 2)
		}, want: want{2200, 0x4629a067b6a11623, rma.Stats{Puts: 2, Doorbells: 2, Polls: 9, BytesPut: 6000}}},
		{name: "SignalPut", call: func(ep *rma.Endpoint, p *sim.Proc, b reuseBufs, tgt int, off int64) error {
			return ep.SignalPut(p, b.sig, tgt, 1, uint64(off)+5)
		}, want: want{2000, 0xbb83526018534efd, rma.Stats{Puts: 2, Doorbells: 2, Polls: 8, CtrlPuts: 2}}},
		{name: "Get", call: func(ep *rma.Endpoint, p *sim.Proc, b reuseBufs, tgt int, off int64) error {
			return ep.Get(p, b.win, tgt, off+128, b.dst, off, 2048)
		}, want: want{3200, 0x867b1b1f8f801a4d, rma.Stats{Gets: 2, Doorbells: 2, Polls: 14, BytesGot: 4096}}},
		{name: "PackPut/fused", call: packPut(true),
			want: want{17800, 0xce86cd02d8acdba3, rma.Stats{PackPuts: 2, Doorbells: 2, Polls: 23, BytesPut: 4096}}},
		{name: "PackPut/unfused", call: packPut(false),
			want: want{17782, 0xce86cd02d8acdba3, rma.Stats{PackPuts: 2, Doorbells: 2, Polls: 9, BytesPut: 4096}}},
	}
	for _, c := range cells {
		for _, lazy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/lazy=%v", c.name, lazy), func(t *testing.T) {
				clock, sum, st := reuseRun(t, lazy, c.call)
				if clock != c.want.clock || sum != c.want.sum || st != c.want.stats {
					t.Fatalf("clock %d, bytes %#x, stats %+v; want %d, %#x, %+v",
						clock, sum, st, c.want.clock, c.want.sum, c.want.stats)
				}
			})
		}
	}
}
