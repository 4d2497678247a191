package rma_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/rma"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// testWorld builds a nodes×4-GPU world. lazy flips every device to lazy
// payloads so each cell runs in both modes off one code path.
func testWorld(nodes int, lazy bool, plan *fault.Plan, tl bool) *mpi.World {
	env := sim.NewEnv()
	c := cluster.MustBuild(env, cluster.Lassen().WithNodes(nodes))
	if lazy {
		for _, node := range c.Devices {
			for _, d := range node {
				d.LazyThreshold = 1
			}
		}
	}
	cfg := mpi.DefaultConfig()
	cfg.Faults = plan
	if tl {
		cfg.Timeline = &timeline.Options{}
	}
	return mpi.NewWorld(c, cfg, schemes.Factory("Proposed-Tuned"))
}

// refChecksum fills a scratch buffer on r's device with seed and returns
// the checksum of its first n bytes — the mode-correct expected value
// for data that originated as FillStream(seed) on a like device.
func refChecksum(r *mpi.Rank, name string, seed uint64, n int64) uint64 {
	ref := r.Dev.Alloc(name, int(n))
	ref.FillStream(seed)
	return ref.ChecksumRange(0, n)
}

// TestPutRing drives a ring of puts: every rank deposits half its source
// into its right neighbour's window. Byte-exactness is asserted in both
// payload modes against a reference fill.
func TestPutRing(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		lazy := lazy
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			const n = 2048
			w := testWorld(2, lazy, nil, false)
			f := rma.New(w)
			err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
				id := r.ID()
				win, err := f.OpenWindow(id, "ring", 4096)
				if err != nil {
					t.Errorf("rank %d: %v", id, err)
					return
				}
				src := r.Dev.Alloc(fmt.Sprintf("src%d", id), n)
				src.FillStream(uint64(id) + 1)
				right := (id + 1) % w.Size()
				ep := f.Endpoint(id)
				if err := ep.Put(p, win, right, 0, src, 0, n); err != nil {
					t.Errorf("rank %d put: %v", id, err)
				}
				if err := ep.Quiet(p); err != nil {
					t.Errorf("rank %d quiet: %v", id, err)
				}
				w.Barrier(p)
				left := (id - 1 + w.Size()) % w.Size()
				if lazy && !win.Buf(id).IsLazy() {
					t.Errorf("rank %d: window buffer not lazy in lazy mode", id)
				}
				got := win.Buf(id).ChecksumRange(0, n)
				want := refChecksum(r, fmt.Sprintf("ref%d", id), uint64(left)+1, n)
				if got != want {
					t.Errorf("rank %d: window checksum %#x, want %#x (from rank %d)", id, got, want, left)
				}
				if err := f.CloseWindow(win); err != nil {
					t.Errorf("rank %d close: %v", id, err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if f.PendingOps() != 0 {
				t.Fatalf("%d ops still pending", f.PendingOps())
			}
		})
	}
}

// TestGet reads remote window bytes back one-sided: each rank publishes
// its own fill locally, then gets its right neighbour's region.
func TestGet(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		lazy := lazy
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			const n = 1536
			w := testWorld(2, lazy, nil, false)
			f := rma.New(w)
			err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
				id := r.ID()
				win, err := f.OpenWindow(id, "pub", n)
				if err != nil {
					t.Errorf("rank %d: %v", id, err)
					return
				}
				win.Buf(id).FillStream(uint64(id) + 100)
				w.Barrier(p) // everyone published before anyone reads
				right := (id + 1) % w.Size()
				dst := r.Dev.Alloc(fmt.Sprintf("dst%d", id), n)
				ep := f.Endpoint(id)
				if err := ep.Get(p, win, right, 0, dst, 0, n); err != nil {
					t.Errorf("rank %d get: %v", id, err)
				}
				if err := ep.Quiet(p); err != nil {
					t.Errorf("rank %d quiet: %v", id, err)
				}
				got := dst.ChecksumRange(0, n)
				want := refChecksum(r, fmt.Sprintf("ref%d", id), uint64(right)+100, n)
				if got != want {
					t.Errorf("rank %d: got %#x, want %#x (rank %d's fill)", id, got, want, right)
				}
				w.Barrier(p) // readers done before windows die
				if err := f.CloseWindow(win); err != nil {
					t.Errorf("rank %d close: %v", id, err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPutSignalOrdering asserts the payload-before-signal guarantee: the
// moment WaitSignal returns, the deposited bytes are readable.
func TestPutSignalOrdering(t *testing.T) {
	const n = 4096
	w := testWorld(2, false, nil, false)
	f := rma.New(w)
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		id := r.ID()
		win, err := f.OpenWindow(id, "sig-win", n)
		if err != nil {
			t.Errorf("rank %d: %v", id, err)
			return
		}
		sig, err := f.OpenSignal("sig", 1)
		if err != nil {
			t.Errorf("rank %d: %v", id, err)
			return
		}
		src := r.Dev.Alloc(fmt.Sprintf("src%d", id), n)
		src.FillStream(uint64(id) + 7)
		right := (id + 1) % w.Size()
		ep := f.Endpoint(id)
		if err := ep.PutSignal(p, win, right, 0, src, 0, n, sig, 0, 1); err != nil {
			t.Errorf("rank %d: %v", id, err)
		}
		ep.WaitSignal(p, sig, 0, 1)
		left := (id - 1 + w.Size()) % w.Size()
		got := win.Buf(id).ChecksumRange(0, n)
		want := refChecksum(r, fmt.Sprintf("ref%d", id), uint64(left)+7, n)
		if got != want {
			t.Errorf("rank %d: signal fired before payload landed (checksum %#x, want %#x)", id, got, want)
		}
		if err := ep.Quiet(p); err != nil {
			t.Errorf("rank %d quiet: %v", id, err)
		}
		w.Barrier(p)
		f.CloseSignal(sig)
		if err := f.CloseWindow(win); err != nil {
			t.Errorf("rank %d close: %v", id, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPackPut checks the fused and unfused pack-and-put against a
// host-side reference pack, in both payload modes.
func TestPackPut(t *testing.T) {
	l := datatype.Commit(datatype.Vector(16, 8, 16, datatype.Float64)) // 16×64B blocks, strided
	const count = 2
	for _, lazy := range []bool{false, true} {
		for _, fused := range []bool{false, true} {
			lazy, fused := lazy, fused
			t.Run(fmt.Sprintf("lazy=%v/fused=%v", lazy, fused), func(t *testing.T) {
				w := testWorld(2, lazy, nil, false)
				f := rma.New(w)
				err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
					id := r.ID()
					entry := r.LayoutEntry(l, count)
					win, err := f.OpenWindow(id, "pk", 2*entry.Bytes)
					if err != nil {
						t.Errorf("rank %d: %v", id, err)
						return
					}
					origin := r.Dev.Alloc(fmt.Sprintf("origin%d", id), int(entry.Extent)*count)
					origin.FillStream(uint64(id) + 11)
					right := (id + 1) % w.Size()
					ep := f.Endpoint(id)
					// Pack into own region [0, bytes), deposit into the
					// neighbour's upper half [bytes, 2*bytes).
					if err := ep.PackPut(p, win, right, entry.Bytes, origin, l, count, 0, nil, 0, 0, fused); err != nil {
						t.Errorf("rank %d packput: %v", id, err)
					}
					if err := ep.Quiet(p); err != nil {
						t.Errorf("rank %d quiet: %v", id, err)
					}
					w.Barrier(p)
					// Host-side reference pack of the left neighbour's origin.
					left := (id - 1 + w.Size()) % w.Size()
					lorigin := r.Dev.Alloc(fmt.Sprintf("lorigin%d", id), int(entry.Extent)*count)
					lorigin.FillStream(uint64(left) + 11)
					ref := r.Dev.Alloc(fmt.Sprintf("ref%d", id), int(entry.Bytes))
					job := pack.NewJob(pack.OpPack, lorigin, ref, entry.Blocks)
					job.Execute()
					got := win.Buf(id).ChecksumRange(entry.Bytes, entry.Bytes)
					want := ref.ChecksumRange(0, entry.Bytes)
					if got != want {
						t.Errorf("rank %d: packed deposit %#x, want %#x", id, got, want)
					}
					if err := f.CloseWindow(win); err != nil {
						t.Errorf("rank %d close: %v", id, err)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestWindowErrors covers the misuse surface: freed-window access,
// double free, out-of-bounds ranges, size mismatches on rendezvous.
func TestWindowErrors(t *testing.T) {
	w := testWorld(1, false, nil, false)
	f := rma.New(w)
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() != 0 {
			return
		}
		ep := f.Endpoint(0)
		win, err := f.OpenWindow(0, "errs", 1024)
		if err != nil {
			t.Error(err)
			return
		}
		src := r.Dev.Alloc("src", 2048)
		if err := ep.Put(p, win, 1, 512, src, 0, 1024); err == nil {
			t.Error("out-of-bounds put accepted")
		}
		if err := ep.Put(p, win, 99, 0, src, 0, 64); err == nil {
			t.Error("put to out-of-range rank accepted")
		}
		if err := ep.Get(p, win, 1, 0, src, 1536, 1024); err == nil {
			t.Error("out-of-bounds get destination accepted")
		}
		if _, err := f.OpenWindow(0, "errs", 512); err == nil {
			t.Error("mismatched rendezvous size accepted")
		}
		if err := win.Free(); err != nil {
			t.Errorf("free: %v", err)
		}
		if err := win.Free(); err == nil {
			t.Error("double free accepted")
		}
		if err := ep.Put(p, win, 1, 0, src, 0, 64); err == nil {
			t.Error("put to freed window accepted")
		}
		if _, err := f.OpenSignal("s", 0); err == nil {
			t.Error("zero-slot signal accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuietSurfacesFailure forces retries to exhaust on a dead link and
// asserts Quiet returns the typed error.
func TestQuietSurfacesFailure(t *testing.T) {
	plan := &fault.Plan{Seed: 5, RMA: fault.RMAPlan{DropProb: 1}}
	w := testWorld(2, false, plan, false)
	w.Cfg.StallTimeoutNs = -1 // the op fails cleanly; no watchdog needed
	f := rma.New(w)
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() != 0 {
			return
		}
		win, err := f.AllocWindow("dead", 256)
		if err != nil {
			t.Error(err)
			return
		}
		src := r.Dev.Alloc("src", 256)
		ep := f.Endpoint(0)
		if err := ep.Put(p, win, 4, 0, src, 0, 256); err != nil { // rank 4 = other node
			t.Errorf("put: %v", err)
		}
		qerr := ep.Quiet(p)
		var oe *rma.OpError
		if !errors.As(qerr, &oe) || !errors.Is(qerr, rma.ErrRetriesExhausted) {
			t.Errorf("quiet error %v, want *OpError wrapping ErrRetriesExhausted", qerr)
		}
		if qerr2 := ep.Quiet(p); qerr2 != nil {
			t.Errorf("second quiet must be clean, got %v", qerr2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.PendingOps() != 0 {
		t.Fatalf("%d ops leaked after failure", f.PendingOps())
	}
}

// TestDeterministicReplay runs the identical scenario twice and demands
// bit-identical outcomes: final clock, wire counters, and checksums.
func TestDeterministicReplay(t *testing.T) {
	run := func() (clock int64, msgs int64, sum uint64) {
		const n = 4096
		w := testWorld(2, false, nil, false)
		f := rma.New(w)
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			id := r.ID()
			win, _ := f.OpenWindow(id, "det", n)
			sig, _ := f.OpenSignal("det-sig", 2)
			src := r.Dev.Alloc(fmt.Sprintf("src%d", id), n)
			src.FillStream(uint64(id) * 3)
			ep := f.Endpoint(id)
			right := (id + 1) % w.Size()
			ep.PutSignal(p, win, right, 0, src, 0, n/2, sig, 0, 1)
			ep.PutSignal(p, win, (id+3)%w.Size(), n/2, src, n/2, n/2, sig, 1, 1)
			ep.WaitSignal(p, sig, 0, 1)
			ep.WaitSignal(p, sig, 1, 1)
			if err := ep.Quiet(p); err != nil {
				t.Errorf("rank %d: %v", id, err)
			}
			w.Barrier(p)
			sum += win.Buf(id).Checksum()
			f.CloseSignal(sig)
			f.CloseWindow(win)
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Env.Now(), w.Cluster.Net.TotalMessages(), sum
	}
	c1, m1, s1 := run()
	c2, m2, s2 := run()
	if c1 != c2 || m1 != m2 || s1 != s2 {
		t.Fatalf("replay diverged: clock %d vs %d, msgs %d vs %d, sum %#x vs %#x", c1, c2, m1, m2, s1, s2)
	}
}

// TestReconciliation proves the satellite invariant: with the timeline
// on, every rma-layer Breakdown charge is mirrored as a span, so
// Recorder.Sums() equals the rank's trace.Breakdown exactly — across
// puts, gets, pack-puts (both fusion arms), signal waits, and quiet.
func TestReconciliation(t *testing.T) {
	l := datatype.Commit(datatype.Vector(8, 4, 8, datatype.Float32))
	w := testWorld(2, false, nil, true)
	f := rma.New(w)
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		id := r.ID()
		entry := r.LayoutEntry(l, 4)
		win, err := f.OpenWindow(id, "rec", 4*entry.Bytes)
		if err != nil {
			t.Errorf("rank %d: %v", id, err)
			return
		}
		sig, _ := f.OpenSignal("rec-sig", 1)
		origin := r.Dev.Alloc(fmt.Sprintf("origin%d", id), int(entry.Extent)*4)
		origin.FillStream(uint64(id))
		ep := f.Endpoint(id)
		right := (id + 1) % w.Size()
		ep.PackPut(p, win, right, entry.Bytes, origin, l, 4, 0, sig, 0, 1, id%2 == 0)
		ep.WaitSignal(p, sig, 0, 1)
		if err := ep.Quiet(p); err != nil {
			t.Errorf("rank %d: %v", id, err)
		}
		dst := r.Dev.Alloc(fmt.Sprintf("dst%d", id), int(entry.Bytes))
		ep.Get(p, win, right, 0, dst, 0, entry.Bytes)
		if err := ep.Quiet(p); err != nil {
			t.Errorf("rank %d: %v", id, err)
		}
		w.Barrier(p)
		f.CloseSignal(sig)
		f.CloseWindow(win)
	})
	if err != nil {
		t.Fatal(err)
	}
	rmaEvents := 0
	for i := 0; i < w.Size(); i++ {
		r := w.Rank(i)
		rec := r.Timeline()
		sums := rec.Sums()
		for _, c := range trace.Categories() {
			if got, want := sums.Get(c), r.Trace.Get(c); got != want {
				t.Errorf("rank %d %v: timeline sum %d != breakdown %d", i, c, got, want)
			}
		}
		for _, e := range rec.Events() {
			if e.Layer == timeline.LayerRMA {
				rmaEvents++
			}
		}
	}
	if rmaEvents == 0 {
		t.Fatal("no rma-layer events recorded")
	}
}

// TestHeapReuse checks first-fit reuse: freeing a window and allocating
// an equal-size one hands back the same offset, and the allocator
// invariants hold throughout.
func TestHeapReuse(t *testing.T) {
	w := testWorld(1, false, nil, false)
	f := rma.New(w)
	a, err := f.AllocWindow("a", 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.AllocWindow("b", 500)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offset() == b.Offset() {
		t.Fatal("distinct windows share an offset")
	}
	if err := f.Heap().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	off := a.Offset()
	if err := a.Free(); err != nil {
		t.Fatal(err)
	}
	c, err := f.AllocWindow("c", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Offset() != off {
		t.Fatalf("freed region not reused: got offset %d, want %d", c.Offset(), off)
	}
	if err := f.Heap().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, win := range []*rma.Window{b, c} {
		if err := win.Free(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Heap().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Window.Free gives a window's buffers back to the staging pools, unless
// something may still reach them: a retained window (a checkpoint
// registration) and a window freed with ops pending are retired instead.
func TestWindowFreeRecyclesOrRetires(t *testing.T) {
	w := testWorld(2, false, nil, false)
	f := rma.New(w)
	pooled := func() int {
		n := 0
		for i := 0; i < w.Size(); i++ {
			n += w.Rank(i).Dev.PooledBuffers()
		}
		return n
	}
	check := func(label string, live int64, pool int) {
		t.Helper()
		if w.LiveStagingBytes() != live || pooled() != pool {
			t.Fatalf("%s: live=%d pooled=%d, want %d and %d", label, w.LiveStagingBytes(), pooled(), live, pool)
		}
	}
	a, err := f.AllocWindow("a", 256)
	if err != nil {
		t.Fatal(err)
	}
	check("open", int64(w.Size())*256, 0)
	if err := a.Free(); err != nil {
		t.Fatal(err)
	}
	check("freed", 0, w.Size())
	b, err := f.AllocWindow("b", 256)
	if err != nil {
		t.Fatal(err)
	}
	check("reopened from the pool", int64(w.Size())*256, 0)
	b.Retain()
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	check("retained", 0, 0)

	c, err := f.AllocWindow("c", 256)
	if err != nil {
		t.Fatal(err)
	}
	src := w.Rank(0).Dev.Alloc("src", 64)
	src.FillStream(3)
	err = w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() != 0 {
			return
		}
		ep := f.Endpoint(0)
		if err := ep.Put(p, c, 1, 0, src, 0, 64); err != nil {
			t.Error(err)
		}
		if err := c.Free(); err != nil {
			t.Error(err)
		}
		if err := ep.Quiet(p); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	check("freed with a put pending", 0, 0)
}
