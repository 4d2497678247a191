package mpi_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/payload"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// newWorld builds a Lassen-shaped world with the named scheme.
func newWorld(scheme string, mut func(*mpi.Config)) *mpi.World {
	env := sim.NewEnv()
	c := cluster.MustBuild(env, cluster.Lassen())
	cfg := mpi.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	return mpi.NewWorld(c, cfg, schemes.Factory(scheme))
}

// exchange runs a single send from rank `src` to rank `dst` with the given
// layout/count and verifies the received bytes. It returns the receive
// completion time.
func exchange(t *testing.T, scheme string, src, dst int, l *datatype.Layout, count int, mut func(*mpi.Config)) int64 {
	t.Helper()
	w := newWorld(scheme, mut)
	sbuf := w.Rank(src).Dev.Alloc("send", int(l.ExtentBytes)*count)
	rbuf := w.Rank(dst).Dev.Alloc("recv", int(l.ExtentBytes)*count)
	rng := rand.New(rand.NewSource(42))
	rng.Read(sbuf.Data)
	var recvDone int64
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case src:
			q := r.Isend(p, dst, 7, sbuf, l, count)
			r.Wait(p, q)
		case dst:
			q := r.Irecv(p, src, 7, rbuf, l, count)
			r.Wait(p, q)
			recvDone = p.Now()
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	for _, b := range l.Repeat(count) {
		if !bytes.Equal(rbuf.Data[b.Offset:b.Offset+b.Len], sbuf.Data[b.Offset:b.Offset+b.Len]) {
			t.Fatalf("%s: block %+v corrupted", scheme, b)
		}
	}
	return recvDone
}

func sparseLayout() *datatype.Layout {
	lens := make([]int, 1500)
	displs := make([]int, 1500)
	for i := range lens {
		lens[i] = 1
		displs[i] = i * 3
	}
	return datatype.Commit(datatype.Indexed(lens, displs, datatype.Float32))
}

func denseLayout() *datatype.Layout {
	return datatype.Commit(datatype.Vector(64, 128, 256, datatype.Float64))
}

func TestEagerContiguousInterNode(t *testing.T) {
	l := datatype.Commit(datatype.Contiguous(512, datatype.Float64)) // 4 KiB, eager
	for _, s := range schemes.Names() {
		exchange(t, s, 0, 4, l, 1, nil)
	}
}

func TestRendezvousContiguousInterNode(t *testing.T) {
	l := datatype.Commit(datatype.Contiguous(1<<17, datatype.Float64)) // 1 MiB
	for _, mode := range []mpi.RendezvousMode{mpi.RGET, mpi.RPUT} {
		mode := mode
		exchange(t, "Proposed-Tuned", 0, 4, l, 1, func(c *mpi.Config) { c.Rendezvous = mode })
	}
}

func TestNoncontiguousAllSchemesSparse(t *testing.T) {
	l := sparseLayout()
	for _, s := range schemes.Names() {
		s := s
		t.Run(s, func(t *testing.T) {
			exchange(t, s, 0, 4, l, 1, nil)
		})
	}
}

func TestNoncontiguousAllSchemesDense(t *testing.T) {
	l := denseLayout()
	for _, s := range schemes.Names() {
		s := s
		t.Run(s, func(t *testing.T) {
			exchange(t, s, 0, 4, l, 1, nil)
		})
	}
}

func TestNoncontiguousRPUTAllSchemes(t *testing.T) {
	l := denseLayout()
	for _, s := range schemes.Names() {
		s := s
		t.Run(s, func(t *testing.T) {
			exchange(t, s, 0, 4, l, 1, func(c *mpi.Config) { c.Rendezvous = mpi.RPUT })
		})
	}
}

func TestIntraNodeDirectIPC(t *testing.T) {
	l := denseLayout()
	for _, s := range schemes.Names() {
		s := s
		t.Run(s, func(t *testing.T) {
			exchange(t, s, 0, 1, l, 1, nil) // ranks 0,1 share node 0
		})
	}
}

func TestIntraNodeWithIPCDisabled(t *testing.T) {
	l := denseLayout()
	exchange(t, "Proposed-Tuned", 0, 1, l, 1, func(c *mpi.Config) { c.DisableIPC = true })
}

func TestSendBeforeRecvPosted(t *testing.T) {
	// Unexpected-message path: receiver posts late.
	w := newWorld("Proposed-Tuned", nil)
	l := sparseLayout()
	sbuf := w.Rank(0).Dev.Alloc("send", int(l.ExtentBytes))
	rbuf := w.Rank(4).Dev.Alloc("recv", int(l.ExtentBytes))
	for i := range sbuf.Data {
		sbuf.Data[i] = byte(i % 251)
	}
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			q := r.Isend(p, 4, 3, sbuf, l, 1)
			r.Wait(p, q)
		case 4:
			p.Sleep(2 * sim.Millisecond) // let RTS arrive unexpected
			q := r.Irecv(p, 0, 3, rbuf, l, 1)
			r.Wait(p, q)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range l.Blocks {
		if !bytes.Equal(rbuf.Data[b.Offset:b.Offset+b.Len], sbuf.Data[b.Offset:b.Offset+b.Len]) {
			t.Fatalf("unexpected-path block %+v corrupted", b)
		}
	}
}

func TestTagMatchingSelectsRightMessage(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	l := datatype.Commit(datatype.Contiguous(256, datatype.Float64))
	sb1 := w.Rank(0).Dev.Alloc("s1", int(l.ExtentBytes))
	sb2 := w.Rank(0).Dev.Alloc("s2", int(l.ExtentBytes))
	rb1 := w.Rank(4).Dev.Alloc("r1", int(l.ExtentBytes))
	rb2 := w.Rank(4).Dev.Alloc("r2", int(l.ExtentBytes))
	for i := range sb1.Data {
		sb1.Data[i] = 0x11
		sb2.Data[i] = 0x22
	}
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			q1 := r.Isend(p, 4, 1, sb1, l, 1)
			q2 := r.Isend(p, 4, 2, sb2, l, 1)
			r.Waitall(p, []*mpi.Request{q1, q2})
		case 4:
			// Post in reverse tag order: matching must go by tag.
			q2 := r.Irecv(p, 0, 2, rb2, l, 1)
			q1 := r.Irecv(p, 0, 1, rb1, l, 1)
			r.Waitall(p, []*mpi.Request{q1, q2})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rb1.Data[0] != 0x11 || rb2.Data[0] != 0x22 {
		t.Fatalf("tag matching crossed wires: %x %x", rb1.Data[0], rb2.Data[0])
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	l := datatype.Commit(datatype.Contiguous(64, datatype.Byte))
	sbuf := w.Rank(5).Dev.Alloc("s", 64)
	rbuf := w.Rank(0).Dev.Alloc("r", 64)
	sbuf.Data[0] = 0x5A
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 5:
			r.Wait(p, r.Isend(p, 0, 99, sbuf, l, 1))
		case 0:
			r.Wait(p, r.Irecv(p, mpi.AnySource, mpi.AnyTag, rbuf, l, 1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rbuf.Data[0] != 0x5A {
		t.Fatal("wildcard recv got wrong data")
	}
}

func TestBidirectionalExchange(t *testing.T) {
	// Both directions at once (halo-exchange shape) for every scheme.
	l := sparseLayout()
	for _, s := range schemes.Names() {
		s := s
		t.Run(s, func(t *testing.T) {
			w := newWorld(s, nil)
			buf := func(rk int, name string) *gpu.Buffer {
				return w.Rank(rk).Dev.Alloc(name, int(l.ExtentBytes))
			}
			s0, r0 := buf(0, "s0"), buf(0, "r0")
			s4, r4 := buf(4, "s4"), buf(4, "r4")
			for i := range s0.Data {
				s0.Data[i] = byte(i)
				s4.Data[i] = byte(i * 7)
			}
			err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
				var sb, rb *gpu.Buffer
				var peer int
				switch r.ID() {
				case 0:
					sb, rb, peer = s0, r0, 4
				case 4:
					sb, rb, peer = s4, r4, 0
				default:
					return
				}
				rq := r.Irecv(p, peer, 0, rb, l, 1)
				sq := r.Isend(p, peer, 0, sb, l, 1)
				r.Waitall(p, []*mpi.Request{rq, sq})
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range l.Blocks {
				if !bytes.Equal(r0.Data[b.Offset:b.Offset+b.Len], s4.Data[b.Offset:b.Offset+b.Len]) {
					t.Fatal("rank0 recv corrupted")
				}
				if !bytes.Equal(r4.Data[b.Offset:b.Offset+b.Len], s0.Data[b.Offset:b.Offset+b.Len]) {
					t.Fatal("rank4 recv corrupted")
				}
			}
		})
	}
}

func TestBulkManyBuffersAllSchemes(t *testing.T) {
	// 8 concurrent non-blocking sends per direction — the paper's "bulk"
	// scenario — must complete and verify under every scheme.
	l := sparseLayout()
	const nbuf = 8
	for _, s := range schemes.Names() {
		s := s
		t.Run(s, func(t *testing.T) {
			w := newWorld(s, nil)
			var sbufs, rbufs [nbuf]*gpu.Buffer
			for i := 0; i < nbuf; i++ {
				sbufs[i] = w.Rank(0).Dev.Alloc(fmt.Sprintf("s%d", i), int(l.ExtentBytes))
				rbufs[i] = w.Rank(4).Dev.Alloc(fmt.Sprintf("r%d", i), int(l.ExtentBytes))
				rng := rand.New(rand.NewSource(int64(i)))
				rng.Read(sbufs[i].Data)
			}
			err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
				var reqs []*mpi.Request
				switch r.ID() {
				case 0:
					for i := 0; i < nbuf; i++ {
						reqs = append(reqs, r.Isend(p, 4, i, sbufs[i], l, 1))
					}
				case 4:
					for i := 0; i < nbuf; i++ {
						reqs = append(reqs, r.Irecv(p, 0, i, rbufs[i], l, 1))
					}
				default:
					return
				}
				r.Waitall(p, reqs)
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < nbuf; i++ {
				for _, b := range l.Blocks {
					if !bytes.Equal(rbufs[i].Data[b.Offset:b.Offset+b.Len], sbufs[i].Data[b.Offset:b.Offset+b.Len]) {
						t.Fatalf("buffer %d block %+v corrupted", i, b)
					}
				}
			}
		})
	}
}

func TestFusionBeatsSyncOnBulkSparse(t *testing.T) {
	// The headline: for bulk sparse transfers the proposed scheme's
	// receive completes far earlier than GPU-Sync's.
	l := sparseLayout()
	run := func(scheme string) int64 {
		w := newWorld(scheme, nil)
		const nbuf = 16
		var sbufs, rbufs [nbuf]*gpu.Buffer
		for i := 0; i < nbuf; i++ {
			sbufs[i] = w.Rank(0).Dev.Alloc(fmt.Sprintf("s%d", i), int(l.ExtentBytes))
			rbufs[i] = w.Rank(4).Dev.Alloc(fmt.Sprintf("r%d", i), int(l.ExtentBytes))
		}
		var done int64
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			var reqs []*mpi.Request
			switch r.ID() {
			case 0:
				for i := 0; i < nbuf; i++ {
					reqs = append(reqs, r.Isend(p, 4, i, sbufs[i], l, 1))
				}
				r.Waitall(p, reqs)
			case 4:
				for i := 0; i < nbuf; i++ {
					reqs = append(reqs, r.Irecv(p, 0, i, rbufs[i], l, 1))
				}
				r.Waitall(p, reqs)
				done = p.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	sync := run("GPU-Sync")
	fused := run("Proposed-Tuned")
	if fused*2 >= sync {
		t.Fatalf("fusion %dns vs sync %dns: want >=2x win", fused, sync)
	}
}

func TestLayoutCacheHitsOnRepeatedSends(t *testing.T) {
	w := newWorld("Proposed-Tuned", nil)
	l := denseLayout()
	sbuf := w.Rank(0).Dev.Alloc("s", int(l.ExtentBytes))
	rbuf := w.Rank(4).Dev.Alloc("r", int(l.ExtentBytes))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		for it := 0; it < 5; it++ {
			switch r.ID() {
			case 0:
				r.Wait(p, r.Isend(p, 4, it, sbuf, l, 1))
			case 4:
				r.Wait(p, r.Irecv(p, 0, it, rbuf, l, 1))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	c := w.Rank(0).CacheStats()
	if c.Misses != 1 || c.Hits != 4 {
		t.Fatalf("cache: %d hits %d misses, want 4/1", c.Hits, c.Misses)
	}
}

// An uncharged LayoutEntry lookup that creates rank 0's cache entry must
// not make the following Isend's charged lookup a cheap hit: the world
// ends at the same virtual clock as one without the uncharged lookup.
func TestUnchargedLookupKeepsChargedClock(t *testing.T) {
	run := func(warm bool) int64 {
		w := newWorld("Proposed-Tuned", nil)
		l := denseLayout()
		sbuf := w.Rank(0).Dev.Alloc("s", int(l.ExtentBytes))
		rbuf := w.Rank(4).Dev.Alloc("r", int(l.ExtentBytes))
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			switch r.ID() {
			case 0:
				if warm {
					r.LayoutEntry(l, 1)
				}
				r.Wait(p, r.Isend(p, 4, 0, sbuf, l, 1))
			case 4:
				r.Wait(p, r.Irecv(p, 0, 0, rbuf, l, 1))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if s := w.Rank(0).CacheStats(); s.Misses != s.TotalCompiled() {
			t.Fatalf("warm=%v: %d misses but %d compiles", warm, s.Misses, s.TotalCompiled())
		}
		return w.Env.Now()
	}
	if cold, warm := run(false), run(true); cold != warm {
		t.Fatalf("uncharged lookup moved the clock: %d ns with, %d ns without", warm, cold)
	}
}

func TestBarrier(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	var maxBefore, minAfter int64 = -1, 1 << 62
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		p.Sleep(int64(r.ID()) * sim.Microsecond)
		if p.Now() > maxBefore {
			maxBefore = p.Now()
		}
		w.Barrier(p)
		if p.Now() < minAfter {
			minAfter = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if minAfter < maxBefore {
		t.Fatalf("rank left barrier at %d before last entered at %d", minAfter, maxBefore)
	}
}

func TestTraceAccumulates(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	l := sparseLayout()
	sbuf := w.Rank(0).Dev.Alloc("s", int(l.ExtentBytes))
	rbuf := w.Rank(4).Dev.Alloc("r", int(l.ExtentBytes))
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			r.Wait(p, r.Isend(p, 4, 0, sbuf, l, 1))
		case 4:
			r.Wait(p, r.Irecv(p, 0, 0, rbuf, l, 1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Rank(0).Trace.Total() == 0 || w.Rank(4).Trace.Total() == 0 {
		t.Fatal("trace breakdowns empty")
	}
}

// Property: for random vector layouts, counts, schemes, and protocols, the
// exchange always delivers exactly the layout-covered bytes.
func TestPropertyExchangeIntegrity(t *testing.T) {
	names := schemes.Names()
	f := func(seed int64, schemeIdx, count, blocklen, extra uint8, rput bool) bool {
		scheme := names[int(schemeIdx)%len(names)]
		cnt := int(count%4) + 1
		bl := int(blocklen%16) + 1
		l := datatype.Commit(datatype.Vector(20, bl, bl+int(extra%16), datatype.Float32))
		w := newWorld(scheme, func(c *mpi.Config) {
			if rput {
				c.Rendezvous = mpi.RPUT
			}
		})
		sbuf := w.Rank(0).Dev.Alloc("s", int(l.ExtentBytes)*cnt)
		rbuf := w.Rank(4).Dev.Alloc("r", int(l.ExtentBytes)*cnt)
		rand.New(rand.NewSource(seed)).Read(sbuf.Data)
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			switch r.ID() {
			case 0:
				r.Wait(p, r.Isend(p, 4, 0, sbuf, l, cnt))
			case 4:
				r.Wait(p, r.Irecv(p, 0, 0, rbuf, l, cnt))
			}
		})
		if err != nil {
			return false
		}
		for _, b := range l.Repeat(cnt) {
			if !bytes.Equal(rbuf.Data[b.Offset:b.Offset+b.Len], sbuf.Data[b.Offset:b.Offset+b.Len]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: propertyRuns(t, 40)}); err != nil {
		t.Fatal(err)
	}
}

// Property: MPI non-overtaking — N same-tag sends with randomly mixed
// layouts (contiguous, sparse, eager-sized, rendezvous-sized) must match
// the receiver's posted receives strictly in posting order, even though
// packing delays differ wildly between messages. With late set the
// receiver posts only once every envelope has landed, so each receive
// matches from the unexpected queue, which then holds eager frames and
// rendezvous sends in arrival order; with sameNode the pair shares a node
// and every envelope is an RTS offering DirectIPC.
func TestPropertyNonOvertakingMixedSends(t *testing.T) {
	mkLayout := func(rng *rand.Rand) *datatype.Layout {
		switch rng.Intn(4) {
		case 0: // small contiguous (eager, no packing)
			return datatype.Commit(datatype.Contiguous(rng.Intn(200)+8, datatype.Float64))
		case 1: // large contiguous (rendezvous, no packing)
			return datatype.Commit(datatype.Contiguous(4096+rng.Intn(4096), datatype.Float64))
		case 2: // sparse small (eager after packing)
			return datatype.Commit(datatype.Vector(rng.Intn(100)+10, 1, 3, datatype.Float32))
		default: // sparse large (rendezvous after packing)
			return datatype.Commit(datatype.Vector(rng.Intn(500)+600, 8, 17, datatype.Float64))
		}
	}
	f := func(seed int64, schemeIdx uint8, rput, late, sameNode bool) bool {
		names := schemes.Names()
		scheme := names[int(schemeIdx)%len(names)]
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		w := newWorld(scheme, func(c *mpi.Config) {
			if rput {
				c.Rendezvous = mpi.RPUT
			}
		})
		dst := 4 // another node
		if sameNode {
			dst = 1
		}
		layouts := make([]*datatype.Layout, n)
		sbufs := make([]*gpu.Buffer, n)
		rbufs := make([]*gpu.Buffer, n)
		for i := 0; i < n; i++ {
			layouts[i] = mkLayout(rng)
			sbufs[i] = w.Rank(0).Dev.Alloc(fmt.Sprintf("s%d", i), int(layouts[i].ExtentBytes))
			rbufs[i] = w.Rank(dst).Dev.Alloc(fmt.Sprintf("r%d", i), int(layouts[i].ExtentBytes))
			rand.New(rand.NewSource(seed + int64(i))).Read(sbufs[i].Data)
		}
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			var reqs []*mpi.Request
			switch r.ID() {
			case 0:
				for i := 0; i < n; i++ {
					reqs = append(reqs, r.Isend(p, dst, 7, sbufs[i], layouts[i], 1))
				}
			case dst:
				for late && mpi.Unexpected(r) < n {
					p.Sleep(sim.Microsecond)
				}
				for i := 0; i < n; i++ {
					reqs = append(reqs, r.Irecv(p, 0, 7, rbufs[i], layouts[i], 1))
				}
			default:
				return
			}
			r.Waitall(p, reqs)
		})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for _, b := range layouts[i].Blocks {
				if !bytes.Equal(rbufs[i].Data[b.Offset:b.Offset+b.Len], sbufs[i].Data[b.Offset:b.Offset+b.Len]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: propertyRuns(t, 30)}); err != nil {
		t.Fatal(err)
	}
}

func TestDisableLayoutCacheChargesEveryMessage(t *testing.T) {
	run := func(disable bool) int64 {
		w := newWorld("Proposed-Tuned", func(c *mpi.Config) { c.DisableLayoutCache = disable })
		l := sparseLayout()
		sbuf := w.Rank(0).Dev.Alloc("s", int(l.ExtentBytes))
		rbuf := w.Rank(4).Dev.Alloc("r", int(l.ExtentBytes))
		var done int64
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			for it := 0; it < 4; it++ {
				switch r.ID() {
				case 0:
					r.Wait(p, r.Isend(p, 4, it, sbuf, l, 1))
				case 4:
					r.Wait(p, r.Irecv(p, 0, it, rbuf, l, 1))
					done = p.Now()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	cached, uncached := run(false), run(true)
	if cached >= uncached {
		t.Fatalf("cached (%d) should beat uncached (%d)", cached, uncached)
	}
}

func TestEagerLimitBoundary(t *testing.T) {
	// A payload exactly at the eager limit travels eagerly (sender
	// completes locally); one byte past it goes rendezvous.
	limit := mpi.DefaultConfig().EagerLimitBytes
	for _, extra := range []int64{0, 8} {
		l := datatype.Commit(datatype.Contiguous(int((limit+extra*8)/8), datatype.Byte))
		_ = l
	}
	lEager := datatype.Commit(datatype.Contiguous(int(limit), datatype.Byte))
	lRend := datatype.Commit(datatype.Contiguous(int(limit)+1, datatype.Byte))
	run := func(l *datatype.Layout) (senderDone, recvDone int64) {
		w := newWorld("GPU-Sync", nil)
		sbuf := w.Rank(0).Dev.Alloc("s", int(l.ExtentBytes))
		rbuf := w.Rank(4).Dev.Alloc("r", int(l.ExtentBytes))
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			switch r.ID() {
			case 0:
				r.Wait(p, r.Isend(p, 4, 0, sbuf, l, 1))
				senderDone = p.Now()
			case 4:
				p.Sleep(50 * sim.Microsecond) // recv posted late
				r.Wait(p, r.Irecv(p, 0, 0, rbuf, l, 1))
				recvDone = p.Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	es, _ := run(lEager)
	rs, _ := run(lRend)
	// Eager sender completes long before the late receiver posts;
	// rendezvous sender must wait for the handshake.
	if es >= 50*sim.Microsecond {
		t.Fatalf("eager sender blocked until recv posted: %d", es)
	}
	if rs < 50*sim.Microsecond {
		t.Fatalf("rendezvous sender completed without handshake: %d", rs)
	}
}

func TestMessageTruncationPanics(t *testing.T) {
	w := newWorld("GPU-Sync", nil)
	big := datatype.Commit(datatype.Contiguous(128, datatype.Byte))
	small := datatype.Commit(datatype.Contiguous(64, datatype.Byte))
	sbuf := w.Rank(0).Dev.Alloc("s", 128)
	rbuf := w.Rank(4).Dev.Alloc("r", 64)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected truncation panic")
		}
		if !strings.Contains(fmt.Sprint(r), "truncation") {
			t.Fatalf("panic %v not a truncation error", r)
		}
	}()
	_ = w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			r.Wait(p, r.Isend(p, 4, 0, sbuf, big, 1))
		case 4:
			r.Wait(p, r.Irecv(p, 0, 0, rbuf, small, 1))
		}
	})
	t.Fatal("run returned despite truncation")
}

func TestPipelinedRendezvousCorrectness(t *testing.T) {
	// Large sparse message through the chunked path, for all schemes.
	lens := make([]int, 3000)
	displs := make([]int, 3000)
	for i := range lens {
		lens[i] = 64 // 256B blocks -> ~750KB message
		displs[i] = i * 70
	}
	l := datatype.Commit(datatype.Indexed(lens, displs, datatype.Float32))
	for _, s := range schemes.Names() {
		s := s
		t.Run(s, func(t *testing.T) {
			exchange(t, s, 0, 4, l, 1, func(c *mpi.Config) {
				c.PipelineChunkBytes = 128 << 10
			})
		})
	}
}

func TestPipelinedChunkCountsAndFusion(t *testing.T) {
	lens := make([]int, 2048)
	displs := make([]int, 2048)
	for i := range lens {
		lens[i] = 128 // 512B blocks -> 1MB message
		displs[i] = i * 130
	}
	l := datatype.Commit(datatype.Indexed(lens, displs, datatype.Float32))
	w := newWorld("Proposed-Tuned", func(c *mpi.Config) { c.PipelineChunkBytes = 256 << 10 })
	sbuf := w.Rank(0).Dev.Alloc("s", int(l.ExtentBytes))
	rbuf := w.Rank(4).Dev.Alloc("r", int(l.ExtentBytes))
	for i := range sbuf.Data {
		sbuf.Data[i] = byte(i % 255)
	}
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			r.Wait(p, r.Isend(p, 4, 0, sbuf, l, 1))
		case 4:
			r.Wait(p, r.Irecv(p, 0, 0, rbuf, l, 1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range l.Blocks {
		if !bytes.Equal(rbuf.Data[b.Offset:b.Offset+b.Len], sbuf.Data[b.Offset:b.Offset+b.Len]) {
			t.Fatalf("block %+v corrupted", b)
		}
	}
	// ~1MB at 256KB chunks -> 4 chunk pack requests, fused on the sender.
	if got := w.Rank(0).Dev.Stats.FusedRequests; got < 3 {
		t.Fatalf("sender fused requests = %d, want chunked packs", got)
	}
}

func TestPipelinedOverheadBounded(t *testing.T) {
	// A single large sparse message. On V100-class GPUs packing is so
	// much faster than the EDR wire that chunk-pipelining the pack phase
	// cannot win — the paper fuses packs instead of pipelining them, and
	// this experiment shows why. The chunked path must still stay within
	// ~10% of the whole-message rendezvous (its per-chunk control
	// traffic is bounded).
	lens := make([]int, 20000)
	displs := make([]int, 20000)
	for i := range lens {
		lens[i] = 16 // 64B blocks -> 1.28MB, segment-bound packing
		displs[i] = i * 20
	}
	l := datatype.Commit(datatype.Indexed(lens, displs, datatype.Float32))
	plain := exchange(t, "Proposed-Tuned", 0, 4, l, 1, nil)
	piped := exchange(t, "Proposed-Tuned", 0, 4, l, 1, func(c *mpi.Config) {
		c.PipelineChunkBytes = 128 << 10
	})
	if float64(piped) > float64(plain)*1.10 {
		t.Fatalf("pipelined (%d) pays more than 10%% over whole-message rendezvous (%d)", piped, plain)
	}
}

func TestPipelineLateReceiverOrphanChunks(t *testing.T) {
	// Chunk announcements arrive before the receive is posted: they must
	// park and be adopted at match time.
	lens := make([]int, 2000)
	displs := make([]int, 2000)
	for i := range lens {
		lens[i] = 64
		displs[i] = i * 70
	}
	l := datatype.Commit(datatype.Indexed(lens, displs, datatype.Float32))
	w := newWorld("GPU-Sync", func(c *mpi.Config) { c.PipelineChunkBytes = 64 << 10 })
	sbuf := w.Rank(0).Dev.Alloc("s", int(l.ExtentBytes))
	rbuf := w.Rank(4).Dev.Alloc("r", int(l.ExtentBytes))
	for i := range sbuf.Data {
		sbuf.Data[i] = byte(i % 253)
	}
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			r.Wait(p, r.Isend(p, 4, 0, sbuf, l, 1))
		case 4:
			p.Sleep(3 * sim.Millisecond) // all chunks announced before posting
			r.Wait(p, r.Irecv(p, 0, 0, rbuf, l, 1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range l.Blocks {
		if !bytes.Equal(rbuf.Data[b.Offset:b.Offset+b.Len], sbuf.Data[b.Offset:b.Offset+b.Len]) {
			t.Fatalf("block %+v corrupted", b)
		}
	}
}

// propertyRuns scales a property test's case count: the full matrix in CI,
// a fast sample under `go test -short`.
func propertyRuns(t *testing.T, full int) int {
	t.Helper()
	if testing.Short() {
		if full > 5 {
			return full / 5
		}
		return full
	}
	return full
}

// TestShortReceive posts a receive for three elements of a 32 KiB strided
// vector and matches it with a one-element send: the first element's
// blocks must hold the sent bytes and every other byte of the receive
// buffer must keep its old value, on every protocol and in both payload
// modes.
func TestShortReceive(t *testing.T) {
	l := datatype.Commit(datatype.Vector(64, 64, 128, datatype.Float64))
	protocols := []struct {
		name     string
		src, dst int
		mut      func(*mpi.Config)
	}{
		{"eager", 0, 4, func(c *mpi.Config) { c.EagerLimitBytes = 1 << 20 }},
		{"RPUT", 0, 4, func(c *mpi.Config) { c.Rendezvous = mpi.RPUT }},
		{"RGET", 0, 4, nil},
		{"RGET-pipelined", 0, 4, func(c *mpi.Config) { c.PipelineChunkBytes = 8 << 10 }},
		{"DirectIPC", 0, 1, nil},
	}
	for _, pr := range protocols {
		for _, lazy := range []bool{false, true} {
			pr, lazy := pr, lazy
			t.Run(fmt.Sprintf("%s/lazy=%v", pr.name, lazy), func(t *testing.T) {
				w := newWorld("Proposed-Tuned", pr.mut)
				if lazy {
					w.Rank(pr.src).Dev.LazyThreshold = 1
					w.Rank(pr.dst).Dev.LazyThreshold = 1
				}
				sbuf := w.Rank(pr.src).Dev.Alloc("send", int(l.ExtentBytes))
				rbuf := w.Rank(pr.dst).Dev.Alloc("recv", int(l.ExtentBytes)*3)
				if sbuf.IsLazy() != lazy || rbuf.IsLazy() != lazy {
					t.Fatal("buffers not in the requested payload mode")
				}
				sbuf.FillStream(1)
				rbuf.FillStream(2)
				sent := make([]byte, sbuf.Len())
				want := make([]byte, rbuf.Len())
				payload.FillBytes(sent, 1)
				payload.FillBytes(want, 2)
				for _, b := range l.Blocks {
					copy(want[b.Offset:b.Offset+b.Len], sent[b.Offset:b.Offset+b.Len])
				}
				var sq, rq *mpi.Request
				err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
					switch r.ID() {
					case pr.src:
						sq = r.Isend(p, pr.dst, 7, sbuf, l, 1)
						r.Wait(p, sq)
					case pr.dst:
						rq = r.Irecv(p, pr.src, 7, rbuf, l, 3)
						r.Wait(p, rq)
					}
				})
				if err != nil || sq.Err() != nil || rq.Err() != nil {
					t.Fatalf("run %v, send %v, recv %v", err, sq.Err(), rq.Err())
				}
				if got := rbuf.Materialize(); !bytes.Equal(got, want) {
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("receive buffer differs first at byte %d of %d", i, len(got))
						}
					}
				}
			})
		}
	}
}
