package mpi_test

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestTwoSidedLegClocks pins the final virtual clock and the fabric's
// message count of every two-sided protocol, in both payload modes, under
// Proposed-Tuned, so that a change to how the envelope FIFO, FIN or CTS
// are represented on the host shows here if it moves modelled time. Every
// leg sends a first message and then a contiguous second one, whose
// envelope waits in the send FIFO behind the first one's packing. The
// RPUT leg is the only test of the CTS path over a contiguous send.
func TestTwoSidedLegClocks(t *testing.T) {
	small := datatype.Commit(datatype.Contiguous(512, datatype.Float64)) // 4 KiB
	for _, leg := range []struct {
		name              string
		src, dst          int
		mut               func(*mpi.Config)
		first, second     *datatype.Layout
		wantNow, wantMsgs int64
	}{
		{"eager", 0, 4, nil, sparseLayout(), small, 29176, 2},
		{"RGET", 0, 4, nil, denseLayout(), small, 25760, 5},
		{"RPUT", 0, 4, func(c *mpi.Config) { c.Rendezvous = mpi.RPUT },
			denseLayout(), datatype.Commit(datatype.Contiguous(8192, datatype.Float64)), 24760, 6},
		{"RGET-pipelined", 0, 4, func(c *mpi.Config) { c.PipelineChunkBytes = 16 << 10 },
			denseLayout(), small, 27960, 15},
		{"DirectIPC", 0, 1, nil, denseLayout(), small, 18390, 0}, // same node: no fabric message
	} {
		for _, lazy := range []bool{false, true} {
			w := newWorld("Proposed-Tuned", leg.mut)
			if lazy {
				w.Rank(leg.src).Dev.LazyThreshold = 1
				w.Rank(leg.dst).Dev.LazyThreshold = 1
			}
			l1, l2 := leg.first, leg.second
			sb1 := w.Rank(leg.src).Dev.Alloc("s1", int(l1.ExtentBytes))
			sb2 := w.Rank(leg.src).Dev.Alloc("s2", int(l2.ExtentBytes))
			rb1 := w.Rank(leg.dst).Dev.Alloc("r1", int(l1.ExtentBytes))
			rb2 := w.Rank(leg.dst).Dev.Alloc("r2", int(l2.ExtentBytes))
			sb1.FillStream(1)
			sb2.FillStream(2)
			err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
				var reqs []*mpi.Request
				switch r.ID() {
				case leg.src:
					reqs = append(reqs, r.Isend(p, leg.dst, 1, sb1, l1, 1), r.Isend(p, leg.dst, 2, sb2, l2, 1))
				case leg.dst:
					reqs = append(reqs, r.Irecv(p, leg.src, 1, rb1, l1, 1), r.Irecv(p, leg.src, 2, rb2, l2, 1))
				default:
					return
				}
				if err := r.Waitall(p, reqs); err != nil {
					t.Error(err)
				}
			})
			if err != nil {
				t.Fatalf("%s lazy=%v: %v", leg.name, lazy, err)
			}
			sent, got1 := sb1.Materialize(), rb1.Materialize()
			for _, b := range l1.Blocks {
				if !bytes.Equal(got1[b.Offset:b.Offset+b.Len], sent[b.Offset:b.Offset+b.Len]) {
					t.Fatalf("%s lazy=%v: first message block %+v differs", leg.name, lazy, b)
				}
			}
			if !bytes.Equal(rb2.Materialize(), sb2.Materialize()) {
				t.Fatalf("%s lazy=%v: second message differs", leg.name, lazy)
			}
			if now, msgs := w.Env.Now(), w.Cluster.Net.TotalMessages(); now != leg.wantNow || msgs != leg.wantMsgs {
				t.Errorf("%s lazy=%v: clock %d ns, %d fabric messages; want %d ns, %d",
					leg.name, lazy, now, msgs, leg.wantNow, leg.wantMsgs)
			}
		}
	}
}

// legAllocs returns the heap objects and bytes one warm leg allocates: a
// persistent world runs batches of n sequential legs (Isend+Wait on src,
// Irecv+Wait on dst) and the difference between a 64- and a 192-leg batch
// drops the per-run cost of spawning the procs.
func legAllocs(t *testing.T, w *mpi.World, src, dst int, l *datatype.Layout) (objs, bytes float64) {
	t.Helper()
	sb := w.Rank(src).Dev.Alloc("s", int(l.ExtentBytes))
	rb := w.Rank(dst).Dev.Alloc("r", int(l.ExtentBytes))
	batch := func(n int) (uint64, uint64) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			for i := 0; i < n; i++ {
				var err error
				switch r.ID() {
				case src:
					err = r.Wait(p, r.Isend(p, dst, 3, sb, l, 1))
				case dst:
					err = r.Wait(p, r.Irecv(p, src, 3, rb, l, 1))
				}
				if err != nil {
					t.Error(err)
				}
			}
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}
	batch(192) // warm the layout cache, the staging pool and the FIFO maps
	o1, b1 := batch(64)
	o2, b2 := batch(192)
	return float64(o2-o1) / 128, float64(b2-b1) / 128
}

// TestWarmTwoSidedLegAllocs pins the heap objects of one warm leg under
// Proposed-Tuned, each a sequential Isend+Wait / Irecv+Wait pair:
//   - a same-node DirectIPC leg of the 6000-B sparse layout makes 3: the
//     two requests and the fusion handle, about 340 B. The send is its
//     own RTS, and the job's Peer is the receive entry's cached one (5
//     before, about 520 B, with an RTS frame and a Peer per leg);
//   - an inter-node RGET leg of the 64 KiB strided vector makes 4: the
//     requests and the pack and unpack fusion handles, about 385 B. The
//     jobs are values copied into their request-list entries, and the
//     send is its own RTS and receives both legs of its read, so neither
//     the RTS, the read nor the FIN makes a frame or a closure (5 before,
//     512 B; 9 before that, 818 B);
//   - an eager leg of 4 KiB contiguous makes 4: the requests, the eager
//     frame and its payload snapshot, and no closure (5 before).
func TestWarmTwoSidedLegAllocs(t *testing.T) {
	for _, c := range []struct {
		name     string
		src, dst int
		l        *datatype.Layout
		want     float64
	}{
		{"same-node", 0, 1, sparseLayout(), 3},
		{"RGET", 0, 4, denseLayout(), 4},
		{"eager", 0, 4, datatype.Commit(datatype.Contiguous(512, datatype.Float64)), 4},
	} {
		w := newWorld("Proposed-Tuned", nil)
		objs, bytes := legAllocs(t, w, c.src, c.dst, c.l)
		t.Logf("%s: %.2f objects, %.1f B per warm leg", c.name, objs, bytes)
		if math.Round(objs) != c.want {
			t.Errorf("a warm %s leg allocates %.2f objects, want %v", c.name, objs, c.want)
		}
	}
}
