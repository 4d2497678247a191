package mpi_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// chaosExchange runs one src->dst transfer under a fault plan and asserts
// byte-exact delivery plus zero leaked requests. It returns the world for
// further inspection.
func chaosExchange(t *testing.T, scheme string, plan *fault.Plan, src, dst int,
	l *datatype.Layout, count int, mut func(*mpi.Config)) *mpi.World {
	t.Helper()
	w := newWorld(scheme, func(cfg *mpi.Config) {
		cfg.Faults = plan
		if mut != nil {
			mut(cfg)
		}
	})
	sbuf := w.Rank(src).Dev.Alloc("send", int(l.ExtentBytes)*count)
	rbuf := w.Rank(dst).Dev.Alloc("recv", int(l.ExtentBytes)*count)
	rng := rand.New(rand.NewSource(7))
	rng.Read(sbuf.Data)
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case src:
			if err := r.Wait(p, r.Isend(p, dst, 3, sbuf, l, count)); err != nil {
				t.Errorf("send: %v", err)
			}
		case dst:
			if err := r.Wait(p, r.Irecv(p, src, 3, rbuf, l, count)); err != nil {
				t.Errorf("recv: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatalf("%s under %s: %v", scheme, w.Injector().Counts(), err)
	}
	for _, b := range l.Repeat(count) {
		if !bytes.Equal(rbuf.Data[b.Offset:b.Offset+b.Len], sbuf.Data[b.Offset:b.Offset+b.Len]) {
			t.Fatalf("%s: block %+v corrupted after recovery (%s)", scheme, b, w.Injector().Counts())
		}
	}
	if n := w.LeakedRequests(); n != 0 {
		t.Fatalf("%s: %d leaked requests", scheme, n)
	}
	return w
}

// eagerStorm pushes nmsg eager messages 0->4 under plan and verifies each
// payload; enough independent drop/corrupt rolls that the plan reliably
// fires. Returns the world for fault-counter assertions.
func eagerStorm(t *testing.T, plan *fault.Plan, nmsg int) *mpi.World {
	t.Helper()
	l := datatype.Commit(datatype.Contiguous(512, datatype.Float64)) // 4 KiB, eager
	w := newWorld("GPU-Sync", func(cfg *mpi.Config) { cfg.Faults = plan })
	sb := make([]*gpu.Buffer, nmsg)
	rb := make([]*gpu.Buffer, nmsg)
	for i := range sb {
		sb[i] = w.Rank(0).Dev.Alloc(fmt.Sprintf("s%d", i), int(l.ExtentBytes))
		rb[i] = w.Rank(4).Dev.Alloc(fmt.Sprintf("r%d", i), int(l.ExtentBytes))
		rng := rand.New(rand.NewSource(int64(i + 1)))
		rng.Read(sb[i].Data)
	}
	if err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		var qs []*mpi.Request
		switch r.ID() {
		case 0:
			for i := 0; i < nmsg; i++ {
				qs = append(qs, r.Isend(p, 4, i, sb[i], l, 1))
			}
		case 4:
			for i := 0; i < nmsg; i++ {
				qs = append(qs, r.Irecv(p, 0, i, rb[i], l, 1))
			}
		default:
			return
		}
		if err := r.Waitall(p, qs); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	}); err != nil {
		t.Fatalf("run under %s: %v", w.Injector().Counts(), err)
	}
	for i := range rb {
		if !bytes.Equal(rb[i].Data, sb[i].Data) {
			t.Fatalf("msg %d corrupted after recovery (%s)", i, w.Injector().Counts())
		}
	}
	if n := w.LeakedRequests(); n != 0 {
		t.Fatalf("%d leaked requests", n)
	}
	return w
}

// TestReliableKeepsNonOvertakingOrder: two same-tag sends of different
// sizes, the first dropped and retransmitted after the second lands. The
// receives are posted first, in send order, so matching in arrival order
// would hand the 768 B message to the 512 B receive (ErrTruncate); MPI's
// non-overtaking rule requires each receive to get its own message.
func TestReliableKeepsNonOvertakingOrder(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Link: fault.LinkPlan{DropProb: 0.25}}
	w := newWorld("GPU-Sync", func(cfg *mpi.Config) { cfg.Faults = plan })
	var ls [2]*datatype.Layout
	var sb, rb [2]*gpu.Buffer
	for i, n := range []int{64, 96} { // 512 B and 768 B, both eager
		ls[i] = datatype.Commit(datatype.Contiguous(n, datatype.Float64))
		sb[i] = w.Rank(0).Dev.Alloc(fmt.Sprintf("s%d", i), n*8)
		rb[i] = w.Rank(4).Dev.Alloc(fmt.Sprintf("r%d", i), n*8)
		rand.New(rand.NewSource(int64(i + 1))).Read(sb[i].Data)
	}
	if err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		var qs []*mpi.Request
		for i := range ls {
			switch r.ID() {
			case 0:
				qs = append(qs, r.Isend(p, 4, 1, sb[i], ls[i], 1))
			case 4:
				qs = append(qs, r.Irecv(p, 0, 1, rb[i], ls[i], 1))
			}
		}
		if err := r.Waitall(p, qs); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	}); err != nil {
		t.Fatalf("run under %s: %v", w.Injector().Counts(), err)
	}
	if w.Injector().Count(fault.Retransmit) == 0 {
		t.Fatal("plan retransmitted nothing; test proves nothing")
	}
	for i := range sb {
		if !bytes.Equal(rb[i].Data, sb[i].Data) {
			t.Fatalf("receive %d got the wrong message (%s)", i, w.Injector().Counts())
		}
	}
	if n := w.LeakedRequests(); n != 0 {
		t.Fatalf("%d leaked requests", n)
	}
}

func TestReliableEagerSurvivesDrops(t *testing.T) {
	plan := &fault.Plan{Seed: 11, Link: fault.LinkPlan{DropProb: 0.3, DupProb: 0.1}}
	w := eagerStorm(t, plan, 12)
	inj := w.Injector()
	if inj.Count(fault.Drop) == 0 {
		t.Fatal("plan injected no drops; test proves nothing")
	}
	if inj.Count(fault.Retransmit) == 0 {
		t.Fatalf("drops recovered without retransmission? %s", inj.Counts())
	}
}

func TestReliableEagerSurvivesCorruption(t *testing.T) {
	plan := &fault.Plan{Seed: 5, Link: fault.LinkPlan{CorruptProb: 0.3}}
	w := eagerStorm(t, plan, 12)
	if w.Injector().Count(fault.Corrupt) == 0 {
		t.Fatal("plan injected no corruption; test proves nothing")
	}
}

func TestReliableRendezvousRGETSurvivesFaults(t *testing.T) {
	plan := &fault.Plan{Seed: 3, Link: fault.LinkPlan{DropProb: 0.2, CorruptProb: 0.2}}
	w := chaosExchange(t, "Proposed-Tuned", plan, 0, 4, denseLayout(), 1, nil)
	if w.Injector().Total() == 0 {
		t.Fatal("no faults injected on rendezvous path")
	}
}

func TestReliableRendezvousRPUTSurvivesFaults(t *testing.T) {
	plan := &fault.Plan{Seed: 9, Link: fault.LinkPlan{DropProb: 0.2, CorruptProb: 0.1}}
	chaosExchange(t, "Proposed-Tuned", plan, 0, 4, denseLayout(), 1, func(cfg *mpi.Config) {
		cfg.Rendezvous = mpi.RPUT
	})
}

func TestReliableSurvivesNICPostErrors(t *testing.T) {
	plan := &fault.Plan{Seed: 2, NIC: fault.NICPlan{PostErrorProb: 0.4}}
	w := chaosExchange(t, "GPU-Sync", plan, 0, 4, denseLayout(), 1, nil)
	if w.Injector().Count(fault.NICError) == 0 {
		t.Fatal("plan injected no NIC errors; test proves nothing")
	}
}

func TestReliableSurvivesFlappyLink(t *testing.T) {
	plan, err := fault.Preset("flappy-link", 4)
	if err != nil {
		t.Fatal(err)
	}
	chaosExchange(t, "GPU-Sync", plan, 0, 4, sparseLayout(), 1, nil)
}

func TestReliablePipelinedChunksSurviveFaults(t *testing.T) {
	plan := &fault.Plan{Seed: 21, Link: fault.LinkPlan{DropProb: 0.15, CorruptProb: 0.1}}
	chaosExchange(t, "Proposed-Tuned", plan, 0, 4, denseLayout(), 1, func(cfg *mpi.Config) {
		cfg.PipelineChunkBytes = 8 << 10
	})
}

func TestReliableIntraNodeNeverFaults(t *testing.T) {
	// IPC/loopback paths bypass the fabric; even an extreme plan must not
	// touch an intra-node transfer.
	plan := &fault.Plan{Seed: 1, Link: fault.LinkPlan{DropProb: 0.9, CorruptProb: 0.9}}
	w := chaosExchange(t, "GPU-Sync", plan, 0, 1, denseLayout(), 1, nil)
	if n := w.Injector().Total(); n != 0 {
		t.Fatalf("intra-node transfer recorded %d fault events: %s", n, w.Injector().Counts())
	}
}

func TestRetriesExhaustedSurfacesTypedError(t *testing.T) {
	// A link that drops everything: the sender must give up with a typed
	// *OpError after its bounded retries, and the receiver — which can never
	// learn of the failure, since the error notification is dropped too —
	// must be caught by the watchdog rather than hanging forever.
	l := datatype.Commit(datatype.Contiguous(512, datatype.Float64))
	w := newWorld("GPU-Sync", func(cfg *mpi.Config) {
		cfg.Faults = &fault.Plan{Seed: 1, Link: fault.LinkPlan{DropProb: 1}}
		cfg.Retry = mpi.RetryPolicy{MaxRetries: 3}
		cfg.StallTimeoutNs = 20 * sim.Millisecond
	})
	sbuf := w.Rank(0).Dev.Alloc("send", int(l.ExtentBytes))
	rbuf := w.Rank(4).Dev.Alloc("recv", int(l.ExtentBytes))
	var sendErr error
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case 0:
			sendErr = r.Waitall(p, []*mpi.Request{r.Isend(p, 4, 3, sbuf, l, 1)})
		case 4:
			r.Wait(p, r.Irecv(p, 0, 3, rbuf, l, 1))
		}
	})
	var stall *sim.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("Run() = %v, want *StallError for the orphaned receiver", err)
	}
	var op *mpi.OpError
	if !errors.As(sendErr, &op) {
		t.Fatalf("send error %v, want *OpError", sendErr)
	}
	if !errors.Is(sendErr, mpi.ErrRetriesExhausted) {
		t.Fatalf("send error %v does not wrap ErrRetriesExhausted", sendErr)
	}
	if op.Attempts < 4 { // initial try + MaxRetries
		t.Fatalf("gave up after %d attempts, want >= 4", op.Attempts)
	}
	if w.Injector().Count(fault.GiveUp) == 0 {
		t.Fatalf("no give-up event recorded: %s", w.Injector().Counts())
	}
}

func TestTruncationIsTypedUnderReliability(t *testing.T) {
	// With a fault plan active, a too-small receive surfaces as a typed
	// error instead of the fault-free panic. Eager: the sender has already
	// completed (fire-and-forget) when the receiver detects the mismatch,
	// so only the receiver errors. Rendezvous: truncation is detected at
	// RTS-match time, before any payload moves, and the abort notification
	// fails the still-waiting sender with ErrPeerAborted.
	small := datatype.Commit(datatype.Contiguous(8, datatype.Float64))
	for _, tc := range []struct {
		name     string
		elems    int
		wantSend error // nil = sender must succeed
	}{
		{"eager", 512, nil},
		{"rendezvous", 64 << 10, mpi.ErrPeerAborted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			big := datatype.Commit(datatype.Contiguous(tc.elems, datatype.Float64))
			w := newWorld("GPU-Sync", func(cfg *mpi.Config) {
				cfg.Faults = &fault.Plan{Seed: 1} // enables the layer, injects nothing
			})
			sbuf := w.Rank(0).Dev.Alloc("send", int(big.ExtentBytes))
			rbuf := w.Rank(4).Dev.Alloc("recv", int(big.ExtentBytes))
			var sendErr, recvErr error
			if err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
				switch r.ID() {
				case 0:
					sendErr = r.Wait(p, r.Isend(p, 4, 3, sbuf, big, 1))
				case 4:
					recvErr = r.Wait(p, r.Irecv(p, 0, 3, rbuf, small, 1))
				}
			}); err != nil {
				t.Fatalf("run: %v", err)
			}
			if !errors.Is(recvErr, mpi.ErrTruncate) {
				t.Fatalf("recv error %v, want ErrTruncate", recvErr)
			}
			if tc.wantSend == nil {
				if sendErr != nil {
					t.Fatalf("send error %v, want nil (eager completes before the mismatch)", sendErr)
				}
			} else if !errors.Is(sendErr, tc.wantSend) {
				t.Fatalf("send error %v, want %v", sendErr, tc.wantSend)
			}
			if w.LeakedRequests() != 0 {
				t.Fatalf("%d leaked requests after abort", w.LeakedRequests())
			}
		})
	}
}

func TestReliableDeterministicReplay(t *testing.T) {
	plan := &fault.Plan{Seed: 13, Link: fault.LinkPlan{
		DropProb: 0.2, DupProb: 0.05, CorruptProb: 0.15, DelayProb: 0.1}}
	run := func() (int64, string, []fault.Event) {
		w := newWorld("Proposed-Tuned", func(cfg *mpi.Config) { cfg.Faults = plan })
		l := denseLayout()
		sbuf := w.Rank(0).Dev.Alloc("send", int(l.ExtentBytes))
		rbuf := w.Rank(4).Dev.Alloc("recv", int(l.ExtentBytes))
		rng := rand.New(rand.NewSource(1))
		rng.Read(sbuf.Data)
		if err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			switch r.ID() {
			case 0:
				r.Wait(p, r.Isend(p, 4, 3, sbuf, l, 1))
			case 4:
				r.Wait(p, r.Irecv(p, 0, 3, rbuf, l, 1))
			}
		}); err != nil {
			t.Fatal(err)
		}
		return w.Env.Now(), w.Injector().Counts(), w.Injector().Events()
	}
	c1, s1, e1 := run()
	c2, s2, e2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("nondeterministic replay: clock %d vs %d, counts %q vs %q", c1, c2, s1, s2)
	}
	if len(e1) != len(e2) {
		t.Fatalf("event logs differ: %d vs %d entries", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestFaultFreePlanKeepsTimingsIdentical(t *testing.T) {
	// An enabled-but-empty plan activates the reliability layer; a nil plan
	// keeps the classic path. The delivered bytes must match either way, and
	// the nil-plan run must also exactly reproduce its own timings (the
	// golden-trace property is asserted separately by the bench goldens).
	run := func(plan *fault.Plan) (int64, []byte) {
		w := newWorld("GPU-Sync", func(cfg *mpi.Config) { cfg.Faults = plan })
		l := denseLayout()
		sbuf := w.Rank(0).Dev.Alloc("send", int(l.ExtentBytes))
		rbuf := w.Rank(4).Dev.Alloc("recv", int(l.ExtentBytes))
		rng := rand.New(rand.NewSource(2))
		rng.Read(sbuf.Data)
		if err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			switch r.ID() {
			case 0:
				r.Wait(p, r.Isend(p, 4, 3, sbuf, l, 1))
			case 4:
				r.Wait(p, r.Irecv(p, 0, 3, rbuf, l, 1))
			}
		}); err != nil {
			t.Fatal(err)
		}
		return w.Env.Now(), append([]byte(nil), rbuf.Data...)
	}
	cNil1, bNil1 := run(nil)
	cNil2, bNil2 := run(nil)
	_, bEmpty := run(&fault.Plan{Seed: 99})
	if cNil1 != cNil2 || !bytes.Equal(bNil1, bNil2) {
		t.Fatal("nil-plan runs are not reproducible")
	}
	if !bytes.Equal(bNil1, bEmpty) {
		t.Fatal("reliability layer changed delivered bytes")
	}
}

func TestManyRequestsUnderMixedChaos(t *testing.T) {
	// A bidirectional multi-message pattern under the mixed preset: the
	// reliability layer must keep per-(peer,tag) ordering and deliver every
	// payload byte-exactly.
	plan, err := fault.Preset("mixed", 17)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorld("Proposed-Tuned", func(cfg *mpi.Config) { cfg.Faults = plan })
	l := datatype.Commit(datatype.Contiguous(1024, datatype.Float32))
	const nmsg = 6
	sbufs := map[int][]*gpu.Buffer{} // sbufs[rank][i] holds msg i sent by rank
	rbufs := map[int][]*gpu.Buffer{}
	for i := 0; i < nmsg; i++ {
		for _, id := range []int{0, 4} {
			s := w.Rank(id).Dev.Alloc(fmt.Sprintf("s%d_%d", id, i), int(l.ExtentBytes))
			r := w.Rank(id).Dev.Alloc(fmt.Sprintf("r%d_%d", id, i), int(l.ExtentBytes))
			rng := rand.New(rand.NewSource(int64(100*id + i)))
			rng.Read(s.Data)
			sbufs[id] = append(sbufs[id], s)
			rbufs[id] = append(rbufs[id], r)
		}
	}
	if err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() != 0 && r.ID() != 4 {
			return
		}
		peer := 4 - r.ID() // 0 <-> 4
		var qs []*mpi.Request
		for i := 0; i < nmsg; i++ {
			qs = append(qs,
				r.Irecv(p, peer, i, rbufs[r.ID()][i], l, 1),
				r.Isend(p, peer, i, sbufs[r.ID()][i], l, 1))
		}
		if err := r.Waitall(p, qs); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	}); err != nil {
		t.Fatalf("run under %s: %v", w.Injector().Counts(), err)
	}
	for i := 0; i < nmsg; i++ {
		if !bytes.Equal(rbufs[4][i].Data, sbufs[0][i].Data) {
			t.Fatalf("msg %d 0->4 corrupted (%s)", i, w.Injector().Counts())
		}
		if !bytes.Equal(rbufs[0][i].Data, sbufs[4][i].Data) {
			t.Fatalf("msg %d 4->0 corrupted (%s)", i, w.Injector().Counts())
		}
	}
	if w.LeakedRequests() != 0 {
		t.Fatalf("%d leaked requests", w.LeakedRequests())
	}
}
