package dkf_test

import (
	"errors"
	"strings"
	"testing"

	dkf "repro"
)

func TestSessionQuickstartExchange(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{Scheme: "Proposed-Tuned"})
	if err != nil {
		t.Fatal(err)
	}
	if sess.NumRanks() != 8 {
		t.Fatalf("ranks = %d, want 8 (2 nodes x 4 GPUs)", sess.NumRanks())
	}
	l := dkf.Commit(dkf.Vector(64, 8, 16, dkf.Float64))
	sbuf := sess.Alloc(0, "s", int(l.ExtentBytes))
	rbuf := sess.Alloc(4, "r", int(l.ExtentBytes))
	dkf.FillPattern(sbuf.Data, 1)
	err = sess.Run(func(c *dkf.RankCtx) {
		switch c.ID() {
		case 0:
			c.Wait(c.Isend(4, 0, sbuf, l, 1))
		case 4:
			c.Wait(c.Irecv(0, 0, rbuf, l, 1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dkf.VerifyBlocks(l, 1, sbuf.Data, rbuf.Data); err != nil {
		t.Fatal(err)
	}
}

func TestSessionRejectsUnknownScheme(t *testing.T) {
	if _, err := dkf.NewSession(dkf.SessionConfig{Scheme: "bogus"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestSessionAllSchemesAndSystems(t *testing.T) {
	l := dkf.Commit(dkf.Indexed([]int{1, 2, 1}, []int{0, 4, 9}, dkf.Float32))
	for _, sys := range []dkf.System{dkf.SystemLassen, dkf.SystemABCI} {
		for _, scheme := range dkf.SchemeNames() {
			sess, err := dkf.NewSession(dkf.SessionConfig{System: sys, Scheme: dkf.Scheme(scheme)})
			if err != nil {
				t.Fatal(err)
			}
			sbuf := sess.Alloc(0, "s", int(l.ExtentBytes))
			rbuf := sess.Alloc(4, "r", int(l.ExtentBytes))
			dkf.FillPattern(sbuf.Data, 9)
			err = sess.Run(func(c *dkf.RankCtx) {
				switch c.ID() {
				case 0:
					c.Wait(c.Isend(4, 0, sbuf, l, 1))
				case 4:
					c.Wait(c.Irecv(0, 0, rbuf, l, 1))
				}
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", sys, scheme, err)
			}
			if err := dkf.VerifyBlocks(l, 1, sbuf.Data, rbuf.Data); err != nil {
				t.Fatalf("%s/%s: %v", sys, scheme, err)
			}
		}
	}
}

func TestSessionDeadlockSurfaces(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l := dkf.Commit(dkf.Contiguous(8, dkf.Byte))
	rbuf := sess.Alloc(0, "r", int(l.ExtentBytes))
	err = sess.Run(func(c *dkf.RankCtx) {
		if c.ID() == 0 {
			c.Wait(c.Irecv(7, 0, rbuf, l, 1)) // nobody sends
		}
	})
	if err == nil {
		t.Fatal("Run returned nil despite deadlock")
	}
	var stall *dkf.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("Run error %T is not a *StallError: %v", err, err)
	}
	got := strings.ToLower(err.Error())
	if !strings.Contains(got, "stalled") || !strings.Contains(got, "rank0") {
		t.Fatalf("error %q should name the stalled rank", got)
	}
}

func TestSessionFusionThresholdOverride(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{Scheme: "Proposed", FusionThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	l := dkf.Commit(dkf.Vector(100, 1, 3, dkf.Float32))
	sbuf := sess.Alloc(0, "s", int(l.ExtentBytes))
	rbuf := sess.Alloc(4, "r", int(l.ExtentBytes))
	err = sess.Run(func(c *dkf.RankCtx) {
		switch c.ID() {
		case 0:
			c.Wait(c.Isend(4, 0, sbuf, l, 1))
		case 4:
			c.Wait(c.Irecv(0, 0, rbuf, l, 1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// With a huge threshold, the only launches are explicit flushes.
	if sess.DeviceStats(0).FusedKernels != 1 {
		t.Fatalf("sender fused kernels = %d, want 1", sess.DeviceStats(0).FusedKernels)
	}
}

func TestTraceAndStatsExposed(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{Scheme: "GPU-Sync"})
	if err != nil {
		t.Fatal(err)
	}
	l := dkf.Commit(dkf.Vector(100, 1, 3, dkf.Float32))
	sbuf := sess.Alloc(0, "s", int(l.ExtentBytes))
	rbuf := sess.Alloc(4, "r", int(l.ExtentBytes))
	err = sess.Run(func(c *dkf.RankCtx) {
		switch c.ID() {
		case 0:
			c.Wait(c.Isend(4, 0, sbuf, l, 1))
		case 4:
			c.Wait(c.Irecv(0, 0, rbuf, l, 1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.TraceOf(0).Total() == 0 {
		t.Fatal("trace empty")
	}
	if sess.DeviceStats(0).KernelLaunches == 0 {
		t.Fatal("device stats empty")
	}
}

func TestWorkloadsExposed(t *testing.T) {
	if len(dkf.Workloads()) != 4 {
		t.Fatal("want 4 workloads")
	}
	if _, ok := dkf.WorkloadByName("NAS_MG"); !ok {
		t.Fatal("NAS_MG missing")
	}
	if len(dkf.Figures()) != 17 {
		t.Fatal("want 17 tables (8 paper figures + approaches, table1, ablations, extended, scaling + coll, scale, chaos-scale, rma)")
	}
}

func TestRunFigureSmoke(t *testing.T) {
	tabs, err := dkf.RunFigure("1")
	if err != nil || len(tabs) == 0 {
		t.Fatalf("RunFigure(1): %v", err)
	}
	if !strings.Contains(tabs[0].String(), "launch") {
		t.Fatalf("fig 1 table: %s", tabs[0].String())
	}
	if _, err := dkf.RunFigure("99"); err == nil {
		t.Fatal("unknown figure must error")
	}
}

func TestHaloRing(t *testing.T) {
	// Every rank exchanges with its ring neighbors — mixes intra-node
	// (DirectIPC) and inter-node paths in one pattern.
	sess, err := dkf.NewSession(dkf.SessionConfig{Scheme: "Proposed-Tuned"})
	if err != nil {
		t.Fatal(err)
	}
	n := sess.NumRanks()
	l := dkf.Commit(dkf.Vector(32, 2, 5, dkf.Float64))
	sbufs := make([]*dkf.Buffer, n)
	rbufs := make([]*dkf.Buffer, n)
	for i := 0; i < n; i++ {
		sbufs[i] = sess.Alloc(i, "s", int(l.ExtentBytes))
		rbufs[i] = sess.Alloc(i, "r", int(l.ExtentBytes))
		dkf.FillPattern(sbufs[i].Data, uint64(i+1))
	}
	err = sess.Run(func(c *dkf.RankCtx) {
		right := (c.ID() + 1) % c.NumRanks()
		left := (c.ID() + c.NumRanks() - 1) % c.NumRanks()
		rq := c.Irecv(left, 0, rbufs[c.ID()], l, 1)
		sq := c.Isend(right, 0, sbufs[c.ID()], l, 1)
		c.Waitall([]*dkf.Request{rq, sq})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		left := (i + n - 1) % n
		if err := dkf.VerifyBlocks(l, 1, sbufs[left].Data, rbufs[i].Data); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestFacadeCollectivesAndTopology(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{Scheme: "Proposed-Auto"})
	if err != nil {
		t.Fatal(err)
	}
	cart := sess.CartCreate([]int{2, 2, 2}, []bool{true, true, true})
	if cart.Size() != 8 {
		t.Fatalf("cart size = %d", cart.Size())
	}
	l := dkf.Commit(dkf.Contiguous(128, dkf.Float64))
	bufs := make([]*dkf.Buffer, 8)
	for i := range bufs {
		bufs[i] = sess.Alloc(i, "b", int(l.ExtentBytes))
	}
	dkf.FillPattern(bufs[3].Data, 3)
	errs := make([]error, 8)
	err = sess.Run(func(c *dkf.RankCtx) {
		errs[c.ID()] = c.Bcast(3, bufs[c.ID()], l, 1)
	})
	if err = errors.Join(append(errs, err)...); err != nil {
		t.Fatal(err)
	}
	for i := range bufs {
		if err := dkf.VerifyBlocks(l, 1, bufs[3].Data, bufs[i].Data); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestFacadeExplicitPackUnpack(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{Scheme: "GPU-Sync"})
	if err != nil {
		t.Fatal(err)
	}
	l := dkf.Commit(dkf.Vector(32, 1, 3, dkf.Float64))
	src := sess.Alloc(0, "s", int(l.ExtentBytes))
	dst := sess.Alloc(0, "d", int(l.ExtentBytes))
	staging := sess.Alloc(0, "p", int(l.SizeBytes))
	dkf.FillPattern(src.Data, 5)
	err = sess.Run(func(c *dkf.RankCtx) {
		if c.ID() != 0 {
			return
		}
		if c.PackSize(l, 1) != l.SizeBytes {
			t.Error("PackSize wrong")
		}
		var pos int64
		c.Pack(src, l, 1, staging, &pos)
		pos = 0
		c.Unpack(staging, &pos, dst, l, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dkf.VerifyBlocks(l, 1, src.Data, dst.Data); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeNeighborAlltoallw(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l := dkf.Commit(dkf.Vector(64, 2, 5, dkf.Float32))
	n := sess.NumRanks()
	sb := make([]*dkf.Buffer, n)
	rb := make([]*dkf.Buffer, n)
	for i := 0; i < n; i++ {
		sb[i] = sess.Alloc(i, "s", int(l.ExtentBytes))
		rb[i] = sess.Alloc(i, "r", int(l.ExtentBytes))
		dkf.FillPattern(sb[i].Data, uint64(i+50))
	}
	err = sess.Run(func(c *dkf.RankCtx) {
		peer := c.ID() ^ 1
		if err := c.NeighborAlltoallw([]dkf.NeighborOp{{
			Peer:    peer,
			SendBuf: sb[c.ID()], SendType: l,
			RecvBuf: rb[c.ID()], RecvType: l,
		}}); err != nil {
			t.Errorf("rank %d: %v", c.ID(), err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := dkf.VerifyBlocks(l, 1, sb[i^1].Data, rb[i].Data); err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestFacadeExtendedWorkloads(t *testing.T) {
	if len(dkf.ExtendedWorkloads()) != 8 {
		t.Fatal("want 8 extended workloads")
	}
	// Resized spaces repeats.
	r := dkf.Resized(dkf.Contiguous(4, dkf.Byte), 16)
	l := dkf.Commit(r)
	if l.ExtentBytes != 16 || l.SizeBytes != 4 {
		t.Fatalf("resized layout: %+v", l)
	}
}

func TestFacadePipelineChunk(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{Scheme: "Proposed-Tuned", PipelineChunk: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	l := dkf.Commit(dkf.Vector(4096, 16, 40, dkf.Float32)) // 256KB sparse
	sbuf := sess.Alloc(0, "s", int(l.ExtentBytes))
	rbuf := sess.Alloc(4, "r", int(l.ExtentBytes))
	dkf.FillPattern(sbuf.Data, 77)
	err = sess.Run(func(c *dkf.RankCtx) {
		switch c.ID() {
		case 0:
			c.Wait(c.Isend(4, 0, sbuf, l, 1))
		case 4:
			c.Wait(c.Irecv(0, 0, rbuf, l, 1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dkf.VerifyBlocks(l, 1, sbuf.Data, rbuf.Data); err != nil {
		t.Fatal(err)
	}
}
