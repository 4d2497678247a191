package dkf_test

import (
	"bytes"
	"testing"

	dkf "repro"
)

// neighborTrace runs a fused NeighborAlltoallw ring exchange on a 2-node ×
// 2-GPU (4-rank) system with tracing on and returns the session plus its
// Chrome trace bytes. Every rank exchanges a strided face with both ring
// neighbors in one collective, so the trace shows the collective-scope
// fusion windows (coll layer) bracketing the per-phase fused launches.
func neighborTrace(t *testing.T) (*dkf.Session, []byte) {
	t.Helper()
	spec := dkf.SystemLassen.Spec()
	spec.Nodes = 2
	spec.GPUsPerNode = 2
	sess, err := dkf.NewSession(dkf.SessionConfig{
		CustomSpec: &spec,
		Scheme:     dkf.SchemeProposedTuned,
		Trace:      &dkf.TraceOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	l := dkf.Commit(dkf.Vector(16, 32, 64, dkf.Float64))
	n := sess.NumRanks()
	type bufs struct{ sl, sr, rl, rr *dkf.Buffer }
	all := make([]bufs, n)
	for r := 0; r < n; r++ {
		all[r] = bufs{
			sl: sess.Alloc(r, "sl", int(l.ExtentBytes)),
			sr: sess.Alloc(r, "sr", int(l.ExtentBytes)),
			rl: sess.Alloc(r, "rl", int(l.ExtentBytes)),
			rr: sess.Alloc(r, "rr", int(l.ExtentBytes)),
		}
		dkf.FillPattern(all[r].sl.Data, uint64(2*r+1))
		dkf.FillPattern(all[r].sr.Data, uint64(2*r+2))
	}
	err = sess.Run(func(c *dkf.RankCtx) {
		left := (c.ID() + n - 1) % n
		right := (c.ID() + 1) % n
		b := all[c.ID()]
		err := c.NeighborAlltoallw([]dkf.NeighborOp{
			{Peer: left, SendBuf: b.sl, SendType: l, RecvBuf: b.rl, RecvType: l, Count: 1},
			{Peer: right, SendBuf: b.sr, SendType: l, RecvBuf: b.rr, RecvType: l, Count: 1},
		})
		if err != nil {
			t.Errorf("rank %d: %v", c.ID(), err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := sess.Timeline().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	return sess, b.Bytes()
}

// TestGoldenNeighborTrace pins the Chrome trace of the fused 4-rank
// NeighborAlltoallw byte-for-byte.
func TestGoldenNeighborTrace(t *testing.T) {
	sess, got := neighborTrace(t)
	_, again := neighborTrace(t)
	if !bytes.Equal(got, again) {
		t.Fatal("neighbor trace not byte-identical across two runs")
	}
	// The exchange ran under the collective engine: ring neighbors received
	// each other's payloads byte-exactly (checked by the conformance suite)
	// and no requests leaked.
	if n := sess.LeakedRequests(); n != 0 {
		t.Fatalf("%d leaked requests", n)
	}
	checkGoldenTrace(t, "golden_neighbor4rank_trace.json", got)
}

// TestNeighborTraceHasCollLayer checks the golden trace structurally:
// valid JSON, one Chrome process per rank, and events from the coll layer
// alongside the pt2pt layers it drives.
func TestNeighborTraceHasCollLayer(t *testing.T) {
	_, raw := neighborTrace(t)
	if n := checkTrace(t, raw, "coll", "mpi", "fusion", "gpu"); n != 4 {
		t.Errorf("want 4 rank processes, got %d", n)
	}
}
