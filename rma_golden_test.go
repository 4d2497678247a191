package dkf_test

import (
	"bytes"
	"fmt"
	"testing"

	dkf "repro"
)

// rmaTrace runs a 2-rank put-based ring Allgatherv (one rank per node,
// so the puts cross the IB wire) with tracing on and returns the session,
// its Chrome trace bytes, and the recv checksums. fused selects the
// GPU-triggered PackPut arm; unfused disables the fusion window so every
// pack takes the launch → stream-sync → doorbell path.
func rmaTrace(t *testing.T, fused bool) (*dkf.Session, []byte, []uint64) {
	t.Helper()
	spec := dkf.SystemLassen.Spec()
	spec.Nodes, spec.GPUsPerNode = 2, 1
	cfg := dkf.SessionConfig{
		CustomSpec: &spec,
		Scheme:     dkf.SchemeProposedTuned,
		Trace:      &dkf.TraceOptions{},
		Backend:    dkf.BackendRMA,
	}
	if !fused {
		cfg.Coll.DisableFusionWindow = true
	}
	sess, err := dkf.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := dkf.Commit(dkf.Vector(16, 32, 64, dkf.Float64))
	n := sess.NumRanks()
	sends := make([]dkf.VOp, n)
	recvs := make([][]dkf.VOp, n)
	for r := 0; r < n; r++ {
		sb := sess.Alloc(r, "ag-s", int(l.ExtentBytes))
		dkf.FillPattern(sb.Data, uint64(7+r))
		sends[r] = dkf.VOp{Buf: sb, Type: l, Count: 1}
		recvs[r] = make([]dkf.VOp, n)
		for src := 0; src < n; src++ {
			recvs[r][src] = dkf.VOp{Buf: sess.Alloc(r, fmt.Sprintf("ag-r-%d", src), int(l.ExtentBytes)), Type: l, Count: 1}
		}
	}
	err = sess.Run(func(c *dkf.RankCtx) {
		if cerr := c.Allgatherv(sends[c.ID()], recvs[c.ID()]); cerr != nil {
			t.Errorf("rank %d: %v", c.ID(), cerr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := sess.Timeline().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var sums []uint64
	for r := 0; r < n; r++ {
		for src := 0; src < n; src++ {
			sums = append(sums, recvs[r][src].Buf.Checksum())
		}
	}
	return sess, b.Bytes(), sums
}

// TestGoldenRMATrace pins the Chrome traces of the 2-rank put-based ring
// Allgatherv — fused and unfused — byte-for-byte, with a bit-identical
// replay assertion on each arm.
func TestGoldenRMATrace(t *testing.T) {
	var fusedSums, unfusedSums []uint64
	for _, arm := range []struct {
		name  string
		fused bool
	}{{"fused", true}, {"unfused", false}} {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			sess, got, sums := rmaTrace(t, arm.fused)
			_, again, _ := rmaTrace(t, arm.fused)
			if !bytes.Equal(got, again) {
				t.Fatalf("%s rma trace not byte-identical across two runs", arm.name)
			}
			if n := sess.LeakedRequests(); n != 0 {
				t.Fatalf("%d leaked requests", n)
			}
			st := sess.RMAStats()
			if st.PackPuts == 0 {
				t.Fatalf("no pack-puts in the %s arm: %+v", arm.name, st)
			}
			if st.Retransmits != 0 {
				t.Fatalf("fault-free run recorded %d retransmits", st.Retransmits)
			}
			if arm.fused {
				fusedSums = sums
			} else {
				unfusedSums = sums
			}
			checkGoldenTrace(t, fmt.Sprintf("golden_rma2rank_%s_trace.json", arm.name), got)
		})
	}
	if len(fusedSums) == len(unfusedSums) && len(fusedSums) > 0 {
		for i := range fusedSums {
			if fusedSums[i] != unfusedSums[i] {
				t.Fatalf("leg %d: fused checksum %#x differs from unfused %#x", i, fusedSums[i], unfusedSums[i])
			}
		}
	}
}

// TestRMATraceHasRMALayer checks both arms' traces structurally: valid
// JSON, one Chrome process per rank, and events from the rma layer
// alongside the gpu layer the pack kernels run on.
func TestRMATraceHasRMALayer(t *testing.T) {
	for _, fused := range []bool{true, false} {
		_, raw, _ := rmaTrace(t, fused)
		if n := checkTrace(t, raw, "rma", "gpu", "coll"); n != 2 {
			t.Errorf("fused=%v: want 2 rank processes, got %d", fused, n)
		}
	}
}
