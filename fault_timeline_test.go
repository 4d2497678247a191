package dkf_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	dkf "repro"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// chaosTrace runs a deterministic 2-rank inter-node exchange under a lossy
// fault plan with tracing enabled and returns the session plus its Chrome
// trace bytes.
func chaosTrace(t *testing.T) (*dkf.Session, []byte) {
	t.Helper()
	spec := dkf.SystemLassen.Spec()
	spec.Nodes = 2
	spec.GPUsPerNode = 1
	plan, err := dkf.FaultPreset("mixed", 2026)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dkf.NewSession(dkf.SessionConfig{
		CustomSpec: &spec,
		Scheme:     dkf.SchemeProposedTuned,
		Trace:      &dkf.TraceOptions{},
		Faults:     plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := dkf.Commit(dkf.Vector(16, 32, 64, dkf.Float64))
	s0 := sess.Alloc(0, "s0", int(l.ExtentBytes))
	r0 := sess.Alloc(0, "r0", int(l.ExtentBytes))
	s1 := sess.Alloc(1, "s1", int(l.ExtentBytes))
	r1 := sess.Alloc(1, "r1", int(l.ExtentBytes))
	dkf.FillPattern(s0.Data, 1)
	dkf.FillPattern(s1.Data, 2)
	err = sess.Run(func(c *dkf.RankCtx) {
		peer := 1 - c.ID()
		sb, rb := s0, r0
		if c.ID() == 1 {
			sb, rb = s1, r1
		}
		if err := c.Waitall([]*dkf.Request{
			c.Irecv(peer, 0, rb, l, 1),
			c.Isend(peer, 0, sb, l, 1),
		}); err != nil {
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

// TestFaultLayerReconciliation pins the recovery-cost bookkeeping: for every
// rank, the Retrans total in the cost breakdown equals the summed duration
// of fault-layer timeline spans exactly — every recovery charge is mirrored
// by exactly one timeline event, and only the fault layer carries Retrans
// cost.
func TestFaultLayerReconciliation(t *testing.T) {
	sess, _ := chaosTrace(t)
	tl := sess.Timeline()
	if len(sess.FaultEvents()) == 0 {
		t.Fatal("chaos run injected nothing — reconciliation not exercised")
	}
	var totalRetrans int64
	for rk := 0; rk < sess.NumRanks(); rk++ {
		rec := tl.Rank(rk)
		var faultSpanNs int64
		for _, e := range rec.Events() {
			if e.Cost == trace.Retrans {
				if e.Layer != timeline.LayerFault {
					t.Errorf("rank %d: Retrans-cost event %q on layer %s, want fault", rk, e.Name, e.Layer)
				}
				faultSpanNs += e.Dur
			} else if e.Layer == timeline.LayerFault && e.Dur > 0 {
				t.Errorf("rank %d: fault-layer span %q carries cost %s, want Retrans", rk, e.Name, e.Cost)
			}
		}
		if bd := sess.TraceOf(rk).Get(trace.Retrans); bd != faultSpanNs {
			t.Errorf("rank %d: Breakdown[Retrans]=%dns but fault-layer spans sum to %dns", rk, bd, faultSpanNs)
		}
		// The full per-category reconciliation must also hold under chaos.
		sums := rec.Sums()
		bd := sess.TraceOf(rk)
		if sums.String() != bd.String() {
			t.Errorf("rank %d: timeline sums != breakdown under faults\n  timeline:  %s\n  breakdown: %s", rk, sums, bd)
		}
		totalRetrans += faultSpanNs
	}
	if totalRetrans == 0 {
		t.Fatal("no Retrans cost recorded despite injected faults")
	}
}

// TestGoldenChaosTrace pins the Chrome trace of the chaos exchange
// byte-for-byte: fault injection is part of the deterministic simulation,
// so recovery timings replay exactly.
func TestGoldenChaosTrace(t *testing.T) {
	_, got := chaosTrace(t)
	_, again := chaosTrace(t)
	if !bytes.Equal(got, again) {
		t.Fatal("chaos trace not byte-identical across two runs")
	}
	checkGoldenTrace(t, "golden_chaos_trace.json", got)
}

// TestChaosTraceHasFaultLayer checks the machine view: the Chrome export of
// a chaos run contains events from the fault layer alongside the four
// fault-free layers.
func TestChaosTraceHasFaultLayer(t *testing.T) {
	_, raw := chaosTrace(t)
	checkTrace(t, raw, "sim", "gpu", "mpi", "fusion", "fault")
}

// TestFaultFreeGoldenUnchanged re-runs the fault-free golden halo trace next
// to a chaos session in the same process: injector state must never bleed
// between worlds, and a faults-off session must keep producing the
// committed golden bytes.
func TestFaultFreeGoldenUnchanged(t *testing.T) {
	chaosTrace(t)
	_, got := haloTrace(t)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_halo2rank_trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fault-free trace changed after a chaos session ran in-process")
	}
}
