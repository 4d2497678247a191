package dkf_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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

// crashRecoveryRun runs 4 ranks over the one-sided backend under a planned
// crash of rank 1 with tracing on: every rank checkpoints its registered
// state, repeats a one-sided Alltoallw until the crash surfaces, then the
// survivors Agree, Shrink (restoring the checkpoint and reseating the
// one-sided fabric) and retry the Alltoallw on the survivor communicator.
func crashRecoveryRun(t *testing.T) *dkf.Session {
	t.Helper()
	spec := dkf.SystemLassen.Spec()
	spec.Nodes = 2
	spec.GPUsPerNode = 2
	plan, err := dkf.ParseFaultPlan("crash=1@20000")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dkf.NewSession(dkf.SessionConfig{
		CustomSpec: &spec,
		Scheme:     dkf.SchemeProposedTuned,
		Backend:    dkf.BackendRMA,
		Trace:      &dkf.TraceOptions{},
		Faults:     plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := sess.NumRanks()
	for r := 0; r < n; r++ {
		state := sess.Alloc(r, "state", 16<<10)
		state.FillStream(uint64(7 + r))
		sess.CheckpointRegister(r, state)
	}
	l := dkf.Commit(dkf.Vector(8, 4, 8, dkf.Float64))
	blk := int(l.ExtentBytes)
	ops := func(c *dkf.RankCtx, tag string, size int) []dkf.WOp {
		out := make([]dkf.WOp, size)
		for p := range out {
			out[p] = dkf.WOp{
				SendBuf: c.Alloc(fmt.Sprintf("%ss%d", tag, p), blk), SendType: l, SendCount: 1,
				RecvBuf: c.Alloc(fmt.Sprintf("%sr%d", tag, p), blk), RecvType: l, RecvCount: 1,
			}
		}
		return out
	}
	err = sess.Run(func(c *dkf.RankCtx) {
		c.Checkpoint()
		world := ops(c, "w", n)
		var werr error
		for werr == nil && c.Now() < 400_000 {
			werr = c.Alltoallw(world)
		}
		if werr == nil {
			t.Errorf("rank %d: crash never surfaced", c.ID())
		}
		c.Agree(c.World(), 1)
		sub, serr := c.Shrink(c.World())
		if serr != nil {
			t.Errorf("rank %d: Shrink: %v", c.ID(), serr)
			return
		}
		cc := c.On(sub)
		if rerr := cc.Alltoallw(ops(c, "s", cc.Size())); rerr != nil {
			t.Errorf("rank %d: retry on survivors: %v", c.ID(), rerr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sess.Survivors()); got != n-1 {
		t.Fatalf("%d survivors, want %d", got, n-1)
	}
	return sess
}

// TestFaultLayerReconciliation pins the recovery-cost bookkeeping under
// link faults (Retrans) and under a rank crash with checkpoint/restore and
// a one-sided retry (Recovery): on every rank the timeline's per-category
// sums equal TraceOf, the recovery category is non-zero, it sits only on
// its layers, and every fault-layer span carries one of the costs the case
// allows there (Retrans alone under link faults).
func TestFaultLayerReconciliation(t *testing.T) {
	for _, tc := range []struct {
		name       string
		run        func(*testing.T) *dkf.Session
		cat        trace.Category
		layers     []timeline.Layer
		faultCosts []trace.Category // costs a fault-layer span may carry
		spans      []string         // span names the run must charge
	}{
		{"link-faults", func(t *testing.T) *dkf.Session { s, _ := chaosTrace(t); return s },
			trace.Retrans, []timeline.Layer{timeline.LayerFault},
			[]trace.Category{trace.Retrans}, nil},
		{"rank-crash", crashRecoveryRun,
			trace.Recovery, []timeline.Layer{timeline.LayerFailure, timeline.LayerFault},
			[]trace.Category{trace.Retrans, trace.Recovery},
			[]string{"ckpt-capture", "ckpt-restore", "agree", "shrink", "rma-reseat"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess := tc.run(t)
			if len(sess.FaultEvents()) == 0 {
				t.Fatal("run injected nothing — reconciliation not exercised")
			}
			tl := sess.Timeline()
			charged := map[string]bool{}
			var total int64
			for rk := 0; rk < sess.NumRanks(); rk++ {
				rec := tl.Rank(rk)
				var spanNs int64
				for _, e := range rec.Events() {
					if e.Cost == tc.cat {
						if !slices.Contains(tc.layers, e.Layer) {
							t.Errorf("rank %d: %s-cost event %q on layer %s, want one of %v", rk, tc.cat, e.Name, e.Layer, tc.layers)
						}
						charged[e.Name] = true
						spanNs += e.Dur
					}
					if e.Layer == timeline.LayerFault && e.Dur > 0 && !slices.Contains(tc.faultCosts, e.Cost) {
						t.Errorf("rank %d: fault-layer span %q carries cost %s, want one of %v", rk, e.Name, e.Cost, tc.faultCosts)
					}
				}
				if bd := sess.TraceOf(rk).Get(tc.cat); bd != spanNs {
					t.Errorf("rank %d: Breakdown[%s]=%dns but its spans sum to %dns", rk, tc.cat, bd, spanNs)
				}
				sums, bd := rec.Sums(), sess.TraceOf(rk)
				for _, c := range trace.Categories() {
					if sums.Get(c) != bd.Get(c) {
						t.Errorf("rank %d: timeline %s=%dns, breakdown %dns", rk, c, sums.Get(c), bd.Get(c))
					}
				}
				total += spanNs
			}
			if total == 0 {
				t.Fatalf("no %s cost recorded", tc.cat)
			}
			for _, name := range tc.spans {
				if !charged[name] {
					t.Errorf("no rank charged a %q span", name)
				}
			}
		})
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
