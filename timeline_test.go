package dkf_test

import (
	"bytes"
	"testing"

	dkf "repro"
)

// haloTrace runs the canonical 2-rank (one GPU per node) halo exchange with
// tracing enabled and returns the session plus its Chrome trace bytes.
func haloTrace(t *testing.T) (*dkf.Session, []byte) {
	t.Helper()
	spec := dkf.SystemLassen.Spec()
	spec.Nodes = 2
	spec.GPUsPerNode = 1
	sess, err := dkf.NewSession(dkf.SessionConfig{
		CustomSpec: &spec,
		Scheme:     dkf.SchemeProposedTuned,
		Trace:      &dkf.TraceOptions{},
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
		c.Waitall([]*dkf.Request{
			c.Irecv(peer, 0, rb, l, 1),
			c.Isend(peer, 0, sb, l, 1),
		})
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

// TestGoldenHaloTrace pins the Chrome trace of a 2-rank halo exchange
// byte-for-byte: the simulation is deterministic and the writer emits no
// map-ordered or time-of-day content, so any diff is a real behavior
// change.
func TestGoldenHaloTrace(t *testing.T) {
	_, got := haloTrace(t)
	_, again := haloTrace(t)
	if !bytes.Equal(got, again) {
		t.Fatal("trace not byte-identical across two runs")
	}
	checkGoldenTrace(t, "golden_halo2rank_trace.json", got)
}

// TestTraceCoversAllLayersAndParses checks the structural acceptance
// criteria: valid JSON, events from all four instrumentation layers, one
// Chrome process per rank.
func TestTraceCoversAllLayersAndParses(t *testing.T) {
	_, raw := haloTrace(t)
	if n := checkTrace(t, raw, "sim", "gpu", "mpi", "fusion"); n != 2 {
		t.Errorf("want 2 rank processes, got %d", n)
	}
}

// TestTimelineSumsMatchBreakdownEveryScheme is the conformance-style
// reconciliation check: for every scheme, the per-category timeline sums of
// each rank equal Session.TraceOf(rank) exactly — every Breakdown charge is
// mirrored by exactly one timeline event.
func TestTimelineSumsMatchBreakdownEverySchemes(t *testing.T) {
	l := dkf.Commit(dkf.Indexed([]int{3, 1, 2}, []int{0, 5, 9}, dkf.Float32))
	for _, scheme := range dkf.Schemes() {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			sess, err := dkf.NewSession(dkf.SessionConfig{
				Scheme: scheme,
				Trace:  &dkf.TraceOptions{},
			})
			if err != nil {
				t.Fatal(err)
			}
			sbuf := sess.Alloc(0, "s", int(l.ExtentBytes))
			rbuf := sess.Alloc(4, "r", int(l.ExtentBytes))
			dkf.FillPattern(sbuf.Data, 7)
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
			tl := sess.Timeline()
			if tl == nil {
				t.Fatal("traced session must expose a timeline")
			}
			for rk := 0; rk < sess.NumRanks(); rk++ {
				sums := tl.Rank(rk).Sums()
				bd := sess.TraceOf(rk)
				// String renders every category, so equality here is
				// per-category equality.
				if sums.Total() != bd.Total() || sums.String() != bd.String() {
					t.Errorf("rank %d: timeline sums != breakdown\n  timeline:  %s\n  breakdown: %s",
						rk, sums, bd)
				}
			}
			if sess.TraceOf(0).Total() == 0 {
				t.Error("sender breakdown empty — instrumentation not exercised")
			}
		})
	}
}

// TestUntracedSessionHasNoTimeline pins the disabled default.
func TestUntracedSessionHasNoTimeline(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Timeline() != nil {
		t.Fatal("session without Trace must have a nil timeline")
	}
}
