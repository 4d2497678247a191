package dkf_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	dkf "repro"
)

// lazyChaosTrace runs the canonical lazy-mode rank-crash recovery scenario
// with tracing enabled: 4 lazy-payload ranks, a planned crash of rank 1
// mid-Alltoallw, Agree + Shrink, and a checksum-verified retry on the
// survivor communicator. Returns the session plus its Chrome trace bytes.
func lazyChaosTrace(t *testing.T) (*dkf.Session, []byte) {
	t.Helper()
	const deadRank = 1
	spec := dkf.SystemLassen.Spec()
	spec.Nodes = 2
	spec.GPUsPerNode = 2
	plan, err := dkf.ParseFaultPlan(fmt.Sprintf("crash=%d@20000", deadRank))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dkf.NewSession(dkf.SessionConfig{
		CustomSpec:    &spec,
		Scheme:        dkf.SchemeProposedTuned,
		Trace:         &dkf.TraceOptions{},
		Faults:        plan,
		Payload:       dkf.PayloadLazy,
		LazyThreshold: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := sess.NumRanks()
	l := dkf.Commit(dkf.Contiguous(1024, dkf.Byte))
	blk := int(l.ExtentBytes)
	rsend := make([][]*dkf.Buffer, n)
	rrecv := make([][]*dkf.Buffer, n)
	for r := 0; r < n; r++ {
		rsend[r] = make([]*dkf.Buffer, n-1)
		rrecv[r] = make([]*dkf.Buffer, n-1)
		for p := 0; p < n-1; p++ {
			rsend[r][p] = sess.Alloc(r, fmt.Sprintf("rs%d", p), blk)
			rrecv[r][p] = sess.Alloc(r, fmt.Sprintf("rr%d", p), blk)
			rsend[r][p].FillStream(uint64(1000 + r*n + p))
		}
	}
	worldErrs := make([]error, n)
	retryErrs := make([]error, n)
	err = sess.Run(func(c *dkf.RankCtx) {
		me := c.ID()
		ops := make([]dkf.WOp, n)
		for p := 0; p < n; p++ {
			ops[p] = dkf.WOp{
				SendBuf: c.Alloc(fmt.Sprintf("ws%d", p), blk), SendType: l, SendCount: 1,
				RecvBuf: c.Alloc(fmt.Sprintf("wr%d", p), blk), RecvType: l, RecvCount: 1,
			}
		}
		const horizonNs = 400_000
		for worldErrs[me] == nil && c.Now() < horizonNs {
			worldErrs[me] = c.Alltoallw(ops)
		}
		c.Agree(c.World(), 1)
		sub, serr := c.Shrink(c.World())
		if serr != nil {
			retryErrs[me] = serr
			return
		}
		cc := c.On(sub)
		retry := make([]dkf.WOp, cc.Size())
		for p := range retry {
			retry[p] = dkf.WOp{
				SendBuf: rsend[me][p], SendType: l, SendCount: 1,
				RecvBuf: rrecv[me][p], RecvType: l, RecvCount: 1,
			}
		}
		retryErrs[me] = cc.Alltoallw(retry)
	})
	if err != nil {
		t.Fatal(err)
	}
	survivors := sess.Survivors()
	if len(survivors) != n-1 {
		t.Fatalf("Survivors() = %v, want %d ranks", survivors, n-1)
	}
	for _, w := range survivors {
		if worldErrs[w] == nil {
			t.Fatalf("rank %d: crash never surfaced in the world phase", w)
		}
		if !errors.Is(worldErrs[w], dkf.ErrRankFailed) && !errors.Is(worldErrs[w], dkf.ErrCommRevoked) {
			t.Fatalf("rank %d: untyped world-phase error %v", w, worldErrs[w])
		}
		if retryErrs[w] != nil {
			t.Fatalf("rank %d: retry on survivor comm failed: %v", w, retryErrs[w])
		}
	}
	// Checksum-exact survivor delivery: comm rank q's slot p holds comm
	// rank p's slot-q send content, compared through the span algebra.
	for q, wq := range survivors {
		for p, wp := range survivors {
			if rrecv[wq][p].Checksum() != rsend[wp][q].Checksum() {
				t.Fatalf("retry: comm rank %d slot %d checksum differs from comm rank %d's send", q, p, wp)
			}
		}
	}
	if leaked := sess.LeakedRequests(); leaked != 0 {
		t.Fatalf("LeakedRequests() = %d after lazy recovery, want 0", leaked)
	}
	var b bytes.Buffer
	if err := sess.Timeline().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	return sess, b.Bytes()
}

// TestGoldenLazyChaosTrace pins the Chrome trace of the lazy rank-crash +
// shrink + retry scenario byte-for-byte across two in-process runs AND
// against the committed golden file: crash injection, failure detection,
// revocation, shrink rendezvous, and the retry collective all replay
// bit-identically in lazy payload mode.
func TestGoldenLazyChaosTrace(t *testing.T) {
	_, got := lazyChaosTrace(t)
	_, again := lazyChaosTrace(t)
	if !bytes.Equal(got, again) {
		t.Fatal("lazy chaos trace not byte-identical across two runs")
	}
	checkTrace(t, got, "coll", "gpu", "fusion", "mpi")
	checkGoldenTrace(t, "golden_lazy_chaos_trace.json", got)
}
