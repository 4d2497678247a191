package dkf_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	dkf "repro"
)

// TestSessionHeartbeatValidation checks that an explicit heartbeat over an
// empty fault plan is accepted and enables failure tolerance; the invalid
// Heartbeat values are rows of TestNewSessionRejectsInvalidConfigs.
func TestSessionHeartbeatValidation(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{
		Heartbeat: dkf.HeartbeatConfig{IntervalNs: 10_000, TimeoutNs: 100_000},
		Faults:    &dkf.FaultPlan{},
	})
	if err != nil {
		t.Fatalf("explicit heartbeat with empty fault plan rejected: %v", err)
	}
	if !sess.FTEnabled() {
		t.Error("explicit Heartbeat.TimeoutNs did not enable failure tolerance")
	}
	if got := len(sess.Survivors()); got != sess.NumRanks() {
		t.Errorf("Survivors() = %d ranks before any crash, want %d", got, sess.NumRanks())
	}
}

// TestSessionShrinkRecovery drives the full ULFM recovery sequence through
// the public API: a planned crash kills rank 1 mid-Alltoallw, every
// survivor gets a typed error, agrees on the failure, shrinks the world to
// a dense 7-rank communicator, and re-runs the exchange on it byte-exactly.
func TestSessionShrinkRecovery(t *testing.T) {
	const deadRank = 1
	plan, err := dkf.ParseFaultPlan(fmt.Sprintf("crash=%d@20000", deadRank))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dkf.NewSession(dkf.SessionConfig{Scheme: dkf.SchemeProposedTuned, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	n := sess.NumRanks()
	m := n - 1 // survivor count
	l := dkf.Commit(dkf.Contiguous(64, dkf.Byte))
	blk := int(l.ExtentBytes)

	// World-phase and retry-phase per-peer buffers for every rank (the dead
	// rank's retry slots just go unused).
	wsend := make([][]*dkf.Buffer, n)
	wrecv := make([][]*dkf.Buffer, n)
	rsend := make([][]*dkf.Buffer, n)
	rrecv := make([][]*dkf.Buffer, n)
	for r := 0; r < n; r++ {
		wsend[r] = make([]*dkf.Buffer, n)
		wrecv[r] = make([]*dkf.Buffer, n)
		rsend[r] = make([]*dkf.Buffer, m)
		rrecv[r] = make([]*dkf.Buffer, m)
		for p := 0; p < n; p++ {
			wsend[r][p] = sess.Alloc(r, fmt.Sprintf("ws%d", p), blk)
			wrecv[r][p] = sess.Alloc(r, fmt.Sprintf("wr%d", p), blk)
			dkf.FillPattern(wsend[r][p].Data, uint64(1+r*n+p))
		}
		for p := 0; p < m; p++ {
			rsend[r][p] = sess.Alloc(r, fmt.Sprintf("rs%d", p), blk)
			rrecv[r][p] = sess.Alloc(r, fmt.Sprintf("rr%d", p), blk)
			dkf.FillPattern(rsend[r][p].Data, uint64(1000+r*n+p))
		}
	}

	// Survivor-comm Bcast (from comm rank 0) and AllreduceSumF64 buffers.
	const sumLen = 8
	bcast := make([]*dkf.Buffer, n)
	sums := make([]*dkf.Buffer, n)
	for r := 0; r < n; r++ {
		bcast[r] = sess.Alloc(r, "bc", blk)
		sums[r] = sess.Alloc(r, "sum", sumLen*8)
		for j := 0; j < sumLen; j++ {
			binary.LittleEndian.PutUint64(sums[r].Data[j*8:], math.Float64bits(float64(r+j)))
		}
	}
	dkf.FillPattern(bcast[0].Data, 4242)

	worldErrs := make([]error, n)
	agreeFlags := make([]uint64, n)
	agreeErrs := make([]error, n)
	subSizes := make([]int, n)
	subRanks := make([]int, n)
	retryErrs := make([]error, n)
	verbErrs := make([]error, n)
	err = sess.Run(func(c *dkf.RankCtx) {
		me := c.ID()
		ops := make([]dkf.WOp, n)
		for p := 0; p < n; p++ {
			ops[p] = dkf.WOp{
				SendBuf: wsend[me][p], SendType: l, SendCount: 1,
				RecvBuf: wrecv[me][p], RecvType: l, RecvCount: 1,
			}
		}
		// Loop until the crash surfaces (the first iterations can finish
		// before the detector declares rank 1 dead).
		const horizonNs = 400_000
		for worldErrs[me] == nil && c.Now() < horizonNs {
			worldErrs[me] = c.Alltoallw(ops)
		}
		agreeFlags[me], agreeErrs[me] = c.Agree(c.World(), 1)
		sub, serr := c.Shrink(c.World())
		if serr != nil {
			retryErrs[me] = serr
			return
		}
		cc := c.On(sub)
		subSizes[me] = cc.Size()
		subRanks[me] = cc.Rank()
		retry := make([]dkf.WOp, cc.Size())
		for p := range retry {
			retry[p] = dkf.WOp{
				SendBuf: rsend[me][p], SendType: l, SendCount: 1,
				RecvBuf: rrecv[me][p], RecvType: l, RecvCount: 1,
			}
		}
		retryErrs[me] = cc.Alltoallw(retry)
		verbErrs[me] = errors.Join(cc.Bcast(0, bcast[me], l, 1), cc.AllreduceSumF64(sums[me], sumLen))
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := sess.CrashedRanks(); len(got) != 1 || got[0] != deadRank {
		t.Fatalf("CrashedRanks() = %v, want [%d]", got, deadRank)
	}
	if got := sess.FailedRanks(); len(got) != 1 || got[0] != deadRank {
		t.Fatalf("FailedRanks() = %v, want [%d]", got, deadRank)
	}
	survivors := sess.Survivors()
	if len(survivors) != m {
		t.Fatalf("Survivors() = %v, want %d ranks", survivors, m)
	}
	for cr, w := range survivors {
		if worldErrs[w] == nil {
			t.Errorf("rank %d: world-phase Alltoallw never surfaced the crash", w)
		} else if !errors.Is(worldErrs[w], dkf.ErrRankFailed) && !errors.Is(worldErrs[w], dkf.ErrCommRevoked) {
			t.Errorf("rank %d: world-phase error %v is not a rank-failure/revocation error", w, worldErrs[w])
		}
		if agreeFlags[w] != 1 {
			t.Errorf("rank %d: Agree flag = %d, want 1", w, agreeFlags[w])
		}
		var rf *dkf.RankFailedError
		if !errors.As(agreeErrs[w], &rf) || rf.Rank != deadRank {
			t.Errorf("rank %d: Agree error = %v, want *RankFailedError{Rank: %d}", w, agreeErrs[w], deadRank)
		}
		if subSizes[w] != m || subRanks[w] != cr {
			t.Errorf("rank %d: shrunken comm size/rank = %d/%d, want %d/%d", w, subSizes[w], subRanks[w], m, cr)
		}
		if retryErrs[w] != nil {
			t.Errorf("rank %d: retry Alltoallw on shrunken comm failed: %v", w, retryErrs[w])
		}
	}
	// Byte-exactness of the retry: survivor comm rank q received comm rank
	// p's slot-q send buffer.
	for q, wq := range survivors {
		for p, wp := range survivors {
			if !bytes.Equal(rrecv[wq][p].Data, rsend[wp][q].Data) {
				t.Errorf("retry: comm rank %d (world %d) slot %d differs from world %d's send", q, wq, p, wp)
			}
		}
	}
	// Bcast and AllreduceSumF64 on the survivor comm: every member holds
	// comm rank 0's bytes and the sum over the survivors' vectors.
	for _, w := range survivors {
		if verbErrs[w] != nil {
			t.Errorf("rank %d: Bcast/AllreduceSumF64 on shrunken comm failed: %v", w, verbErrs[w])
		}
		if !bytes.Equal(bcast[w].Data, bcast[survivors[0]].Data) {
			t.Errorf("rank %d: Bcast on shrunken comm differs from comm rank 0's buffer", w)
		}
		for j := 0; j < sumLen; j++ {
			want := float64(0)
			for _, v := range survivors {
				want += float64(v + j)
			}
			if got := math.Float64frombits(binary.LittleEndian.Uint64(sums[w].Data[j*8:])); got != want {
				t.Errorf("rank %d: AllreduceSumF64 elem %d = %v, want %v", w, j, got, want)
			}
		}
	}
	if leaked := sess.LeakedRequests(); leaked != 0 {
		t.Errorf("LeakedRequests() = %d after recovery, want 0", leaked)
	}
}

// TestBcastDeadRoot checks Bcast under a crash plan that kills the root.
// When the root is declared dead before the broadcast, every survivor (not
// only the root's direct children) gets an error matching ErrRankFailed.
// When the root dies while the tree is waiting on it, no survivor hangs
// or returns stale bytes silently: each gets a typed failure.
func TestBcastDeadRoot(t *testing.T) {
	const root = 0
	l := dkf.Commit(dkf.Contiguous(64, dkf.Float64))
	for _, tc := range []struct {
		name      string
		startNs   int64 // when the survivors enter Bcast
		wantTyped func(error) bool
	}{
		{"declared-before", 400_000, func(err error) bool { return errors.Is(err, dkf.ErrRankFailed) }},
		{"dies-mid-tree", 0, func(err error) bool {
			return errors.Is(err, dkf.ErrRankFailed) || errors.Is(err, dkf.ErrCommRevoked)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := dkf.ParseFaultPlan(fmt.Sprintf("crash=%d@20000", root))
			if err != nil {
				t.Fatal(err)
			}
			sess, err := dkf.NewSession(dkf.SessionConfig{Scheme: dkf.SchemeProposedTuned, Faults: plan})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			n := sess.NumRanks()
			bufs := make([]*dkf.Buffer, n)
			for i := range bufs {
				bufs[i] = sess.Alloc(i, "b", int(l.ExtentBytes))
			}
			errs := make([]error, n)
			returned := make([]bool, n)
			err = sess.Run(func(c *dkf.RankCtx) {
				start := tc.startNs
				if c.ID() == root {
					start = 50_000 // killed at 20 µs, before it can send
				}
				c.Sleep(start)
				errs[c.ID()] = c.Bcast(root, bufs[c.ID()], l, 1)
				returned[c.ID()] = true
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for r := 0; r < n; r++ {
				if r == root {
					continue
				}
				if !returned[r] {
					t.Errorf("survivor %d never returned from Bcast", r)
				} else if !tc.wantTyped(errs[r]) {
					t.Errorf("survivor %d: Bcast error %v, want a typed rank failure", r, errs[r])
				}
			}
		})
	}
}
