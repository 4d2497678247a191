package dkf_test

import (
	"errors"
	"fmt"
	"testing"

	dkf "repro"
)

// TestCheckpointRestoreDriverSide exercises the Session-level coordinated
// checkpoint: register, capture, scribble, restore, verify — epochs
// numbered in commit order, no virtual time involved.
func TestCheckpointRestoreDriverSide(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Restore(); err == nil {
		t.Fatal("Restore before any Checkpoint succeeded")
	}
	n := sess.NumRanks()
	bufs := make([]*dkf.Buffer, n)
	sums := make([]uint64, n)
	for r := 0; r < n; r++ {
		bufs[r] = sess.Alloc(r, "state", 8192)
		bufs[r].FillStream(uint64(100 + r))
		sums[r] = bufs[r].Checksum()
		sess.CheckpointRegister(r, bufs[r])
	}
	if got := sess.Checkpoint(); got != 1 {
		t.Fatalf("first Checkpoint() = epoch %d, want 1", got)
	}
	for r := 0; r < n; r++ {
		bufs[r].FillStream(0xdead)
	}
	if err := sess.Restore(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if bufs[r].Checksum() != sums[r] {
			t.Fatalf("rank %d state not rolled back", r)
		}
	}
	if got := sess.Checkpoint(); got != 2 {
		t.Fatalf("second Checkpoint() = epoch %d, want 2", got)
	}
	if got := sess.CheckpointEpoch(); got != 2 {
		t.Fatalf("CheckpointEpoch() = %d, want 2", got)
	}
}

// TestLazyChaosAutoRestoreOnShrink is the tentpole's end-to-end facade
// test: a lazy-payload session under a planned rank crash checkpoints
// in-run (charging virtual time), survives the crash, and Shrink rolls
// every survivor's registered state back to the captured epoch
// automatically. The dead rank's snapshot stays adoptable via its buddy.
func TestLazyChaosAutoRestoreOnShrink(t *testing.T) {
	const deadRank = 1
	plan, err := dkf.ParseFaultPlan(fmt.Sprintf("crash=%d@20000", deadRank))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dkf.NewSession(dkf.SessionConfig{
		Scheme:  dkf.SchemeProposedTuned,
		Payload: dkf.PayloadLazy,
		Faults:  plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	n := sess.NumRanks()
	const stateBytes = 64 << 10 // above the lazy threshold: span-clone snapshots
	state := make([]*dkf.Buffer, n)
	adopted := make([]*dkf.Buffer, 1)
	for r := 0; r < n; r++ {
		state[r] = sess.Alloc(r, "state", stateBytes)
		state[r].FillStream(uint64(7 + r))
		if !state[r].IsLazy() {
			t.Fatalf("rank %d state buffer is not lazy", r)
		}
		sess.CheckpointRegister(r, state[r])
	}
	buddy := sess.CheckpointBuddy(deadRank)
	adopted[0] = sess.Alloc(buddy, "adopted", stateBytes)
	deadSum := state[deadRank].Checksum()

	l := dkf.Commit(dkf.Contiguous(64, dkf.Byte))
	ckptSums := make([]uint64, n)
	ckptNs := make([]int64, n)
	restoredSums := make([]uint64, n)
	worldErrs := make([]error, n)
	shrinkErrs := make([]error, n)
	err = sess.Run(func(c *dkf.RankCtx) {
		me := c.ID()
		t0 := c.Now()
		c.Checkpoint()
		ckptNs[me] = c.Now() - t0
		ckptSums[me] = state[me].Checksum()

		ops := make([]dkf.WOp, n)
		for p := 0; p < n; p++ {
			ops[p] = dkf.WOp{
				SendBuf: c.Alloc(fmt.Sprintf("ws%d", p), 64), SendType: l, SendCount: 1,
				RecvBuf: c.Alloc(fmt.Sprintf("wr%d", p), 64), RecvType: l, RecvCount: 1,
			}
		}
		const horizonNs = 400_000
		for worldErrs[me] == nil && c.Now() < horizonNs {
			worldErrs[me] = c.Alltoallw(ops)
		}
		// Simulate work done past the checkpoint that the rollback must
		// discard: scribble the recoverable state, then Agree + Shrink.
		state[me].FillStream(0xbad)
		c.Agree(c.World(), 1)
		if _, serr := c.Shrink(c.World()); serr != nil {
			shrinkErrs[me] = serr
			return
		}
		restoredSums[me] = state[me].Checksum()
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range sess.Survivors() {
		if ckptNs[w] <= 0 {
			t.Errorf("rank %d: Checkpoint charged no virtual time", w)
		}
		if worldErrs[w] == nil {
			t.Errorf("rank %d: crash never surfaced", w)
		} else if !errors.Is(worldErrs[w], dkf.ErrRankFailed) && !errors.Is(worldErrs[w], dkf.ErrCommRevoked) {
			t.Errorf("rank %d: untyped world-phase error %v", w, worldErrs[w])
		}
		if shrinkErrs[w] != nil {
			t.Errorf("rank %d: Shrink failed: %v", w, shrinkErrs[w])
		}
		if restoredSums[w] != ckptSums[w] {
			t.Errorf("rank %d: auto-restore-on-Shrink did not roll state back (got %#x want %#x)",
				w, restoredSums[w], ckptSums[w])
		}
	}
	if leaked := sess.LeakedRequests(); leaked != 0 {
		t.Errorf("LeakedRequests() = %d, want 0", leaked)
	}

	// Buddy adoption: the dead rank's snapshot is still recoverable on its
	// buddy, byte-for-byte what the rank held at the checkpoint.
	if !sess.CheckpointAvailable(deadRank) {
		t.Fatalf("snapshot of dead rank %d unavailable despite live buddy %d", deadRank, buddy)
	}
	if err := sess.CheckpointAdopt(buddy, deadRank, adopted[0]); err != nil {
		t.Fatalf("buddy adoption failed: %v", err)
	}
	if adopted[0].Checksum() != deadSum {
		t.Fatalf("adopted state %#x != dead rank's captured state %#x", adopted[0].Checksum(), deadSum)
	}
	if err := sess.CheckpointAdopt(buddy+1, deadRank, adopted[0]); err == nil {
		t.Fatal("non-buddy adoption succeeded")
	}
}
