package coll

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mpi"
)

// TestStageWaitErrorMatchesErrorf checks that a failed call's joined
// error reads and unwraps exactly as fmt.Errorf("%w; %w", stage, wait)
// does: byte-for-byte the same text, and the same errors.Is and
// errors.As answers, down to the error errors.As finds.
func TestStageWaitErrorMatchesErrorf(t *testing.T) {
	rts := &mpi.OpError{Rank: 1, Peer: 2, Tag: 3, IsSend: true, Phase: "rts", Attempts: 4, Err: mpi.ErrRetriesExhausted}
	read := &mpi.OpError{Rank: 2, Peer: 1, Tag: 3, Phase: "rdma-read", Attempts: 1, Err: mpi.ErrPeerAborted}
	dead := &mpi.RankFailedError{Rank: 5, DetectedAt: 600}
	waitall := errors.Join(read, dead)
	for i, c := range []struct{ stage, wait error }{
		{rts, waitall},
		{dead, rts},
		{errors.New("coll: stage failed"), errors.Join(read)},
	} {
		got := error(&stageWaitError{stage: c.stage, wait: c.wait})
		want := fmt.Errorf("%w; %w", c.stage, c.wait)
		if got.Error() != want.Error() {
			t.Errorf("case %d: text %q, want %q", i, got.Error(), want.Error())
		}
		for _, target := range []error{mpi.ErrRetriesExhausted, mpi.ErrPeerAborted, mpi.ErrTruncate, rts, read, dead, c.stage, c.wait} {
			if g, w := errors.Is(got, target), errors.Is(want, target); g != w {
				t.Errorf("case %d: errors.Is(%v) = %v, want %v", i, target, g, w)
			}
		}
		var gotOp, wantOp *mpi.OpError
		if g, w := errors.As(got, &gotOp), errors.As(want, &wantOp); g != w || gotOp != wantOp {
			t.Errorf("case %d: errors.As(*OpError) = %v %p, want %v %p", i, g, gotOp, w, wantOp)
		}
		var gotRF, wantRF *mpi.RankFailedError
		if g, w := errors.As(got, &gotRF), errors.As(want, &wantRF); g != w || gotRF != wantRF {
			t.Errorf("case %d: errors.As(*RankFailedError) = %v %p, want %v %p", i, g, gotRF, w, wantRF)
		}
	}
}
