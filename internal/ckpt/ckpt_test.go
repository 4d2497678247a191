package ckpt

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/payload"
)

func exactBuf(name string, n int, seed uint64) *gpu.Buffer {
	b := gpu.HostAlloc(name, n)
	payload.FillBytes(b.Data, seed)
	return b
}

func lazyBuf(name string, n int64, seed uint64) *gpu.Buffer {
	c := payload.New(n)
	c.Fill(seed)
	return &gpu.Buffer{Name: name, Lazy: c}
}

func scribble(b *gpu.Buffer) {
	if b.IsLazy() {
		b.Lazy.Fill(0xbad)
		b.Lazy.WriteBytes(0, []byte{0xde, 0xad})
	} else {
		for i := range b.Data {
			b.Data[i] = 0xcc
		}
	}
}

// TestCaptureRestoreRoundTrip checks the basic contract in both payload
// modes: capture, scribble, restore, byte-identical content and matching
// capture checksums.
func TestCaptureRestoreRoundTrip(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		name := map[bool]string{false: "exact", true: "lazy"}[lazy]
		t.Run(name, func(t *testing.T) {
			const n = 4
			st := NewStore(n)
			bufs := make([][]*gpu.Buffer, n)
			sums := make([][]uint64, n)
			for r := 0; r < n; r++ {
				for j := 0; j < 2; j++ {
					var b *gpu.Buffer
					if lazy {
						b = lazyBuf("g", 4096, uint64(r*10+j))
					} else {
						b = exactBuf("g", 4096, uint64(r*10+j))
					}
					bufs[r] = append(bufs[r], b)
					sums[r] = append(sums[r], b.Checksum())
					st.Register(r, b)
				}
			}
			e := st.CaptureAll(1000, 1)
			if e == nil || !e.Committed() || e.Seq != 1 {
				t.Fatalf("CaptureAll did not commit epoch 1: %+v", e)
			}
			if e.Bytes != int64(n*2*4096) {
				t.Fatalf("epoch bytes = %d, want %d", e.Bytes, n*2*4096)
			}
			for r := 0; r < n; r++ {
				for _, b := range bufs[r] {
					scribble(b)
				}
			}
			for r := 0; r < n; r++ {
				got, re, err := st.RestoreRank(r)
				if err != nil {
					t.Fatalf("restore rank %d: %v", r, err)
				}
				if re != e || got != 2*4096 {
					t.Fatalf("restore rank %d: epoch %p bytes %d", r, re, got)
				}
				for j, b := range bufs[r] {
					if b.Checksum() != sums[r][j] {
						t.Fatalf("rank %d buf %d not restored", r, j)
					}
				}
			}
		})
	}
}

// fold folds one buffer checksum the way RankSum folds a rank that
// registered a single buffer.
func fold(sum uint64) uint64 { return (14695981039346656037 ^ sum) * 1099511628211 }

// TestRankSumReadsTheSnapshot checks that RankSum hashes the frozen
// snapshot, not the live buffer: a scribble after capture leaves it at the
// pre-scribble fold, and a restore brings the buffer back to it.
func TestRankSumReadsTheSnapshot(t *testing.T) {
	for _, b := range []*gpu.Buffer{exactBuf("x", 4099, 5), lazyBuf("l", 4099, 5)} {
		st := NewStore(1)
		st.Register(0, b)
		want := fold(b.Checksum())
		e := st.CaptureAll(0, 1)
		scribble(b)
		if fold(b.Checksum()) == want {
			t.Fatalf("%s: scribble left the checksum unchanged", b.Name)
		}
		if got := e.RankSum(0); got != want {
			t.Fatalf("%s: RankSum after scribble = %#x, want the capture fold %#x", b.Name, got, want)
		}
		if _, _, err := st.RestoreRank(0); err != nil {
			t.Fatalf("%s: restore: %v", b.Name, err)
		}
		if got := fold(b.Checksum()); got != e.RankSum(0) {
			t.Fatalf("%s: restored buffer folds to %#x, RankSum %#x", b.Name, got, e.RankSum(0))
		}
	}
}

// TestEpochQuorum checks the coordinated-commit rule: the epoch commits
// only once every live registered rank has contributed, duplicates are
// ignored, and a second epoch rolls Latest() forward.
func TestEpochQuorum(t *testing.T) {
	st := NewStore(3)
	bufs := make([]*gpu.Buffer, 3)
	for r := 0; r < 3; r++ {
		bufs[r] = exactBuf("g", 64, uint64(r))
		st.Register(r, bufs[r])
	}
	if _, committed := st.CaptureRank(0, 10, 1); committed {
		t.Fatal("epoch committed after one of three contributions")
	}
	if _, committed := st.CaptureRank(0, 11, 1); committed {
		t.Fatal("duplicate contribution advanced the quorum")
	}
	if st.Latest() != nil {
		t.Fatal("Latest non-nil before commit")
	}
	st.CaptureRank(1, 20, 1)
	e, committed := st.CaptureRank(2, 30, 1)
	if !committed || !e.Committed() || st.Latest() != e {
		t.Fatal("final contribution did not commit the epoch")
	}
	if e.TakenAt != 30 || e.CommEpoch != 1 {
		t.Fatalf("epoch stamps = (%d, %d), want (30, 1)", e.TakenAt, e.CommEpoch)
	}
	e2 := st.CaptureAll(100, 2)
	if e2 == nil || e2.Seq != 2 || st.Latest() != e2 {
		t.Fatal("second CaptureAll did not become Latest")
	}
}

// TestMarkDeadShrinksQuorum: a rank dying mid-checkpoint must not wedge
// the epoch — the survivors' contributions commit without it.
func TestMarkDeadShrinksQuorum(t *testing.T) {
	st := NewStore(3)
	for r := 0; r < 3; r++ {
		st.Register(r, exactBuf("g", 64, uint64(r)))
	}
	st.CaptureRank(0, 10, 1)
	st.CaptureRank(1, 20, 1)
	st.MarkDead(2)
	e := st.Latest()
	if e == nil || !e.Committed() {
		t.Fatal("epoch did not commit when the missing rank died")
	}
	if rankBytes(e, 2) != 0 || rankBytes(e, 0) != 64 {
		t.Fatal("committed epoch has wrong per-rank contents")
	}
}

// TestBuddyAvailability: a dead rank's snapshot survives while its buddy
// lives and is lost when both die.
func TestBuddyAvailability(t *testing.T) {
	st := NewStore(4)
	for r := 0; r < 4; r++ {
		st.Register(r, exactBuf("g", 64, uint64(r)))
	}
	st.CaptureAll(10, 1)
	st.MarkDead(1)
	if !st.Available(1) {
		t.Fatal("snapshot of dead rank 1 should survive via buddy 2")
	}
	st.MarkDead(2)
	if st.Available(1) {
		t.Fatal("snapshot of rank 1 should be lost: rank and buddy both dead")
	}
	if _, _, err := st.RestoreRank(1); err == nil {
		t.Fatal("RestoreRank succeeded on a lost snapshot")
	}
	if !st.Available(2) {
		t.Fatal("snapshot of dead rank 2 should survive via buddy 3")
	}
}

// TestAdoptRank: only the buddy may take over a dead rank's snapshot, and
// the adopted bytes match the capture exactly (lazy mode).
func TestAdoptRank(t *testing.T) {
	st := NewStore(4)
	bufs := make([]*gpu.Buffer, 4)
	for r := 0; r < 4; r++ {
		bufs[r] = lazyBuf("g", 2048, uint64(r+7))
		st.Register(r, bufs[r])
	}
	e := st.CaptureAll(10, 1)
	want := bufs[3].Checksum()
	st.MarkDead(3)
	into := []*gpu.Buffer{lazyBuf("adopt", 2048, 0)}
	if _, err := st.AdoptRank(1, 3, into); err == nil {
		t.Fatal("non-buddy adoption succeeded")
	}
	n, err := st.AdoptRank(st.Buddy(3), 3, into)
	if err != nil || n != 2048 {
		t.Fatalf("buddy adoption failed: n=%d err=%v", n, err)
	}
	if into[0].Checksum() != want || into[0].Checksum() != e.RankSum(3)^want^e.RankSum(3) {
		t.Fatal("adopted content does not match the capture")
	}
}

// TestRestoreErrors: restoring before any commit, and with no snapshot
// for the rank, must fail with a useful error rather than corrupting.
func TestRestoreErrors(t *testing.T) {
	st := NewStore(2)
	st.Register(0, exactBuf("g", 8, 1))
	if _, _, err := st.RestoreRank(0); err == nil {
		t.Fatal("restore before first commit succeeded")
	}
	st.CaptureAll(5, 1)
	if _, _, err := st.RestoreRank(1); err == nil {
		t.Fatal("restore of unregistered rank succeeded")
	}
	if _, committed := st.CaptureRank(1, 6, 1); committed {
		t.Fatal("capture of unregistered rank committed an epoch")
	}
}

// TestRebindRestoreBuffer covers the window-recovery path: a snapshot
// captured from one buffer rolls into a replacement that took over its
// registration slot (the fresh window buffer a post-Shrink reopen
// allocates), in both payload modes.
func TestRebindRestoreBuffer(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		name := map[bool]string{false: "exact", true: "lazy"}[lazy]
		t.Run(name, func(t *testing.T) {
			const n = 1024
			st := NewStore(2)
			mk := func(bname string, seed uint64) *gpu.Buffer {
				if lazy {
					return lazyBuf(bname, n, seed)
				}
				return exactBuf(bname, n, seed)
			}
			old := mk("win-e0", 7)
			other := mk("grid", 8)
			st.Register(0, old, other)
			st.Register(1, mk("peer", 9))
			if st.CaptureAll(100, 0) == nil {
				t.Fatal("capture did not commit")
			}
			want := old.Checksum()

			// The reopened window is a fresh buffer with junk content.
			fresh := mk("win-e1", 0xbad)
			if !st.Rebind(0, old, fresh) {
				t.Fatal("Rebind did not find the old buffer")
			}
			if st.Rebind(0, old, fresh) {
				t.Fatal("Rebind found an already-replaced buffer")
			}
			got, err := st.RestoreBuffer(0, fresh)
			if err != nil {
				t.Fatalf("RestoreBuffer: %v", err)
			}
			if got != n {
				t.Fatalf("RestoreBuffer moved %d bytes, want %d", got, n)
			}
			if fresh.Checksum() != want {
				t.Fatal("restored replacement does not match the captured content")
			}

			// Single-buffer restore leaves the other registration alone.
			scribble(other)
			junk := other.Checksum()
			if _, err := st.RestoreBuffer(0, fresh); err != nil {
				t.Fatalf("second RestoreBuffer: %v", err)
			}
			if other.Checksum() != junk {
				t.Fatal("RestoreBuffer touched an unrelated registration")
			}

			// Unknown buffers and late registrations are typed errors.
			if _, err := st.RestoreBuffer(0, old); err == nil {
				t.Fatal("RestoreBuffer on the replaced buffer succeeded")
			}
			late := mk("late", 3)
			st.Register(0, late)
			if _, err := st.RestoreBuffer(0, late); err == nil {
				t.Fatal("RestoreBuffer on a post-capture registration succeeded")
			}
		})
	}
}

// rankBytes is the logical snapshot size rank holds in epoch e.
func rankBytes(e *Epoch, rank int) int64 {
	var n int64
	for _, s := range e.snaps[rank] {
		n += s.bytes()
	}
	return n
}
