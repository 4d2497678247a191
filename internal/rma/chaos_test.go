package rma_test

import (
	"fmt"
	"testing"

	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/rma"
	"repro/internal/sim"
)

// chaosRing is the canonical one-sided chaos workload: a ring of
// signalled pack-puts plus raw puts, so drops, CRC rejects, delays, and
// signal losses all hit payload and signal legs. Returns the final
// clock, total fault events, and the checksum over every window.
func chaosRing(t *testing.T, lazy bool, seed uint64) (clock int64, events int, sum uint64) {
	t.Helper()
	plan, err := fault.Preset("rma-flaky", seed)
	if err != nil {
		t.Fatal(err)
	}
	l := datatype.Commit(datatype.Vector(16, 8, 16, datatype.Float64))
	const count = 2
	w := testWorld(2, lazy, plan, false)
	f := rma.New(w)
	runErr := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		id := r.ID()
		entry := r.LayoutEntry(l, count)
		win, err := f.OpenWindow(id, "chaos", 3*entry.Bytes)
		if err != nil {
			t.Errorf("rank %d: %v", id, err)
			return
		}
		sig, err := f.OpenSignal("chaos-sig", 2)
		if err != nil {
			t.Errorf("rank %d: %v", id, err)
			return
		}
		origin := r.Dev.Alloc(fmt.Sprintf("origin%d", id), int(entry.Extent)*count)
		origin.FillStream(uint64(id) + 21)
		raw := r.Dev.Alloc(fmt.Sprintf("raw%d", id), int(entry.Bytes))
		raw.FillStream(uint64(id) + 91)
		ep := f.Endpoint(id)
		right := (id + 1) % w.Size()
		// Fused signalled pack-put into the right neighbour's middle
		// third, plus a raw signalled put into its upper third.
		if err := ep.PackPut(p, win, right, entry.Bytes, origin, l, count, 0, sig, 0, 1, true); err != nil {
			t.Errorf("rank %d packput: %v", id, err)
		}
		if err := ep.PutSignal(p, win, right, 2*entry.Bytes, raw, 0, entry.Bytes, sig, 1, 1); err != nil {
			t.Errorf("rank %d put: %v", id, err)
		}
		ep.WaitSignal(p, sig, 0, 1)
		ep.WaitSignal(p, sig, 1, 1)
		// Signal implies the payload already landed — checksum before
		// Quiet to catch any signal-before-payload reordering under
		// faults.
		left := (id - 1 + w.Size()) % w.Size()
		wantRaw := refChecksum(r, fmt.Sprintf("rref%d", id), uint64(left)+91, entry.Bytes)
		if got := win.Buf(id).ChecksumRange(2*entry.Bytes, entry.Bytes); got != wantRaw {
			t.Errorf("rank %d: raw deposit %#x, want %#x", id, got, wantRaw)
		}
		if err := ep.Quiet(p); err != nil {
			t.Errorf("rank %d quiet: %v", id, err)
		}
		w.Barrier(p)
		sum += win.Buf(id).Checksum()
		f.CloseSignal(sig)
		f.CloseWindow(win)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if f.PendingOps() != 0 {
		t.Fatalf("%d one-sided ops leaked", f.PendingOps())
	}
	if n := rma.FreeOps(f); n != 0 {
		// A retransmission timer or a delayed delivery may still reach a
		// settled op, so none is given back for reuse.
		t.Fatalf("%d ops were given back for reuse under an injector", n)
	}
	if w.LeakedRequests() != 0 {
		t.Fatalf("%d two-sided requests leaked", w.LeakedRequests())
	}
	return w.Env.Now(), len(w.FaultEvents()), sum
}

// TestChaosRMAFlaky is the rma-flaky conformance cell: byte-exact
// delivery and full completion under drops, corruption, delays, and
// signal loss — in exact and lazy payload modes.
func TestChaosRMAFlaky(t *testing.T) {
	seeds := []uint64{1, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, lazy := range []bool{false, true} {
		lazy := lazy
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			events := 0
			for _, seed := range seeds {
				_, ev, _ := chaosRing(t, lazy, seed)
				events += ev
			}
			if events == 0 {
				t.Fatal("rma-flaky injected no faults across the one-sided sweep")
			}
		})
	}
}

// TestChaosRMAReplay pins same-seed determinism under active injection:
// final clock, fault-event count, and delivered bytes all reproduce.
func TestChaosRMAReplay(t *testing.T) {
	c1, e1, s1 := chaosRing(t, false, 3)
	c2, e2, s2 := chaosRing(t, false, 3)
	if c1 != c2 || e1 != e2 || s1 != s2 {
		t.Fatalf("replay diverged: clock %d vs %d, events %d vs %d, sum %#x vs %#x", c1, c2, e1, e2, s1, s2)
	}
}

// TestChaosRMASeedMatters guards against the rma sites silently not
// drawing: different seeds must produce different runs (same bytes).
func TestChaosRMASeedMatters(t *testing.T) {
	c1, e1, s1 := chaosRing(t, false, 11)
	c2, e2, s2 := chaosRing(t, false, 12)
	if s1 != s2 {
		t.Fatal("delivered bytes must not depend on the fault seed")
	}
	if c1 == c2 && e1 == e2 {
		t.Fatalf("seeds 11 and 12 produced identical runs (clock %d, %d events) — rma sites not drawing?", c1, e1)
	}
}
