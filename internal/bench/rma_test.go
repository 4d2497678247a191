package bench

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/coll"
)

// TestRMAFigAcceptance is the CI gate on the one-sided backend's headline
// claim: on the 8-rank exact workload the put-based schedules must beat
// the two-sided ring on modeled latency, and at least one of them must
// also burn fewer progress events. The per-kind plan counters and the
// reuse column must be live.
func TestRMAFigAcceptance(t *testing.T) {
	tab := figure(t, "rma")[0]
	type row struct {
		timeUs   float64
		progress int64
		puts     int64
		plans    string
		reuse    int64
	}
	byAlg := map[string]row{}
	for _, r := range tab.Rows[:len(rmaAlgs)] { // the 8-rank exact rows
		if strings.HasPrefix(r[3], "ERROR") {
			t.Fatalf("row %v errored", r)
		}
		tUs, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatalf("row %v: bad time_us: %v", r, err)
		}
		prog, _ := strconv.ParseInt(r[5], 10, 64)
		puts, _ := strconv.ParseInt(r[7], 10, 64)
		reuse, _ := strconv.ParseInt(r[10], 10, 64)
		byAlg[r[2]] = row{timeUs: tUs, progress: prog, puts: puts, plans: r[9], reuse: reuse}
	}
	base, ok := byAlg[coll.Ring.String()]
	if !ok {
		t.Fatalf("no two-sided ring baseline row: %v", byAlg)
	}
	if base.puts != 0 {
		t.Fatalf("two-sided baseline touched the one-sided fabric: %+v", base)
	}
	var fewerProgress bool
	for _, alg := range []coll.Algorithm{coll.OneSidedRing, coll.OneSidedBruck} {
		os, ok := byAlg[alg.String()]
		if !ok {
			t.Fatalf("no %s row", alg)
		}
		if os.timeUs >= base.timeUs {
			t.Errorf("%s: %.1f us, not below the two-sided ring's %.1f us", alg, os.timeUs, base.timeUs)
		}
		if os.puts == 0 {
			t.Errorf("%s row recorded no puts", alg)
		}
		if os.progress < base.progress {
			fewerProgress = true
		}
	}
	if !fewerProgress {
		t.Errorf("no put-based schedule burned fewer progress events than the baseline (%d)", base.progress)
	}
	for alg, r := range byAlg {
		if !strings.Contains(r.plans, "strided:") {
			t.Errorf("%s: plan_compiles %q does not count the strided pack plan", alg, r.plans)
		}
		if r.reuse == 0 {
			t.Errorf("%s: plan cache recorded no reuse", alg)
		}
	}
}

// TestRMAA2ACtrlPuts is the CI gate on the symmetric-prefix offset
// negotiation: on two back-to-back identical one-sided Alltoallws, the
// first call must pay exactly 2(n-1) zero-byte control SignalPuts per
// rank (both parity regions, every peer) and the second call must issue
// zero — the negotiated offsets persist across calls — which also shows
// up as strictly fewer network messages on the repeat call.
func TestRMAA2ACtrlPuts(t *testing.T) {
	tab := figure(t, "rma")[1]
	const ranks = 8
	wantCtrl := int64(ranks * 2 * (ranks - 1))
	for _, r := range tab.Rows[:2] { // the 8-rank exact rows
		if strings.HasPrefix(r[3], "ERROR") {
			t.Fatalf("row %v errored", r)
		}
		ctrl1, _ := strconv.ParseInt(r[4], 10, 64)
		ctrl2, _ := strconv.ParseInt(r[5], 10, 64)
		msgs1, _ := strconv.ParseInt(r[6], 10, 64)
		msgs2, _ := strconv.ParseInt(r[7], 10, 64)
		puts, _ := strconv.ParseInt(r[8], 10, 64)
		if ctrl1 != wantCtrl {
			t.Errorf("%s: first call issued %d control puts, want %d", r[2], ctrl1, wantCtrl)
		}
		if ctrl2 != 0 {
			t.Errorf("%s: repeat call issued %d control puts, want 0 (offsets must persist)", r[2], ctrl2)
		}
		if msgs2 >= msgs1 {
			t.Errorf("%s: repeat call sent %d network messages, not below the first call's %d", r[2], msgs2, msgs1)
		}
		if puts == 0 {
			t.Errorf("%s: no puts recorded", r[2])
		}
	}
}

// TestRMAA2AExactLazyAgree: the two-call Alltoallw cell must report the
// same virtual clock, per-call message counts, and per-call control puts
// in both payload modes.
func TestRMAA2AExactLazyAgree(t *testing.T) {
	ex, exCtrl, exMsgs, err := runRMAAlltoallw(8, false, coll.OneSidedBruck)
	if err != nil {
		t.Fatal(err)
	}
	lz, lzCtrl, lzMsgs, err := runRMAAlltoallw(8, true, coll.OneSidedBruck)
	if err != nil {
		t.Fatal(err)
	}
	if ex.virtNs != lz.virtNs || exCtrl != lzCtrl || exMsgs != lzMsgs {
		t.Fatalf("exact/lazy diverged: ns %d vs %d, ctrl %v vs %v, msgs %v vs %v",
			ex.virtNs, lz.virtNs, exCtrl, lzCtrl, exMsgs, lzMsgs)
	}
}

// TestRMAFigExactLazyAgree: the one-sided ring cell must report the same
// virtual completion time, message count, and kernel launches in both
// payload modes — the bench-level echo of the lazy conformance oracle.
func TestRMAFigExactLazyAgree(t *testing.T) {
	ex, err := runRMAAllgatherv(8, false, coll.OneSidedRing)
	if err != nil {
		t.Fatal(err)
	}
	lz, err := runRMAAllgatherv(8, true, coll.OneSidedRing)
	if err != nil {
		t.Fatal(err)
	}
	if ex.virtNs != lz.virtNs || ex.msgs != lz.msgs || ex.kernels != lz.kernels {
		t.Fatalf("exact/lazy diverged: ns %d vs %d, msgs %d vs %d, launches %d vs %d",
			ex.virtNs, lz.virtNs, ex.msgs, lz.msgs, ex.kernels, lz.kernels)
	}
}
