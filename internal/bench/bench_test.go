package bench

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestRunBulkVerifiesAndTimes(t *testing.T) {
	r := RunBulk(BulkOptions{
		System: cluster.Lassen(), Scheme: "Proposed-Tuned",
		Workload: workload.MILC(), Dim: 8, Buffers: 4,
	})
	if r.VerifyErr != nil {
		t.Fatal(r.VerifyErr)
	}
	if r.AvgNs <= 0 {
		t.Fatalf("avg = %d", r.AvgNs)
	}
	if r.MsgBytes == 0 || r.Blocks == 0 {
		t.Fatalf("geometry missing: %+v", r)
	}
	if r.Breakdown.Total() == 0 {
		t.Fatal("breakdown empty")
	}
}

func TestRunBulkDeterministic(t *testing.T) {
	opt := BulkOptions{
		System: cluster.Lassen(), Scheme: "GPU-Sync",
		Workload: workload.Specfem3DOC(), Dim: 8, Buffers: 2,
	}
	a := RunBulk(opt)
	b := RunBulk(opt)
	if a.AvgNs != b.AvgNs {
		t.Fatalf("non-deterministic: %d vs %d", a.AvgNs, b.AvgNs)
	}
}

func TestRunBulkIntraNode(t *testing.T) {
	r := RunBulk(BulkOptions{
		System: cluster.Lassen(), Scheme: "Proposed-Tuned",
		Workload: workload.MILC(), Dim: 8, Buffers: 2, IntraNode: true,
	})
	if r.VerifyErr != nil {
		t.Fatal(r.VerifyErr)
	}
}

func TestRunBulkAllSchemesVerify(t *testing.T) {
	for _, s := range bulkSchemes {
		s := s
		t.Run(s, func(t *testing.T) {
			r := RunBulk(BulkOptions{
				System: cluster.ABCI(), Scheme: s,
				Workload: workload.Specfem3DCM(), Dim: 8, Buffers: 4,
			})
			if r.VerifyErr != nil {
				t.Fatal(r.VerifyErr)
			}
		})
	}
}

func TestRunBulkRPUT(t *testing.T) {
	r := RunBulk(BulkOptions{
		System: cluster.Lassen(), Scheme: "Proposed-Tuned",
		Workload: workload.NASMG(), Dim: 64, Buffers: 4,
		MutateMPI: mutRendezvous(mpi.RPUT),
	})
	if r.VerifyErr != nil {
		t.Fatal(r.VerifyErr)
	}
}

func TestFig1ShapesHold(t *testing.T) {
	tab := figure(t, "1")[0]
	if len(tab.Rows) != 8 { // 4 archs x 2 workloads
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// On every V100 row, launch overhead must exceed kernel time.
	for _, row := range tab.Rows {
		if strings.Contains(row[0], "V100") {
			var k, l float64
			if _, err := fmtScan(row[2], &k); err != nil {
				t.Fatal(err)
			}
			if _, err := fmtScan(row[3], &l); err != nil {
				t.Fatal(err)
			}
			if l <= k {
				t.Errorf("%s/%s: launch %.1f <= kernel %.1f", row[0], row[1], l, k)
			}
		}
	}
}

func TestFig9ProposedWinsSparseBulk(t *testing.T) {
	tab := figure(t, "9")[0]
	// Last row = 16 buffers. Columns: buffers, GPU-Sync, GPU-Async,
	// Hybrid, Proposed, Proposed-Tuned.
	last := tab.Rows[len(tab.Rows)-1]
	sync := mustF(t, last[1])
	hybrid := mustF(t, last[3])
	tuned := mustF(t, last[5])
	if tuned >= sync {
		t.Errorf("proposed-tuned (%f) should beat GPU-Sync (%f)", tuned, sync)
	}
	if tuned >= hybrid {
		t.Errorf("proposed-tuned (%f) should beat hybrid on sparse (%f)", tuned, hybrid)
	}
	if sync/tuned < 2 {
		t.Errorf("sparse win only %.1fx, paper reports up to ~6x", sync/tuned)
	}
}

func TestFig10HybridWinsSmallDense(t *testing.T) {
	tab := figure(t, "10")[0]
	// First row = 1 buffer: hybrid's CPU path should be competitive or
	// better vs the proposed design (paper: hybrid wins small dense).
	first := tab.Rows[0]
	hybrid := mustF(t, first[3])
	tuned := mustF(t, first[5])
	if hybrid > tuned {
		t.Errorf("hybrid (%f) should beat proposed (%f) at 1 small dense buffer", hybrid, tuned)
	}
	// Proposed must beat GPU-Sync and GPU-Async once there is bulk to
	// fuse (paper: improvement grows with outstanding operations; at a
	// single buffer it is a wash).
	for _, row := range tab.Rows {
		nbuf := mustF(t, row[0])
		if nbuf < 4 {
			continue
		}
		sync, async, tuned := mustF(t, row[1]), mustF(t, row[2]), mustF(t, row[5])
		if tuned >= sync || tuned >= async {
			t.Errorf("buffers=%s: proposed (%f) not beating sync (%f)/async (%f)", row[0], tuned, sync, async)
		}
	}
}

func TestFig11BreakdownShapes(t *testing.T) {
	tab := figure(t, "11")[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	get := func(scheme, cat string) float64 {
		ci := -1
		for i, h := range tab.Header {
			if h == cat {
				ci = i
			}
		}
		if ci < 0 {
			t.Fatalf("category %s missing", cat)
		}
		for _, row := range tab.Rows {
			if row[0] == scheme {
				return mustF(t, row[ci])
			}
		}
		t.Fatalf("scheme %s missing", scheme)
		return 0
	}
	// GPU-Sync has the highest Sync cost; the proposed design the lowest
	// launch cost (one fused launch vs dozens).
	if get("GPU-Sync", "Sync") <= get("Proposed-Tuned", "Sync") {
		t.Error("GPU-Sync should pay more Sync than proposed")
	}
	if get("Proposed-Tuned", "Launching") >= get("GPU-Sync", "Launching") {
		t.Error("proposed should pay less Launching than GPU-Sync")
	}
	if get("Proposed-Tuned", "Launching") >= get("GPU-Async", "Launching") {
		t.Error("proposed should pay less Launching than GPU-Async")
	}
}

func TestFig14ProposedTrouncesNaive(t *testing.T) {
	tab := figure(t, "14")[0]
	for _, row := range tab.Rows {
		// Columns: workload, dim, SpectrumMPI(=1.0x), OpenMPI,
		// MVAPICH2-GDR, Proposed.
		prop := mustX(t, row[5])
		spectrum := mustX(t, row[2])
		if spectrum != 1.0 {
			t.Errorf("%s: baseline not 1.0x: %f", row[0], spectrum)
		}
		if prop < 10 {
			t.Errorf("%s: proposed only %.1fx over SpectrumMPI, paper reports orders of magnitude", row[0], prop)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("nope"); err == nil {
		t.Fatal("unknown figure must error")
	}
	tabs, err := Run("1")
	if err != nil || len(tabs) != 1 {
		t.Fatalf("Run(1): %v %d", err, len(tabs))
	}
	if len(Figures()) != 17 {
		t.Fatalf("figures list = %v", Figures())
	}
}

func TestTableString(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}}
	s := tab.String()
	if !strings.Contains(s, "# T") || !strings.Contains(s, "bb") {
		t.Fatalf("table render: %q", s)
	}
}

// --- small parse helpers ---

func fmtScan(s string, out *float64) (int, error) {
	v, err := strconv.ParseFloat(s, 64)
	*out = v
	return 1, err
}

func mustF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// mustX parses "12.3x".
func mustX(t *testing.T, s string) float64 {
	t.Helper()
	return mustF(t, strings.TrimSuffix(s, "x"))
}

func TestRunBulkUnderFaultPlan(t *testing.T) {
	plan, err := fault.Preset("mixed", 11)
	if err != nil {
		t.Fatal(err)
	}
	SetFaultPlan(plan)
	defer SetFaultPlan(nil)
	opt := BulkOptions{
		System: cluster.Lassen(), Scheme: "Proposed-Tuned",
		Workload: workload.MILC(), Dim: 8, Buffers: 4,
	}
	a := RunBulk(opt)
	if a.VerifyErr != nil {
		t.Fatal(a.VerifyErr)
	}
	if a.Breakdown.Get(trace.Retrans) == 0 {
		t.Fatal("mixed plan injected nothing into the bulk measurement")
	}
	b := RunBulk(opt)
	if a.AvgNs != b.AvgNs {
		t.Fatalf("chaos measurement non-deterministic: %d vs %d", a.AvgNs, b.AvgNs)
	}
	SetFaultPlan(nil)
	c := RunBulk(opt)
	if c.Breakdown.Get(trace.Retrans) != 0 {
		t.Fatal("fault plan leaked into a faults-off measurement")
	}
}
