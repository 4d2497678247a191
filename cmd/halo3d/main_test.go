package main

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// small is a tiny Proposed-Tuned run: 8^3 grids over ranks ranks.
func small(steps, ranks int) options {
	return options{scheme: "Proposed-Tuned", n: 8, steps: steps, ranks: ranks}
}

// runCLI parses args as the command line and runs the selected mode.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	o, err := parseArgs(args)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	var buf bytes.Buffer
	if err := execute(&buf, o); err != nil {
		t.Fatalf("%v: %v\n%s", args, err, buf.String())
	}
	return buf.String()
}

// TestReportGolden pins the exact report text — and so the modeled step
// latencies and one-sided counters — of every transport, exact at 8 ranks
// and lazy at 64, plus the scheme shoot-out.
func TestReportGolden(t *testing.T) {
	const lazy64 = "halo3d: lazy mode; 6 sampled faces around rank 0 verified byte-exact\n"
	cases := []struct {
		args string
		want string
	}{
		{"-n 8 -steps 2",
			"Proposed-Tuned   grid=8^3  ranks=8 ([2 2 2])  faces=6x2  avg step latency = 37.8 us (simulated)\n"},
		{"-n 8 -steps 2 -coll",
			"Proposed-Tuned   grid=8^3  ranks=8 ([2 2 2])  faces=6x2  avg step latency = 28.0 us (simulated)\n"},
		{"-n 8 -steps 2 -rma",
			"Proposed-Tuned   grid=8^3  ranks=8 ([2 2 2])  faces=6x2  avg step latency = 92.2 us (simulated)\n" +
				"halo3d: one-sided exchange: 96 fused pack-puts, 96 doorbells, 0 retransmits\n"},
		{"-n 8 -steps 2 -lazy -ranks 64", lazy64 +
			"Proposed-Tuned   grid=8^3  ranks=64 ([4 4 4])  faces=6x2  avg step latency = 49.3 us (simulated)\n"},
		{"-n 8 -steps 2 -lazy -ranks 64 -coll", lazy64 +
			"Proposed-Tuned   grid=8^3  ranks=64 ([4 4 4])  faces=6x2  avg step latency = 44.6 us (simulated)\n"},
		{"-n 8 -steps 2 -lazy -ranks 64 -rma", lazy64 +
			"Proposed-Tuned   grid=8^3  ranks=64 ([4 4 4])  faces=6x2  avg step latency = 92.2 us (simulated)\n" +
			"halo3d: one-sided exchange: 768 fused pack-puts, 768 doorbells, 0 retransmits\n"},
		{"-n 8 -steps 1 -compare", "" +
			"GPU-Sync         avg step =     71.0 us   speedup vs GPU-Sync = 1.00x\n" +
			"GPU-Async        avg step =     71.7 us   speedup vs GPU-Sync = 0.99x\n" +
			"CPU-GPU-Hybrid   avg step =     41.9 us   speedup vs GPU-Sync = 1.70x\n" +
			"Proposed-Tuned   avg step =     40.1 us   speedup vs GPU-Sync = 1.77x\n"},
		{"-n 8 -steps 1 -compare -coll", "" +
			"GPU-Sync         avg step =     73.0 us   speedup vs GPU-Sync = 1.00x\n" +
			"GPU-Async        avg step =     73.4 us   speedup vs GPU-Sync = 1.00x\n" +
			"CPU-GPU-Hybrid   avg step =     44.5 us   speedup vs GPU-Sync = 1.64x\n" +
			"Proposed-Tuned   avg step =     30.3 us   speedup vs GPU-Sync = 2.41x\n"},
		{"-n 8 -steps 1 -compare -rma", "" +
			"GPU-Sync         avg step =     91.7 us   speedup vs GPU-Sync = 1.00x\n" +
			"GPU-Async        avg step =     92.4 us   speedup vs GPU-Sync = 0.99x\n" +
			"CPU-GPU-Hybrid   avg step =     62.6 us   speedup vs GPU-Sync = 1.47x\n" +
			"Proposed-Tuned   avg step =     94.5 us   speedup vs GPU-Sync = 0.97x\n"},
	}
	for _, tc := range cases {
		if got := runCLI(t, strings.Fields(tc.args)...); got != tc.want {
			t.Errorf("halo3d %s:\ngot:\n%swant:\n%s", tc.args, got, tc.want)
		}
	}
}

// TestParseArgsRejects runs the validator on every bad flag combination.
func TestParseArgsRejects(t *testing.T) {
	for _, tc := range []struct {
		args, want string
	}{
		{"-rma -coll", "mutually exclusive"},
		{"-faults rank-crash", "must be used together"},
		{"-recover", "must be used together"},
		{"-recover -faults rank-crash -ranks 16", "only the default 8-rank world"},
		{"-recover -faults rank-crash -steps 3", "-steps do not apply"},
		{"-recover -faults rank-crash -compare", "-compare, -trace"},
		{"-recover -faults rank-crash -trace t.json", "-compare, -trace"},
		{"-compare -trace t.json", "-trace is not supported with -compare"},
		{"-ranks 10", "divisible by 4"},
		{"-ranks 4", "divisible by 4"},
		{"-n 1", "-n must be >= 3"},
		{"-n 2", "-n must be >= 3"},
		{"-steps 0", "-steps must be >= 1"},
	} {
		_, err := parseArgs(strings.Fields(tc.args))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("halo3d %s: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	for _, args := range []string{"", "-n 3 -steps 1", "-recover -faults rank-crash -ranks 8", "-ranks 1024 -lazy -rma"} {
		if _, err := parseArgs(strings.Fields(args)); err != nil {
			t.Errorf("halo3d %s rejected: %v", args, err)
		}
	}
}

// TestRunSmallGrid runs one timestep of the 2x2x2 halo exchange on a tiny
// grid and checks the report line.
func TestRunSmallGrid(t *testing.T) {
	var buf bytes.Buffer
	o := small(1, 8)
	o.scheme = "GPU-Sync"
	avg, err := run(&buf, o, false)
	if err != nil {
		t.Fatal(err)
	}
	if avg <= 0 {
		t.Errorf("avg step latency %d ns, want > 0", avg)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "GPU-Sync") ||
		!strings.Contains(out, "grid=8^3") ||
		!strings.Contains(out, "avg step latency") {
		t.Errorf("report line = %q", out)
	}
}

// TestRunRMAMode runs the exchange through the one-sided path — fused
// pack-puts into symmetric ghost windows — in exact mode at 8 ranks and
// lazy mode at 64 ranks (where run() sample-verifies rank 0's faces).
func TestRunRMAMode(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		o := small(2, 8)
		o.useRMA, o.lazy = true, lazy
		if lazy {
			o.ranks = 64
		}
		var buf bytes.Buffer
		avg, err := run(&buf, o, false)
		if err != nil {
			t.Fatalf("lazy=%v: %v", lazy, err)
		}
		if avg <= 0 {
			t.Errorf("lazy=%v: avg step latency %d ns, want > 0", lazy, avg)
		}
		out := buf.String()
		if !strings.Contains(out, "one-sided exchange") || !strings.Contains(out, "fused pack-puts") {
			t.Errorf("lazy=%v: missing one-sided stats line:\n%s", lazy, out)
		}
		if strings.Contains(out, " 0 fused pack-puts") {
			t.Errorf("lazy=%v: no pack-puts issued:\n%s", lazy, out)
		}
		if lazy && !strings.Contains(out, "sampled faces around rank 0 verified byte-exact") {
			t.Errorf("lazy=%v: missing verification line:\n%s", lazy, out)
		}
	}
}

// TestRunCollMode runs the same timestep through the NeighborAlltoallw
// collective path and checks it completes with a plausible report.
func TestRunCollMode(t *testing.T) {
	var buf bytes.Buffer
	o := small(1, 8)
	o.useColl = true
	avg, err := run(&buf, o, false)
	if err != nil {
		t.Fatal(err)
	}
	if avg <= 0 {
		t.Errorf("avg step latency %d ns, want > 0", avg)
	}
	if !strings.Contains(buf.String(), "avg step latency") {
		t.Errorf("report line = %q", buf.String())
	}
}

// TestRunLazyRanks runs the lazy-bytes mode at 64 ranks through both
// exchange paths; run() itself performs the sampled byte-exact check
// around rank 0, so success here means the verification passed.
func TestRunLazyRanks(t *testing.T) {
	for _, useColl := range []bool{false, true} {
		o := small(1, 64)
		o.lazy, o.useColl = true, useColl
		var buf bytes.Buffer
		avg, err := run(&buf, o, false)
		if err != nil {
			t.Fatalf("coll=%v: %v", useColl, err)
		}
		if avg <= 0 {
			t.Errorf("coll=%v: avg step latency %d ns, want > 0", useColl, avg)
		}
		out := buf.String()
		if !strings.Contains(out, "lazy mode; 6 sampled faces around rank 0 verified byte-exact") {
			t.Errorf("coll=%v: missing verification line:\n%s", useColl, out)
		}
		if !strings.Contains(out, "ranks=64") {
			t.Errorf("coll=%v: report line = %q", useColl, out)
		}
	}
}

// TestDims3 pins the balanced 3D decomposition newHalo gives each -ranks
// world.
func TestDims3(t *testing.T) {
	cases := map[int][]int{
		8:    {2, 2, 2},
		64:   {4, 4, 4},
		256:  {8, 8, 4},
		1024: {16, 8, 8},
	}
	for ranks, want := range cases {
		o := small(1, ranks)
		o.lazy = true
		h, err := newHalo(o, nil)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if got := h.cart.Dims(); !reflect.DeepEqual(got, want) {
			t.Errorf("ranks=%d: halo cart dims %v, want %v", ranks, got, want)
		}
	}
}

// twoSidedRecovery and oneSidedRecovery are the report lines a planned
// crash of rank 2 in the 8-rank world must produce over each transport.
var (
	twoSidedRecovery = []string{
		"rank(s) [2] crashed",
		"shrunk world 8 -> 7 ranks",
		"checkpoint epoch 1 restored",
		"recovery exchange byte-exact across 6 survivor pairs",
		"checkpointed grid adopted by buddy rank 3",
	}
	oneSidedRecovery = []string{
		"rank(s) [2] crashed",
		"survivors observed typed failures",
		"shrunk world 8 -> 7 ranks; symmetric heap re-rendezvoused at fabric epoch 1",
		"window contents restored from checkpoint epoch 1",
		"recovery chain byte-exact across 6 survivor pairs",
		"checkpointed grid and window adopted by buddy rank 3",
	}
)

type recoverCase struct {
	name      string
	spec      string
	lazy, rma bool
	want      []string
	skipShort bool
}

// runRecoverCases runs each case as a subtest: runRecover's own rollback,
// byte-exactness, leak and buddy-adoption checks must pass and its report
// must carry every wanted line.
func runRecoverCases(t *testing.T, cases []recoverCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skipShort && testing.Short() {
				t.Skip("runs a full recovery cycle per preset seed")
			}
			var buf bytes.Buffer
			if err := runRecover(&buf, "Proposed-Tuned", 8, tc.spec, tc.lazy, tc.rma); err != nil {
				t.Fatalf("%v\n%s", err, buf.String())
			}
			out := buf.String()
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("recovery report missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestRunRecover drives the checkpoint-backed recovery demo over both
// transports: a planned crash kills rank 2, the survivors shrink (rolling
// their grids, and one-sided their reopened window, back to the pre-run
// checkpoint) and re-exchange a z-chain. The rank-crash preset across
// seeds (different victims and crash times) must survive too.
func TestRunRecover(t *testing.T) {
	cases := []recoverCase{
		{name: "exact", spec: "crash=2@20000", want: twoSidedRecovery},
		{name: "lazy", spec: "crash=2@20000", lazy: true, want: twoSidedRecovery},
	}
	for _, rma := range []bool{false, true} {
		for _, seed := range []uint64{1, 2, 3} {
			name := fmt.Sprintf("seed=%d", seed)
			if rma {
				name = "rma-" + name
			}
			cases = append(cases, recoverCase{name: name, spec: fmt.Sprintf("rank-crash,seed=%d", seed),
				lazy: seed%2 == 0, rma: rma, want: []string{"crashed", "adopted by buddy rank"}, skipShort: true})
		}
	}
	runRecoverCases(t, cases)
}

// TestRunRecoverRMA drives the one-sided recovery demo in both payload
// modes: the planned crash tears the fused pack-put exchange, the
// survivors shrink (re-rendezvousing the symmetric heap), the reopened
// window restores its checkpointed contents, and the z-chain re-exchange
// over the new fabric epoch must verify byte-exactly with the dead rank's
// window snapshot still adoptable from its buddy.
func TestRunRecoverRMA(t *testing.T) {
	runRecoverCases(t, []recoverCase{
		{name: "exact", spec: "crash=2@20000", rma: true, want: oneSidedRecovery},
		{name: "lazy", spec: "crash=2@20000", lazy: true, rma: true, want: oneSidedRecovery},
	})
}

// TestCompareAllSmall checks the shoot-out covers all four schemes and
// reports speedups relative to GPU-Sync (whose own speedup is 1.00x).
func TestCompareAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four full exchanges")
	}
	var buf bytes.Buffer
	if err := compareAll(&buf, small(1, 8)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, s := range []string{"GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "Proposed-Tuned"} {
		if !strings.Contains(out, s) {
			t.Errorf("missing scheme %q:\n%s", s, out)
		}
	}
	if !strings.Contains(out, "speedup vs GPU-Sync = 1.00x") {
		t.Errorf("GPU-Sync baseline should report 1.00x:\n%s", out)
	}
}
