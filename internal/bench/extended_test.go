package bench

import (
	"strings"
	"testing"
)

func TestExtendedWorkloadsAllVerify(t *testing.T) {
	tab := figure(t, "extended")[0]
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, c := range row {
			if c == "CORRUPT" {
				t.Fatalf("%v corrupted", row)
			}
		}
		// Fusion must beat GPU-Sync on every workload at 16 buffers.
		sync, tuned := mustF(t, row[4]), mustF(t, row[5])
		if tuned >= sync {
			t.Errorf("%s: tuned (%f) not beating GPU-Sync (%f)", row[0], tuned, sync)
		}
	}
}

func TestScalingFlatAcrossNodes(t *testing.T) {
	tab := figure(t, "scaling")[0]
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Ring load per link is constant, so latency must not blow up with
	// node count (allow 50% growth for barrier skew).
	first := mustF(t, tab.Rows[0][2])
	last := mustF(t, tab.Rows[len(tab.Rows)-1][2])
	if last > first*1.5 {
		t.Fatalf("scaling not flat: 2 nodes %.1fus vs 8 nodes %.1fus", first, last)
	}
	// Fusion wins at every scale.
	for _, row := range tab.Rows {
		sync, tuned := mustF(t, row[1]), mustF(t, row[2])
		if tuned >= sync {
			t.Errorf("nodes=%s: tuned (%f) not beating sync (%f)", row[0], tuned, sync)
		}
	}
}

func TestCSVRendering(t *testing.T) {
	tab := &Table{
		Title:  "x",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", `has,comma`}, {"2", `has"quote`}},
	}
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[1] != `1,"has,comma"` {
		t.Fatalf("comma escape: %q", lines[1])
	}
	if lines[2] != `2,"has""quote"` {
		t.Fatalf("quote escape: %q", lines[2])
	}
}

func TestTableOneShapes(t *testing.T) {
	tab := figure(t, "table1")[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	col := func(name string) int {
		for i, h := range tab.Header {
			if h == name {
				return i
			}
		}
		t.Fatalf("column %s missing", name)
		return -1
	}
	driver, lat := col("driver_us/msg"), col("latency_us")
	get := func(scheme string, c int) float64 {
		for _, row := range tab.Rows {
			if row[0] == scheme {
				return mustF(t, row[c])
			}
		}
		t.Fatalf("scheme %s missing", scheme)
		return 0
	}
	// Table I: proposed has Low driver overhead and Low latency.
	if get("Proposed-Tuned", driver) >= get("GPU-Sync", driver) {
		t.Error("proposed driver overhead should undercut GPU-Sync")
	}
	if get("Proposed-Tuned", lat) >= get("GPU-Sync", lat) {
		t.Error("proposed latency should undercut GPU-Sync")
	}
}

func TestIPCPathsOrdering(t *testing.T) {
	tab := figure(t, "ablations")[6]
	ipc := mustF(t, tab.Rows[0][1])
	packed := mustF(t, tab.Rows[1][1])
	inter := mustF(t, tab.Rows[2][1])
	if ipc >= packed {
		t.Errorf("DirectIPC (%f) should beat the packed intra-node path (%f)", ipc, packed)
	}
	if ipc >= inter {
		t.Errorf("DirectIPC (%f) should beat inter-node IB (%f)", ipc, inter)
	}
}
