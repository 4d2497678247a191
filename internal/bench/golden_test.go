package bench

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
)

// Regenerate every golden table after an intended change to a modeled
// number (about a minute: rma and chaos-scale run in full):
//
//	go test ./internal/bench -run TestFigureGoldens -update
var update = flag.Bool("update", false, "rewrite every golden table under testdata/figures from a full regeneration")

// goldenDir holds one golden per registry id: exactly what ddtbench -fig
// <id> prints, with host cells written as "-". Its faults directory holds
// what ddtbench -faults mixed,seed=7 -fig <id> prints for faultedIDs.
const goldenDir = "../../testdata/figures"

const faultSpec = "mixed,seed=7"

var faultedIDs = []string{"approaches", "coll"}

func goldenPath(id string) string { return filepath.Join(goldenDir, id+".txt") }

// prefixRuns regenerate, under go test, the ids whose full tables are too
// slow for it: their rows come in rank order, so the smaller rank counts
// are a prefix of the golden's rows. -update and ddtbench run them in
// full.
var prefixRuns = map[string]func() []*Table{
	"rma":         func() []*Table { return []*Table{RMAFig(64), RMAA2AFig(64)} },
	"chaos-scale": func() []*Table { return []*Table{ChaosScale(256)} },
}

// shared regenerates each id's tables once per go test run:
// TestFigureGoldens checks them and the shape tests assert on them.
var shared = func() map[string]func() []*Table {
	m := map[string]func() []*Table{}
	for _, id := range Figures() {
		m[id] = sync.OnceValue(func() []*Table {
			if run, ok := prefixRuns[id]; ok && !*update {
				return run()
			}
			tabs, _ := Run(id) // id is in the registry
			return tabs
		})
	}
	return m
}()

// figure returns the shared tables of id. They are regenerated fault-free
// and untraced, so figure refuses to run while a test has a fault plan or
// collector installed.
func figure(t *testing.T, id string) []*Table {
	t.Helper()
	if faultPlan != nil || collector != nil {
		t.Fatalf("figure(%q) called with a fault plan or collector installed", id)
	}
	return shared[id]()
}

// TestFigureGoldens regenerates every registry id once and compares it
// byte for byte with its golden, as it does the faulted runs. rma
// and chaos-scale are compared on the rows prefixRuns regenerate;
// TestChaosScale1024 checks one more chaos-scale row and CI the full rma
// table.
func TestFigureGoldens(t *testing.T) {
	checkGoldenFiles(t, goldenDir, Figures())
	checkGoldenFiles(t, filepath.Join(goldenDir, "faults"), faultedIDs)

	// The faulted runs set the package-wide fault plan, so they run one at
	// a time, before this test joins the parallel phase.
	plan, err := fault.ParsePlan(faultSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range faultedIDs {
		t.Run("faults/"+id, func(t *testing.T) {
			SetFaultPlan(plan)
			tabs, _ := Run(id) // a registry id
			SetFaultPlan(nil)
			got := checkGolden(t, filepath.Join(goldenDir, "faults", id+".txt"), tabs, false)
			if clean, _ := os.ReadFile(goldenPath(id)); string(clean) == got {
				t.Errorf("-faults %s -fig %s prints the fault-free table", faultSpec, id)
			}
		})
	}

	t.Parallel()
	for _, id := range Figures() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			_, prefix := prefixRuns[id]
			checkGolden(t, goldenPath(id), figure(t, id), prefix && !*update)
		})
	}
}

// TestChaosScale1024 is the acceptance run: a 1024-rank lazy-mode
// hierarchical Alltoallw under the rank-crash preset completes after
// Shrink with checksum-exact survivor data, a committed checkpoint rolled
// back on every survivor, and zero leaked requests or fused jobs (all
// asserted inside runChaosScale). Its row must equal the golden's last.
// The run is the package's longest, so it starts at once, beside the
// sequential tests that follow; none of them may install a fault plan or
// collector, which the run reads as it builds its world.
func TestChaosScale1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank chaos run skipped in -short")
	}
	const mode = "rank-crash+restore"
	tab := ChaosScale(0)
	row := make(chan []string, 1)
	go func() { row <- chaosScaleRow(tab, 1024, mode) }()
	t.Parallel()
	tab.Rows = [][]string{<-row}
	got := blankHost(tab).Rows[0]

	raw, err := os.ReadFile(goldenPath("chaos-scale"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if want := lines[len(lines)-1]; !slices.Equal(got, strings.Fields(want)) {
		t.Fatalf("1024-rank %s row:\n got %q\nwant the golden's last row %q", mode, got, want)
	}
}

// checkGolden compares tabs, rendered as ddtbench prints them with host
// cells blanked, with the golden at path and returns the text; -update
// writes it instead. With prefix set, each table's rows need only match
// the golden table's first rows, cell for cell.
func checkGolden(t *testing.T, path string, tabs []*Table, prefix bool) string {
	t.Helper()
	var b strings.Builder
	for _, tab := range tabs {
		Render(&b, "text", []*Table{blankHost(tab)})
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return got
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := string(raw)
	if !prefix && got != want {
		t.Errorf("%s differs from the regenerated tables (-update rewrites it, git diff shows how):\n%s", path, got)
	}
	gotTabs, wantTabs := strings.Split(got, "\n\n"), strings.Split(want, "\n\n")
	for i := 0; prefix && i < len(gotTabs); i++ {
		if i >= len(wantTabs) || !sameCells(gotTabs[i], wantTabs[i]) {
			t.Errorf("%s: table %d's regenerated rows are not the golden's first rows:\n%s", path, i+1, gotTabs[i])
		}
	}
	return got
}

// sameCells reports whether got's cells, read in order, start want's,
// whatever the column widths; a host cell "-" in want matches any.
func sameCells(got, want string) bool {
	g, w := strings.Fields(got), strings.Fields(want)
	for i := range g {
		if i >= len(w) || g[i] != w[i] && w[i] != "-" {
			return false
		}
	}
	return true
}

// checkGoldenFiles fails unless dir holds exactly one golden per id.
func checkGoldenFiles(t *testing.T, dir string, ids []string) {
	t.Helper()
	names, _ := filepath.Glob(filepath.Join(dir, "*.txt")) // the pattern is well-formed
	for i, name := range names {
		names[i] = strings.TrimSuffix(filepath.Base(name), ".txt")
	}
	want := slices.Clone(ids)
	slices.Sort(names)
	slices.Sort(want)
	if !*update && !slices.Equal(names, want) {
		t.Errorf("%s holds goldens %v, want one per table id %v (regenerate with -update)", dir, names, want)
	}
}

// TestExperimentsMatchGoldens: EXPERIMENTS.md shows every golden table,
// and each block whose first line is a golden table's title line holds
// that table's cells, host cells aside.
func TestExperimentsMatchGoldens(t *testing.T) {
	golden := map[string]string{} // title line -> table text
	for _, id := range Figures() {
		raw, err := os.ReadFile(goldenPath(id))
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range strings.Split(strings.TrimSuffix(string(raw), "\n\n"), "\n\n") {
			golden[tab[:strings.IndexByte(tab, '\n')]] = tab
		}
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range strings.Split(string(doc), "\n\n") {
		title, _, _ := strings.Cut(block, "\n")
		want, ok := golden[strings.TrimRight(title, " ")]
		if !ok {
			continue
		}
		delete(golden, strings.TrimRight(title, " "))
		sameShape := strings.Count(block, "\n") == strings.Count(want, "\n") && len(strings.Fields(block)) == len(strings.Fields(want))
		if !sameShape || !sameCells(block, want) {
			t.Errorf("EXPERIMENTS.md shows %s\n%s\nbut the golden table is\n%s", title, block, want)
		}
	}
	for title := range golden {
		t.Errorf("EXPERIMENTS.md does not show the table %q", title)
	}
}

// blankHost returns a copy of t with every host cell written as "-": the
// form the committed golden tables take.
func blankHost(t *Table) *Table {
	out := *t
	out.Rows = make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		out.Rows[r] = append([]string(nil), row...)
		for i := range row {
			if i < len(t.Host) && t.Host[i] {
				out.Rows[r][i] = "-"
			}
		}
	}
	return &out
}
