package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestRunFig1CSV golden-checks the CSV header row of the cheapest figure:
// the format is consumed by plotting scripts, so a header drift is a
// breaking change, not cosmetics.
func TestRunFig1CSV(t *testing.T) {
	var buf, errs bytes.Buffer
	if err := runTo(&buf, &errs, "csv", "1"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if len(lines) < 3 {
		t.Fatalf("want at least title+header+rows, got %q", buf.String())
	}
	if want := "# Fig 1: packing kernel vs launch overhead across GPU generations (us)"; lines[0] != want {
		t.Errorf("title row = %q, want %q", lines[0], want)
	}
	if want := "gpu,workload,kernel_us,launch_us,launch_share"; lines[1] != want {
		t.Errorf("header row = %q, want %q", lines[1], want)
	}
	if !strings.Contains(buf.String(), "Tesla-V100-NVLink") {
		t.Errorf("output missing the V100 rows:\n%s", buf.String())
	}
}

// TestRunFig1Text checks the aligned-text renderer emits the same header.
func TestRunFig1Text(t *testing.T) {
	var buf, errs bytes.Buffer
	if err := runTo(&buf, &errs, "text", "1"); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(buf.String(), "\n", 3)
	if len(head) < 2 || !strings.HasPrefix(head[1], "gpu") || !strings.Contains(head[1], "launch_share") {
		t.Errorf("text header row = %q", head[min(1, len(head)-1)])
	}
}

// TestRunUnknownFigure: the error path must not emit partial output.
func TestRunUnknownFigure(t *testing.T) {
	var buf, errs bytes.Buffer
	if err := runTo(&buf, &errs, "text", "99"); err == nil {
		t.Fatal("want error for unknown figure")
	}
	if buf.Len() != 0 || errs.Len() != 0 {
		t.Errorf("unknown figure wrote output: %q, errors: %q", buf.String(), errs.String())
	}
}

// TestRenderReportsCorruptCells checks that a table holding a CORRUPT
// cell is rendered in full, that the cell's verification error follows on
// the error stream, and that rendering then fails.
func TestRenderReportsCorruptCells(t *testing.T) {
	tab := &bench.Table{
		Title:   "Fig X: one corrupt cell",
		Header:  []string{"workload", "us"},
		Rows:    [][]string{{"NAS_MG", "CORRUPT"}},
		Corrupt: []error{errors.New("A->B buffer 0: workload: mismatch at byte 127 of block {Offset:0 Len:128}")},
	}
	var out, errs bytes.Buffer
	err := render(&out, &errs, "text", []*bench.Table{tab})
	if err == nil {
		t.Fatal("rendering a table with a CORRUPT cell succeeded")
	}
	if !strings.Contains(out.String(), "CORRUPT") {
		t.Errorf("table not rendered: %q", out.String())
	}
	want := "ddtbench: Fig X: one corrupt cell: CORRUPT: A->B buffer 0: workload: mismatch at byte 127 of block {Offset:0 Len:128}\n"
	if errs.String() != want {
		t.Errorf("error stream = %q, want %q", errs.String(), want)
	}
}
