package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/timeline"
	"repro/internal/trace"
)

// writeTrace writes a one-rank trace of five spans, recorded with the given
// ring capacity, and returns its path.
func writeTrace(t *testing.T, capacity int) string {
	tl := timeline.New(1, capacity)
	for i := int64(0); i < 5; i++ {
		tl.Rank(0).Span(timeline.LayerMPI, trace.Comm, "", "eager", 10*i, 1, timeline.Arg{Key: "i", Val: "x"})
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tl.WriteChrome(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckFailsATraceThatDroppedEvents: a trace recorded with room for
// every event passes; the same run on a two-event ring fails, naming the
// dropped count.
func TestCheckFailsATraceThatDroppedEvents(t *testing.T) {
	if err := check(writeTrace(t, 8), []string{"mpi"}); err != nil {
		t.Fatalf("complete trace rejected: %v", err)
	}
	err := check(writeTrace(t, 2), nil)
	if err == nil || !strings.Contains(err.Error(), `dropped events {"dropped":3}`) {
		t.Fatalf("trace that dropped 3 events: error %v", err)
	}
}
