package dkf_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Refresh every golden Chrome trace after an intended model change with
//
//	go test . -run 'TestGolden.*Trace' -update
var update = flag.Bool("update", false, "rewrite the golden Chrome traces under testdata/")

// checkTrace checks the Chrome trace raw structurally: it must parse,
// every event must be named with a known phase and non-negative times,
// and some span or instant must come from each of layers. It returns the
// number of processes (ranks) that recorded an event.
func checkTrace(t *testing.T, raw []byte, layers ...string) int {
	t.Helper()
	var cf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &cf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	pids := map[int]bool{}
	for i, e := range cf.TraceEvents {
		switch {
		case e.Name == "":
			t.Fatalf("event %d has no name", i)
		case e.Ph == "M":
			continue
		case e.Ph != "X" && e.Ph != "i":
			t.Fatalf("event %d (%s): unknown phase %q", i, e.Name, e.Ph)
		case e.Ts < 0 || e.Dur < 0:
			t.Fatalf("event %d (%s): negative ts/dur", i, e.Name)
		}
		seen[e.Cat] = true
		pids[e.Pid] = true
	}
	for _, l := range layers {
		if !seen[l] {
			t.Errorf("no events from layer %q (got %v)", l, seen)
		}
	}
	return len(pids)
}

// checkGoldenTrace compares the Chrome trace got byte for byte with
// testdata/<name>; -update writes it instead.
func checkGoldenTrace(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace differs from golden %s (len got=%d want=%d); -update rewrites it if intended",
			path, len(got), len(want))
	}
}
