package timeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/trace"
)

func TestNilRecorderIsDisabledAndFree(t *testing.T) {
	var r *Recorder
	r.Span(LayerMPI, trace.Comm, "", "x", 0, 10)
	r.Instant(LayerMPI, "", "x", 0)
	r.Reset()
	if r.Events() != nil || r.Count(trace.Comm) != 0 {
		t.Fatal("nil recorder must be empty")
	}
	if r.Sums().Total() != 0 {
		t.Fatal("nil recorder sums must be zero")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.Span(LayerMPI, trace.Comm, "", "x", 0, 10)
	}); allocs != 0 {
		t.Fatalf("nil recorder Span allocates %v per run, want 0", allocs)
	}
}

func TestSpanSumsAndCounts(t *testing.T) {
	r := NewRecorder(16)
	r.Span(LayerMPI, trace.Comm, "", "a", 0, 10)
	r.Span(LayerGPU, trace.PackKernel, "s0", "k", 20, 5)
	r.Span(LayerMPI, trace.Comm, "net", "b", 30, 7)
	r.Span(LayerSim, CostNone, "sched", "sleep", 40, 100) // no cost
	if got := r.Sums().Get(trace.Comm); got != 17 {
		t.Fatalf("Comm sum = %d, want 17", got)
	}
	if got := r.Sums().Get(trace.PackKernel); got != 5 {
		t.Fatalf("PackKernel sum = %d, want 5", got)
	}
	if got := r.Sums().Total(); got != 22 {
		t.Fatalf("total = %d, want 22 (CostNone must not count)", got)
	}
	if r.Count(trace.Comm) != 2 || r.Count(trace.PackKernel) != 1 {
		t.Fatalf("counts wrong: comm=%d pack=%d", r.Count(trace.Comm), r.Count(trace.PackKernel))
	}
}

func TestCoalescingMergesAbuttingIdenticalSpans(t *testing.T) {
	r := NewRecorder(16)
	r.Span(LayerMPI, trace.Comm, "", "poll", 0, 10)
	r.Span(LayerMPI, trace.Comm, "", "poll", 10, 10) // abuts: coalesce
	r.Span(LayerMPI, trace.Comm, "", "poll", 25, 10) // gap: new event
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d, want 2 (coalesced)", len(ev))
	}
	if ev[0].Dur != 20 || ev[1].Start != 25 {
		t.Fatalf("bad coalesce: %+v", ev)
	}
	// Cost still accrues per emission.
	if got := r.Sums().Get(trace.Comm); got != 30 {
		t.Fatalf("Comm sum = %d, want 30", got)
	}
	if r.Count(trace.Comm) != 3 {
		t.Fatalf("count = %d, want 3", r.Count(trace.Comm))
	}
	// Args suppress coalescing.
	r.Span(LayerMPI, trace.Comm, "", "poll", 35, 10, Arg{Key: "k", Val: "v"})
	if len(r.Events()) != 3 {
		t.Fatal("event with args must not coalesce")
	}
}

func TestRingEvictionKeepsSums(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		// Distinct names prevent coalescing.
		name := string(rune('a' + i))
		r.Span(LayerMPI, trace.Comm, "", name, int64(i*10), 5)
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("retained = %d, want 4", len(ev))
	}
	if r.dropped != 6 {
		t.Fatalf("dropped = %d, want 6", r.dropped)
	}
	// Oldest retained first, emission order preserved.
	for i := 1; i < len(ev); i++ {
		if ev[i].Start <= ev[i-1].Start {
			t.Fatalf("events out of order: %+v", ev)
		}
	}
	if ev[len(ev)-1].Start != 90 {
		t.Fatalf("newest start = %d, want 90", ev[len(ev)-1].Start)
	}
	// Sums survive eviction: all 10 emissions counted.
	if got := r.Sums().Get(trace.Comm); got != 50 {
		t.Fatalf("Comm sum = %d, want 50", got)
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on negative duration")
		}
	}()
	NewRecorder(4).Span(LayerMPI, trace.Comm, "", "x", 0, -1)
}

func TestReset(t *testing.T) {
	r := NewRecorder(4)
	r.Span(LayerMPI, trace.Comm, "", "x", 0, 10)
	r.Reset()
	if len(r.Events()) != 0 || r.Sums().Total() != 0 || r.Count(trace.Comm) != 0 {
		t.Fatal("reset must clear events, sums, and counts")
	}
	r.Span(LayerMPI, trace.Comm, "", "y", 5, 3)
	if len(r.Events()) != 1 || r.Sums().Get(trace.Comm) != 3 {
		t.Fatal("recorder must keep working after reset")
	}
}

func TestTimelineRankAccess(t *testing.T) {
	tl := New(2, 8)
	if tl.Ranks() != 2 {
		t.Fatalf("ranks = %d", tl.Ranks())
	}
	if tl.Rank(0) == nil || tl.Rank(1) == nil {
		t.Fatal("in-range ranks must have recorders")
	}
	if tl.Rank(-1) != nil || tl.Rank(2) != nil {
		t.Fatal("out-of-range ranks must return nil (disabled) recorders")
	}
	var nilTL *Timeline
	if nilTL.Rank(0) != nil || nilTL.Ranks() != 0 {
		t.Fatal("nil timeline must be fully disabled")
	}
}

// chromeFile mirrors the trace-event JSON shape for parsing in tests.
type chromeFile struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args,omitempty"`
	} `json:"traceEvents"`
}

func TestWriteChromeParsesAndIsDeterministic(t *testing.T) {
	mk := func() *Timeline {
		tl := New(2, 32)
		tl.Rank(0).Span(LayerMPI, trace.Comm, "", "eager", 0, 100, Arg{Key: "dst", Val: "1"})
		tl.Rank(0).Span(LayerGPU, CostNone, "s0", "kernel", 50, 200)
		tl.Rank(0).Instant(LayerFusion, "", "flush", 300, Arg{Key: "pending", Val: "4"})
		tl.Rank(1).Span(LayerSim, CostNone, "sched", "sleep", 10, 90)
		return tl
	}
	var b1, b2 bytes.Buffer
	if err := mk().WriteChrome(&b1); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteChrome(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("WriteChrome must be byte-deterministic")
	}
	var cf chromeFile
	if err := json.Unmarshal(b1.Bytes(), &cf); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b1.String())
	}
	var spans, instants, metas int
	pids := map[int]bool{}
	for _, e := range cf.TraceEvents {
		pids[e.Pid] = true
		switch e.Ph {
		case "X":
			spans++
		case "i":
			instants++
		case "M":
			metas++
		default:
			t.Fatalf("unknown phase %q", e.Ph)
		}
	}
	if spans != 3 || instants != 1 {
		t.Fatalf("spans=%d instants=%d, want 3/1", spans, instants)
	}
	if !pids[0] || !pids[1] {
		t.Fatalf("want one pid per rank, got %v", pids)
	}
	if metas == 0 {
		t.Fatal("want process/thread metadata events")
	}
	// ns precision survives the µs encoding: 100ns span -> 0.100.
	if !bytes.Contains(b1.Bytes(), []byte(`"dur":0.100`)) {
		t.Fatalf("want ns-precise dur 0.100 in output:\n%s", b1.String())
	}
}

func TestCollectorMultipleTimelines(t *testing.T) {
	c := NewCollector()
	if !c.Empty() {
		t.Fatal("fresh collector must be empty")
	}
	t1 := New(1, 8)
	t1.Rank(0).Span(LayerMPI, trace.Comm, "", "a", 0, 10)
	t2 := New(1, 8)
	t2.Rank(0).Span(LayerMPI, trace.Comm, "", "b", 0, 10)
	c.Add("first", t1)
	c.Add("second", t2)
	c.Add("nil-ignored", nil)
	var b bytes.Buffer
	if err := c.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var cf chromeFile
	if err := json.Unmarshal(b.Bytes(), &cf); err != nil {
		t.Fatalf("collector output not valid JSON: %v", err)
	}
	names := map[string]bool{}
	pids := map[int]bool{}
	for _, e := range cf.TraceEvents {
		pids[e.Pid] = true
		if e.Name == "process_name" {
			if n, ok := e.Args["name"].(string); ok {
				names[n] = true
			}
		}
	}
	if !names["first/rank0"] || !names["second/rank0"] {
		t.Fatalf("want labeled process names, got %v", names)
	}
	if len(pids) != 2 {
		t.Fatalf("want 2 distinct pids, got %v", pids)
	}
}

// TestWriteChromeReportsDroppedEvents checks that a recorder whose ring
// evicted events gets one dropped-events record with the count, and that
// a recorder that dropped nothing gets none.
func TestWriteChromeReportsDroppedEvents(t *testing.T) {
	tl := New(2, 2)
	for i := int64(0); i < 5; i++ {
		tl.Rank(0).Span(LayerMPI, trace.Comm, "", "eager", 10*i, 1, Arg{Key: "i", Val: "x"})
	}
	tl.Rank(1).Span(LayerMPI, trace.Comm, "", "eager", 0, 1)
	var b bytes.Buffer
	if err := tl.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var cf chromeFile
	if err := json.Unmarshal(b.Bytes(), &cf); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var got []string
	for _, e := range cf.TraceEvents {
		if e.Name == DroppedRecord {
			got = append(got, fmt.Sprintf("%s pid=%d dropped=%v", e.Ph, e.Pid, e.Args["dropped"]))
		}
	}
	if want := []string{"M pid=0 dropped=3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dropped records %q, want %q", got, want)
	}
}
