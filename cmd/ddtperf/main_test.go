package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
)

// smokeRanks is each workload's world size at smoke scale.
var smokeRanks = map[string]int{"a2a-1024": 64, "rma-64": 8, "chaos-256": 64}

// smoke runs one workload at smoke scale: one measured step per phase and
// a millisecond per micro row, or no micro rows.
func smoke(t *testing.T, sp *spec, trace int, seed uint64, micros bool) *result {
	t.Helper()
	o := options{seed: seed, ranks: smokeRanks[sp.name], setupReps: 1, minSteps: 1}
	if micros {
		o.micro = time.Millisecond
	}
	res, err := runMode(sp, trace, o)
	if err != nil {
		t.Fatalf("%s trace=%d: %v", sp.name, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%d: correct=%v failed %d of %d: %s", sp.name, trace, res.Correct, res.Failed, res.Attempted, res.Error)
	}
	return res
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

func jsonMetrics(defs []metricDef, withBound bool) []jsonMetric {
	var out []jsonMetric
	for _, d := range defs {
		m := jsonMetric{Name: d.name, Unit: d.unit, Better: d.better}
		if withBound {
			bound := d.bound
			m.Bound = &bound
		}
		out = append(out, m)
	}
	return out
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the metric and
// workload tables the command reports from.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if want := []string{"bash", "cmd/ddtperf/run.sh"}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command = %q, want %q", f.Command, want)
	}
	if want := []string{"cmd/ddtperf"}; !reflect.DeepEqual(f.Paths, want) {
		t.Errorf("paths = %q, want %q", f.Paths, want)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %q (%q), want %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if want := jsonMetrics(endToEnd, true); !reflect.DeepEqual(f.EndToEnd, want) {
		b, _ := json.Marshal(want)
		t.Errorf("end_to_end differs from the command's; want %s", b)
	}
	if want := jsonMetrics(perLayer(), false); !reflect.DeepEqual(f.PerLayer, want) {
		b, _ := json.Marshal(want)
		t.Errorf("per_layer differs from the command's; want %s", b)
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// metricNames returns the names of a run's metrics.
func metricNames(r *result) []string { return sortedKeys(r.Metrics) }

func defNames(defs []metricDef) []string {
	m := map[string]bool{}
	for _, d := range defs {
		m[d.name] = true
	}
	return sortedKeys(m)
}

// TestWorkloadsSmoke runs every workload at smoke scale in both modes: no
// operation fails, each run reports exactly the metrics BENCHMARK.json
// names, and the modeled and count metrics repeat bit for bit in a second
// run in the same process, which uses a second fill seed except on
// chaos-256. The bulk shapes' modeled times equal the paper-figure
// harness's RunBulk for the same scheme and shapes.
func TestWorkloadsSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{name: m.Name})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{name: m.Name})
	}
	for i := range workloads {
		sp := &workloads[i]
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			if got, want := metricNames(smoke(t, sp, 0, 1, true)), defNames(e2e); !reflect.DeepEqual(got, want) {
				t.Errorf("untraced metrics %v, BENCHMARK.json end_to_end %v", got, want)
			}
			first := smoke(t, sp, 1, 1, true)
			if got, want := metricNames(first), defNames(layer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced metrics %v, BENCHMARK.json per_layer %v", got, want)
			}
			seed := uint64(2)
			if sp.perWorld == 1 { // chaos-256 repeats its own inputs
				seed = 1
			}
			again := smoke(t, sp, 1, seed, false)
			for _, d := range perLayer() {
				if d.kind == host {
					continue
				}
				if a, b := first.Metrics[d.name].Value, again.Metrics[d.name].Value; a != b {
					t.Errorf("%s: %v, then %v with seed %d", d.name, a, b, seed)
				}
			}
			if sp.name == "bulk-exact" {
				for _, s := range bulkShapes {
					want := bench.RunBulk(bench.BulkOptions{System: cluster.Lassen(), Scheme: "Proposed-Tuned", Workload: s.w, Dim: s.dim, Buffers: bulkBuffers})
					if want.VerifyErr != nil {
						t.Fatal(want.VerifyErr)
					}
					if got := first.Metrics["mpi.virt_us."+s.w.Name].Value; got != float64(want.AvgNs)/1e3 {
						t.Errorf("%s: modeled %v us, RunBulk %v ns", s.w.Name, got, want.AvgNs)
					}
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		if q1, m, q3 := quartiles(c.in); q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestCompare checks the verdicts of -compare on synthetic documents.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, step float64, failed int, virt float64) string {
		metrics := map[string]metric{}
		for _, d := range endToEnd {
			metrics[d.name] = metric{Value: 10, Unit: d.unit, N: 9, Q1: 9.9, Q3: 10.1}
		}
		metrics["step_ms.p50"] = metric{Value: step, Unit: "ms", N: 9, Q1: step * 0.99, Q3: step * 1.01}
		doc := document{Runs: []*result{
			{Workload: "bulk-exact", Trace: 0, Attempted: 100, Failed: failed, Metrics: metrics},
			{Workload: "bulk-exact", Trace: 1, Attempted: 100, Metrics: map[string]metric{"virt_us": {Value: virt, N: 3, Q1: virt, Q3: virt}}},
		}}
		path := filepath.Join(dir, name)
		if err := writeDoc(path, &doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 10, 0, 381.04)
	for _, c := range []struct {
		name   string
		path   string
		code   int
		expect string
	}{
		{"same", write("same.json", 10.1, 0, 381.04), 0, "identical"},
		{"faster", write("faster.json", 8, 0, 381.04), 0, " ok"},
		{"slower", write("slower.json", 13, 0, 381.04), 1, "REGRESSION"},
		{"failing", write("failing.json", 10, 1, 381.04), 1, "REGRESSION"},
		{"remodeled", write("remodeled.json", 10, 0, 380), 0, "CHANGED"},
	} {
		var out, errb bytes.Buffer
		if code := compare(base, c.path, &out, &errb); code != c.code || !bytes.Contains(out.Bytes(), []byte(c.expect)) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s%s", c.name, code, c.code, c.expect, out.String(), errb.String())
		}
	}
}
