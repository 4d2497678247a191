// Command ddtperf is the repository's benchmark. It runs four named
// workloads through the simulator's public packages and reports both of
// the system's clocks: the modeled (virtual) time the paper is about,
// which repeats bit for bit, and the host cost of running the simulator
// (wall time, allocation, live heap), which is compared against a bound.
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports per-layer rows: set-up spans, modeled time and
// counters per step, baseline references and host micro rows. Every step
// is verified outside the timer.
//
//	ddtperf                                  all workloads, both runs
//	ddtperf -workload a2a-1024 -seed 3 -trace 0
//	ddtperf -out run.json                    also write the JSON document
//	ddtperf -compare 'parent*.json' 'change*.json'
//
// With one workload and one trace mode, the last line of standard output
// is a JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// document is what -out writes: the runs with their environment.
type document struct {
	Go         string    `json:"go"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Runs       []*result `json:"runs"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ddtperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the fill streams")
	seconds := fs.Float64("seconds", 15, "measuring window of one run, in seconds")
	traceMode := fs.Int("trace", -1, "0: untraced end-to-end run; 1: traced per-layer run; -1: both")
	out := fs.String("out", "", "write the runs as a JSON document to this file")
	cmp := fs.String("compare", "", "compare two sets of documents: -compare A B (files or globs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "ddtperf: -compare takes two arguments: -compare A B")
			return 2
		}
		return compare(*cmp, fs.Arg(0), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 0 || *traceMode < -1 || *traceMode > 1 {
		fs.Usage()
		return 2
	}
	specs := workloads
	if *name != "all" {
		sp, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "ddtperf:", err)
			return 2
		}
		specs = []spec{*sp}
	}
	modes := []int{0, 1}
	if *traceMode >= 0 {
		modes = []int{*traceMode}
	}
	o := options{seed: *seed, seconds: *seconds, setupReps: 9, minSteps: 3, settle: 2 * time.Second, micro: 150 * time.Millisecond}
	doc := document{Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds}
	for i := range specs {
		for _, mode := range modes {
			res, err := runMode(&specs[i], mode, o)
			if err != nil {
				fmt.Fprintln(stderr, "ddtperf:", err)
				return 1
			}
			printResult(stdout, res)
			doc.Runs = append(doc.Runs, res)
		}
	}
	if *out != "" {
		if err := writeDoc(*out, &doc); err != nil {
			fmt.Fprintln(stderr, "ddtperf:", err)
			return 1
		}
	}
	if len(doc.Runs) == 1 {
		if err := printLine(stdout, doc.Runs[0]); err != nil {
			fmt.Fprintln(stderr, "ddtperf:", err)
			return 1
		}
	}
	return 0
}

func runMode(sp *spec, mode int, o options) (*result, error) {
	if mode == 0 {
		return runEndToEnd(sp, o)
	}
	return runPerLayer(sp, o)
}

// printResult writes a run as a table: every metric by name with its unit
// and sample count.
func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "# %s trace=%d: attempted %d, failed %d, correct %v\n", r.Workload, r.Trace, r.Attempted, r.Failed, r.Correct)
	if r.Error != "" {
		fmt.Fprintf(w, "#   first failure: %s\n", r.Error)
	}
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer()
	}
	for _, d := range defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "  %-36s %14.6g %-9s n=%d\n", d.name, m.Value, m.Unit, m.N)
	}
}

// printLine writes the run's one-line JSON summary: the keys correct,
// attempted, failed and metrics, each metric with its value and unit.
func printLine(w io.Writer, r *result) error {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]valueUnit{}}
	for k, m := range r.Metrics {
		line.Metrics[k] = valueUnit{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeDoc(path string, doc *document) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
