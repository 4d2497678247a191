// Command ddtbench regenerates the paper's evaluation tables and figures
// on the simulated clusters, plus the repository's additional experiments.
//
// Usage:
//
//	ddtbench -list
//	ddtbench -fig 9
//	ddtbench -fig all
//	ddtbench -ablations
//	ddtbench -approaches          # Section III Algorithms 1-3
//	ddtbench -extended            # all eight ddtbench workloads
//	ddtbench -scaling             # node-count ring scaling
//	ddtbench -fig rma             # put-based vs two-sided collectives
//	ddtbench -fig 12 -format csv  # machine-readable output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/timeline"
	"repro/internal/workload"
)

var format = flag.String("format", "text", "output format: text or csv")

func emitTo(w io.Writer, format string, tabs []*bench.Table) {
	for _, t := range tabs {
		if format == "csv" {
			fmt.Fprintf(w, "# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Fprintln(w, t.String())
		}
	}
}

func emit(tabs []*bench.Table) { emitTo(os.Stdout, *format, tabs) }

func main() {
	fig := flag.String("fig", "", "figure id to regenerate (1, 8, 9, 10, 11, 12, 13, 14, coll, scale, chaos-scale, rma, or 'all')")
	list := flag.Bool("list", false, "list reproducible experiments")
	ablations := flag.Bool("ablations", false, "run the design-choice ablation experiments")
	approaches := flag.Bool("approaches", false, "compare the Section III approaches (Algorithms 1-3)")
	extended := flag.Bool("extended", false, "sweep all eight ddtbench workloads")
	scaling := flag.Bool("scaling", false, "ring-exchange node scaling")
	table1 := flag.Bool("table1", false, "quantified Table I scheme comparison")
	system := flag.String("system", "lassen", "system for -approaches/-extended/-scaling: lassen or abci")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of every measurement to this file (load in Perfetto / chrome://tracing)")
	faultSpec := flag.String("faults", "", "run every measurement under deterministic fault injection: a preset name (mixed, drop-heavy, corrupt-heavy, flappy-link, kernel-failure), optionally with overrides, or a key=value spec (e.g. 'mixed,seed=7' or 'drop=0.05,corrupt=0.02')")
	flag.Parse()

	spec := cluster.Lassen()
	if *system == "abci" {
		spec = cluster.ABCI()
	}

	if *faultSpec != "" {
		plan, err := fault.ParsePlan(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddtbench: -faults:", err)
			os.Exit(2)
		}
		bench.SetFaultPlan(plan)
		fmt.Fprintf(os.Stderr, "ddtbench: fault injection active (%s); recovery cost appears in the Retrans column\n", *faultSpec)
	}

	var coll *timeline.Collector
	if *tracePath != "" {
		coll = timeline.NewCollector()
		bench.SetCollector(coll)
		defer writeTrace(coll, *tracePath)
	}

	switch {
	case *list:
		fmt.Println("reproducible figures:")
		for _, f := range bench.Figures() {
			fmt.Printf("  -fig %s\n", f)
		}
		fmt.Println("plus: -ablations, -approaches, -extended, -scaling, -table1")
	case *ablations:
		emit(bench.Ablations())
	case *approaches:
		emit([]*bench.Table{bench.Approaches(spec)})
	case *extended:
		emit([]*bench.Table{bench.ExtendedWorkloads(spec)})
	case *scaling:
		emit([]*bench.Table{bench.Scaling(spec, workload.MILC(), 16)})
	case *table1:
		emit([]*bench.Table{bench.TableOne()})
	case *fig == "all":
		for _, f := range bench.Figures() {
			if err := run(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	case *fig != "":
		if err := run(*fig); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// writeTrace dumps the collected timelines as Chrome trace-event JSON.
func writeTrace(coll *timeline.Collector, path string) {
	if coll.Empty() {
		fmt.Fprintln(os.Stderr, "ddtbench: -trace: no measurements ran, nothing to write")
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddtbench: -trace:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := coll.WriteChrome(f); err != nil {
		fmt.Fprintln(os.Stderr, "ddtbench: -trace:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ddtbench: wrote Chrome trace to %s (open in https://ui.perfetto.dev)\n", path)
}

func run(fig string) error { return runTo(os.Stdout, *format, fig) }

func runTo(w io.Writer, format, fig string) error {
	tabs, err := bench.Run(fig)
	if err != nil {
		return err
	}
	emitTo(w, format, tabs)
	return nil
}
