// Command ddtbench regenerates the paper's evaluation tables and figures
// on the simulated clusters, plus the repository's additional experiments.
// Every table has one id; -list prints them all.
//
// Usage:
//
//	ddtbench -list
//	ddtbench -fig 9
//	ddtbench -fig all
//	ddtbench -fig approaches          # Section III Algorithms 1-3
//	ddtbench -fig table1              # quantified Table I
//	ddtbench -fig ablations           # design-choice ablations
//	ddtbench -fig extended            # all eight ddtbench workloads
//	ddtbench -fig scaling             # node-count ring scaling
//	ddtbench -fig rma                 # put-based vs two-sided collectives
//	ddtbench -fig 12 -format csv      # machine-readable output
//	ddtbench -faults mixed,seed=7 -fig coll   # any table under fault injection
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/timeline"
)

var format = flag.String("format", "text", "output format: text or csv")

func main() {
	fig := flag.String("fig", "", "table id to regenerate ("+strings.Join(bench.Figures(), ", ")+", or 'all')")
	list := flag.Bool("list", false, "list every table id")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of every bulk measurement to this file (load in Perfetto / chrome://tracing)")
	faultSpec := flag.String("faults", "", "run every table under deterministic fault injection: a preset name (mixed, drop-heavy, corrupt-heavy, flappy-link, kernel-failure), optionally with overrides, or a key=value spec (e.g. 'mixed,seed=7' or 'drop=0.05,corrupt=0.02')")
	flag.Parse()

	if *faultSpec != "" {
		plan, err := fault.ParsePlan(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddtbench: -faults:", err)
			os.Exit(2)
		}
		bench.SetFaultPlan(plan)
		fmt.Fprintf(os.Stderr, "ddtbench: fault injection active (%s); recovery cost appears in the Retrans column of -fig 11\n", *faultSpec)
	}

	var coll *timeline.Collector
	if *tracePath != "" {
		coll = timeline.NewCollector()
		bench.SetCollector(coll)
		defer writeTrace(coll, *tracePath)
	}

	switch {
	case *list:
		fmt.Println("reproducible tables:")
		for _, f := range bench.Figures() {
			fmt.Printf("  -fig %s\n", f)
		}
	case *fig == "all":
		failed := false
		for _, f := range bench.Figures() {
			if err := run(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
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

func run(fig string) error { return runTo(os.Stdout, os.Stderr, *format, fig) }

// runTo regenerates table id fig and renders it to w, and each CORRUPT
// cell's reason to ew (see render).
func runTo(w, ew io.Writer, format, fig string) error {
	tabs, err := bench.Run(fig)
	if err != nil {
		return err
	}
	return render(w, ew, format, tabs)
}

// render writes tabs to w and then, to ew, the verification error behind
// every CORRUPT cell, which names the first mismatching block. It fails
// when any table holds one.
func render(w, ew io.Writer, format string, tabs []*bench.Table) error {
	bench.Render(w, format, tabs)
	n := 0
	for _, t := range tabs {
		for _, err := range t.Corrupt {
			fmt.Fprintf(ew, "ddtbench: %s: CORRUPT: %v\n", t.Title, err)
			n++
		}
	}
	if n > 0 {
		return fmt.Errorf("ddtbench: %d CORRUPT cells", n)
	}
	return nil
}
