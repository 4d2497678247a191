package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// runKey groups runs of one workload and trace mode.
type runKey struct {
	workload string
	trace    int
}

// loadRuns reads every document matching pattern and groups its runs.
func loadRuns(pattern string) (map[runKey][]*result, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no document matches %q", pattern)
	}
	runs := map[runKey][]*result{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var doc document
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range doc.Runs {
			k := runKey{r.Workload, r.Trace}
			runs[k] = append(runs[k], r)
		}
	}
	return runs, nil
}

// summary is one side's median of a metric and its relative spread.
type summary struct {
	med, spread float64
	values      []float64
}

// summarize takes the median and quartile spread of a metric across runs;
// a single run contributes its own within-run quartiles.
func summarize(runs []*result, name string) summary {
	var s summary
	var q1, q3 float64
	for _, r := range runs {
		s.values = append(s.values, r.Metrics[name].Value)
	}
	if len(runs) == 1 {
		m := runs[0].Metrics[name]
		s.med, q1, q3 = m.Value, m.Q1, m.Q3
	} else {
		q1, s.med, q3 = quartiles(s.values)
	}
	if s.med != 0 {
		s.spread = (q3 - q1) / math.Abs(s.med)
	}
	return s
}

// failRatio is failed over attempted ops across runs.
func failRatio(runs []*result) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compare prints, per workload, every end-to-end metric's median delta from
// A to B against its bound, and whether each modeled and count metric is
// identical. A metric whose quartile spread on either side exceeds its
// bound is unresolved. It returns 1 on any regression or any rise in the
// failure ratio.
func compare(a, b string, stdout, stderr io.Writer) int {
	ra, err := loadRuns(a)
	if err != nil {
		fmt.Fprintln(stderr, "ddtperf:", err)
		return 2
	}
	rb, err := loadRuns(b)
	if err != nil {
		fmt.Fprintln(stderr, "ddtperf:", err)
		return 2
	}
	bad := false
	for _, sp := range workloads {
		e2e := [2][]*result{ra[runKey{sp.name, 0}], rb[runKey{sp.name, 0}]}
		layer := [2][]*result{ra[runKey{sp.name, 1}], rb[runKey{sp.name, 1}]}
		if (len(e2e[0]) == 0 || len(e2e[1]) == 0) && (len(layer[0]) == 0 || len(layer[1]) == 0) {
			continue
		}
		fa := failRatio(append(append([]*result(nil), e2e[0]...), layer[0]...))
		fb := failRatio(append(append([]*result(nil), e2e[1]...), layer[1]...))
		verdict := "ok"
		if fb > fa {
			verdict, bad = "REGRESSION", true
		}
		fmt.Fprintf(stdout, "# %s: A %d+%d runs, B %d+%d runs (untraced+traced)\n", sp.name, len(e2e[0]), len(layer[0]), len(e2e[1]), len(layer[1]))
		fmt.Fprintf(stdout, "  %-36s %14.6g %14.6g  %s\n", "fail_ratio", fa, fb, verdict)
		if len(e2e[0]) > 0 && len(e2e[1]) > 0 {
			for _, d := range endToEnd {
				v, regressed := compareBounded(d, summarize(e2e[0], d.name), summarize(e2e[1], d.name))
				bad = bad || regressed
				fmt.Fprintln(stdout, v)
			}
		}
		if len(layer[0]) == 0 || len(layer[1]) == 0 {
			continue
		}
		for _, d := range perLayer() {
			sa, sb := summarize(layer[0], d.name), summarize(layer[1], d.name)
			verdict := ""
			if d.kind != host {
				verdict = "identical"
				for _, v := range append(sa.values, sb.values...) {
					if v != sa.values[0] {
						verdict = "CHANGED"
					}
				}
			}
			fmt.Fprintf(stdout, "  %-36s %14.6g %14.6g %+8.2f%%  %s\n", d.name, sa.med, sb.med, pct(sa.med, sb.med), verdict)
		}
	}
	if bad {
		return 1
	}
	return 0
}

// compareBounded renders one end-to-end metric's comparison and reports
// whether B regressed beyond the bound.
func compareBounded(d metricDef, sa, sb summary) (string, bool) {
	delta := pct(sa.med, sb.med)
	worse := delta / 100
	if d.better == "higher" {
		worse = -worse
	}
	spread := math.Max(sa.spread, sb.spread)
	verdict, regressed := "ok", false
	switch {
	case spread > d.bound:
		verdict = "unresolved"
	case worse > d.bound:
		verdict, regressed = "REGRESSION", true
	}
	return fmt.Sprintf("  %-36s %14.6g %14.6g %+8.2f%%  bound %4.1f%%  spread %5.1f%%  %s",
		d.name, sa.med, sb.med, delta, d.bound*100, spread*100, verdict), regressed
}

// pct is the change from a to b in percent of a.
func pct(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a) * 100
}
