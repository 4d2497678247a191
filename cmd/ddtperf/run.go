package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// options set the length of one run.
type options struct {
	seed    uint64
	ranks   int     // world size; 0 selects each workload's full scale
	seconds float64 // measuring window of one run
	// setupReps is how many builds setup_s takes the median of, on
	// workloads whose instances serve more than one step (the others
	// build one per step and take those).
	setupReps int
	// minSteps is the least number of measured steps per phase.
	minSteps int
	// settle is how long after its start a run measures no step.
	settle time.Duration
	// micro is the time budget of each host micro row; 0 skips them.
	micro time.Duration
}

func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// metric is one reported value with its sample count and quartiles.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// result is the report of one run: one workload, traced or not.
type result struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Error     string            `json:"error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		m[d.name] = d.unit
	}
	return m
}()

// add reports the median of samples, with their count and quartiles.
func (r *result) add(name string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	r.Metrics[name] = metric{Value: med, Unit: units[name], N: len(samples), Q1: q1, Q3: q3}
}

// set reports a single value.
func (r *result) set(name string, v float64) { r.add(name, []float64{v}) }

// quartiles returns the first quartile, the median and the third quartile
// of xs, with the quartiles computed like Python's
// statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// runner runs the steps of one workload and keeps what they report.
type runner struct {
	sp        *spec
	attempted int
	failed    int
	err       error
	builds    []float64           // set-up wall time of every build, s
	spans     [numSpans][]float64 // per-phase set-up time of every build, ms
	verify    []float64           // host time of every step's check, ms
	rows      map[string]int64    // step-row deltas summed over counted steps
	counted   int
}

func newRunner(sp *spec) *runner { return &runner{sp: sp, rows: map[string]int64{}} }

// build times one set-up of the workload, from cluster.Build to ready to
// run. GC runs before the timer starts.
func (rn *runner) build(pr params) (*instance, error) {
	runtime.GC()
	t0 := time.Now()
	in, err := rn.sp.build(pr, "Proposed-Tuned")
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", rn.sp.name, err)
	}
	rn.builds = append(rn.builds, time.Since(t0).Seconds())
	for s, d := range in.spans {
		rn.spans[s] = append(rn.spans[s], ms(d))
	}
	return in, nil
}

// step runs one step of in, timed around World.Run with GC forced before
// the timer, then verifies it outside the timer. With count set it also
// adds the step's per-layer deltas to the runner.
func (rn *runner) step(in *instance, count bool) (wall time.Duration, alloc uint64) {
	in.reset()
	var before map[string]int64
	if count {
		before = snapshot(in)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	runErr := in.w.Run(in.body)
	wall = time.Since(t0)
	runtime.ReadMemStats(&m1)

	v0 := time.Now()
	failed, err := in.check()
	if lerr := in.leaks(); lerr != nil {
		failed, err = in.ops, fmt.Errorf("leak: %w", lerr)
	}
	if runErr != nil {
		failed, err = in.ops, runErr
	}
	if err != nil && failed == 0 {
		failed = 1
	}
	rn.verify = append(rn.verify, ms(time.Since(v0)))
	rn.attempted += in.ops
	rn.failed += failed
	if rn.err == nil && err != nil {
		rn.err = fmt.Errorf("%s: %w", rn.sp.name, err)
	}
	if count {
		for k, v := range stepDelta(in, before, snapshot(in)) {
			rn.rows[k] += v
		}
		rn.counted++
	}
	return wall, m1.TotalAlloc - m0.TotalAlloc
}

// steps runs measured steps until the window has passed and at least min
// were measured; a workload with a per-instance bound stops only when its
// last instance is complete. Every instance runs its warm-up steps first,
// and steps that start less than settle after the call are not measured
// either: the process runs slower for its first seconds. steps builds an
// instance when in is nil and whenever one has served its bound. It
// returns the measured steps' wall times (ms) and allocation (MiB), and
// the last instance.
func (rn *runner) steps(in *instance, pr params, settle, window time.Duration, min int, count bool) (walls, allocs []float64, last *instance, err error) {
	begin := time.Now()
	var start time.Time // of the first measured step
	done := func() bool { return len(walls) >= min && time.Since(start) >= window }
	for {
		if in == nil {
			if in, err = rn.build(pr); err != nil {
				return nil, nil, nil, err
			}
		}
		for i := 0; i < rn.sp.warmup; i++ {
			rn.step(in, false)
		}
		for n := 0; rn.sp.perWorld == 0 || n < rn.sp.perWorld; n++ {
			measured := time.Since(begin) >= settle
			if measured && start.IsZero() {
				start = time.Now()
			}
			wall, alloc := rn.step(in, count && measured)
			if !measured {
				continue
			}
			walls = append(walls, ms(wall))
			allocs = append(allocs, mib(alloc))
			if rn.sp.perWorld == 0 && done() {
				return walls, allocs, in, nil
			}
		}
		if !start.IsZero() && done() {
			return walls, allocs, in, nil
		}
		in = nil // let the served instance go before the next build
	}
}

// newResult starts the report of a run.
func (rn *runner) newResult(trace int) *result {
	r := &result{Workload: rn.sp.name, Trace: trace, Attempted: rn.attempted, Failed: rn.failed, Metrics: map[string]metric{}}
	r.Correct = rn.failed == 0 && rn.err == nil
	if rn.err != nil {
		r.Error = rn.err.Error()
	}
	return r
}

// runEndToEnd is the untraced run: set-up time, step wall time,
// allocation and live heap.
func runEndToEnd(sp *spec, o options) (*result, error) {
	rn := newRunner(sp)
	pr := params{seed: o.seed, ranks: o.ranks}
	var in *instance
	if sp.perWorld != 1 { // one-step instances take their samples from the steps
		for i := 0; i < o.setupReps; i++ {
			in = nil
			var err error
			if in, err = rn.build(pr); err != nil {
				return nil, err
			}
		}
	}
	walls, allocs, in, err := rn.steps(in, pr, o.settle, o.window(), o.minSteps, false)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(in)

	setup := rn.builds
	if sp.perWorld != 1 {
		// The set-up builds only: rma-64's later rebuilds follow a
		// served world's memory churn.
		setup = setup[:o.setupReps]
	}
	res := rn.newResult(0)
	res.add("setup_s", setup)
	res.add("step_ms.p50", walls)
	res.add("alloc_mb", allocs)
	res.set("live_mb", mib(m.HeapAlloc))
	return res, nil
}

// runPerLayer is the traced run: untraced reference steps, traced steps
// whose per-layer deltas it reports, the workload's baseline references
// and the host micro rows.
func runPerLayer(sp *spec, o options) (*result, error) {
	rn := newRunner(sp)
	pr := params{seed: o.seed, ranks: o.ranks}
	half := o.window() / 2
	plain, _, _, err := rn.steps(nil, pr, o.settle, half, o.minSteps, false)
	if err != nil {
		return nil, err
	}
	tpr := pr
	tpr.trace = true
	traced, _, in, err := rn.steps(nil, tpr, 0, half, o.minSteps, true)
	if err != nil {
		return nil, err
	}
	refs, err := references(sp, pr, rn.rows["virt_us"]/int64(rn.counted))
	if err != nil {
		return nil, err
	}
	var micro map[string]float64
	if o.micro > 0 {
		if micro, err = runMicros(o.seed, o.micro); err != nil {
			return nil, err
		}
	}

	res := rn.newResult(1)
	for s, name := range spanNames {
		res.add(name, rn.spans[s])
	}
	for _, r := range stepRows {
		v := float64(rn.rows[r.name]) / float64(rn.counted) / r.scale
		res.Metrics[r.name] = metric{Value: v, Unit: r.unit, N: rn.counted, Q1: v, Q3: v}
	}
	for _, d := range otherRows {
		res.set(d.name, refs[d.name])
	}
	res.set("ckpt.bytes", float64(in.ckptBytes))
	res.set("timeline.overhead_pct", (median(traced)/median(plain)-1)*100)
	res.add("verify_ms", rn.verify)
	for name, v := range micro {
		res.set(name, v)
	}
	return res, nil
}
