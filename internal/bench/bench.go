// Package bench is the experiment harness: one runner per table/figure of
// the paper's evaluation (Section V), producing plain-text tables whose
// rows mirror the series the paper plots.
//
// Every table builds its simulated worlds through newWorld, drives them
// through run, and times steady-state loops with timedSteps, so the
// harness-wide fault plan and trace collector reach every world the same
// way and every world ends under the same leak oracles.
//
// All timings are virtual nanoseconds on the deterministic simulation
// clock. Because the simulation is deterministic, steady state is reached
// after the warmup iterations (which also warm the layout caches) and a
// handful of measured iterations suffices where the paper needed 500 on
// real hardware.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/rma"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
	"repro/internal/workload"
)

// collector, when non-nil, receives every RunBulk measurement's event
// timeline (one entry per world, labeled "<scheme>/<workload>/dim<N>").
// Nil keeps tracing disabled and the hot paths allocation-free.
var collector *timeline.Collector

// SetCollector installs (or, with nil, removes) the timeline collector
// that subsequent RunBulk calls feed. Not safe for concurrent use with
// RunBulk; the harness is single-threaded.
func SetCollector(c *timeline.Collector) { collector = c }

// faultPlan, when non-nil, is threaded into every world the harness builds
// so the whole experiment suite runs under deterministic fault injection
// (the ddtbench -faults flag). Recovery costs then show up in the Retrans
// column of the breakdowns.
var faultPlan *fault.Plan

// SetFaultPlan installs (or, with nil, removes) the fault plan applied to
// every subsequently built world, except where a table pins its own. Not
// safe for concurrent use; the harness is single-threaded.
func SetFaultPlan(p *fault.Plan) { faultPlan = p }

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Host marks, per Header column, the cells that measure the host
	// running the simulation (wall time, allocation) rather than the
	// modeled system. They differ run to run, so a compared table has
	// them blanked first.
	Host []bool
	// Corrupt holds the verification errors behind the table's CORRUPT
	// cells, each naming its first mismatching block. Render omits them.
	Corrupt []error
}

// hostColumns is the Host marker of header: true at each named column.
func hostColumns(header []string, names ...string) []bool {
	host := make([]bool, len(header))
	for i, h := range header {
		for _, n := range names {
			host[i] = host[i] || h == n
		}
	}
	return host
}

// Render writes tabs as ddtbench prints them. In text each table's
// String is followed by a blank line; in csv each table is its title as
// a comment line, its CSV and a blank line.
func Render(w io.Writer, format string, tabs []*Table) {
	for _, t := range tabs {
		if format == "csv" {
			fmt.Fprintf(w, "# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Fprintln(w, t.String())
		}
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// errRow is the row of a failed cell: its key columns, then the error,
// padded with empty cells to the header's width.
func (t *Table) errRow(err error, keys ...string) []string {
	row := append(keys, "ERROR: "+err.Error())
	for len(row) < len(t.Header) {
		row = append(row, "")
	}
	return row
}

// newWorld is the harness's one world builder. The MPI config starts from
// mpi.DefaultConfig, takes the harness-wide fault plan and, for a labeled
// world, the trace collector, and applies the table's own hook mut last —
// so a table that pins its own plan or timeline (chaos-scale's no-fault
// baseline, the rma figure's counting ring) wins.
func newWorld(spec cluster.Spec, factory mpi.SchemeFactory, mut func(*mpi.Config), label string) (*mpi.World, error) {
	c, err := cluster.Build(sim.NewEnv(), spec)
	if err != nil {
		return nil, err
	}
	traced := collector != nil && label != ""
	cfg := mpi.DefaultConfig()
	cfg.Faults = faultPlan
	if traced {
		cfg.Timeline = &timeline.Options{}
	}
	if mut != nil {
		mut(&cfg)
	}
	w := mpi.NewWorld(c, cfg, factory)
	if traced {
		collector.Add(label, w.Timeline())
	}
	return w, nil
}

// measure is one world run: virtual completion time, host wall time,
// bytes allocated over the run (hostRun only), and kernel launches summed
// over ranks.
type measure struct {
	virtNs  int64
	wall    time.Duration
	allocMB float64
	kernels int64
}

// cells renders the virt_ms, wall_ms, alloc_MB and kernels columns.
func (m measure) cells() []string {
	return []string{
		fmt.Sprintf("%.1f", float64(m.virtNs)/1e6),
		fmt.Sprintf("%.0f", float64(m.wall.Microseconds())/1000),
		fmt.Sprintf("%.1f", m.allocMB),
		fmt.Sprint(m.kernels),
	}
}

// run is the harness's one world runner. It drives body on every rank —
// the first body error wins — and times the run in host wall time. It
// then applies every leak oracle: no request, fused job, proc or lent
// staging byte may outlive the run, nor, when the rma fabric f is in use,
// any one-sided op. A broken oracle is an error, never a number.
func run(w *mpi.World, f *rma.Fabric, body func(r *mpi.Rank, p *sim.Proc) error) (measure, error) {
	var bodyErr error
	t0 := time.Now()
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if berr := body(r, p); berr != nil && bodyErr == nil {
			bodyErr = fmt.Errorf("rank %d: %w", r.ID(), berr)
		}
	})
	m := measure{wall: time.Since(t0), virtNs: w.Env.Now()}
	for i := 0; i < w.Size(); i++ {
		m.kernels += w.Rank(i).Dev.Stats.KernelLaunches
	}
	switch {
	case err != nil:
		return m, fmt.Errorf("bench: world run: %w", err)
	case bodyErr != nil:
		return m, bodyErr
	case w.LeakedRequests() != 0:
		return m, fmt.Errorf("bench: run leaked %d requests", w.LeakedRequests())
	case w.PendingFusedJobs() != 0:
		return m, fmt.Errorf("bench: run stranded %d fused jobs", w.PendingFusedJobs())
	case w.Env.LiveProcs() != 0:
		return m, fmt.Errorf("bench: run left %d live procs", w.Env.LiveProcs())
	case f != nil && f.PendingOps() != 0:
		return m, fmt.Errorf("bench: run left %d one-sided ops pending", f.PendingOps())
	case w.LiveStagingBytes() != 0:
		return m, fmt.Errorf("bench: run left %d staging bytes lent", w.LiveStagingBytes())
	}
	return m, nil
}

// hostRun is run for the tables with host columns (scale, chaos-scale):
// it also measures the bytes allocated over the run, after a GC. Both
// are process-wide, so the tables that do not print them skip them.
func hostRun(w *mpi.World, f *rma.Fabric, body func(r *mpi.Rank, p *sim.Proc) error) (measure, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := run(w, f, body)
	runtime.ReadMemStats(&after)
	m.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return m, err
}

// timedSteps is the steady-state loop every latency table shares: warmup
// then iters iterations of step, each between two world barriers, summing
// the calling rank's step time over the measured iterations. atWarm, when
// non-nil, runs as the first measured iteration begins, before its
// barrier. A failed step does not end the loop — every rank must reach
// every barrier — so the first error is returned after the last one.
func timedSteps(w *mpi.World, p *sim.Proc, warmup, iters int, atWarm func(), step func(it int) error) (int64, error) {
	var total int64
	var first error
	for it := 0; it < warmup+iters; it++ {
		if it == warmup && atWarm != nil {
			atWarm()
		}
		w.Barrier(p)
		t0 := p.Now()
		if err := step(it); err != nil && first == nil {
			first = fmt.Errorf("iteration %d: %w", it, err)
		}
		w.Barrier(p)
		if it >= warmup {
			total += p.Now() - t0
		}
	}
	return total, first
}

// BulkOptions parameterizes one bulk halo-exchange measurement: two ranks
// on different nodes exchange Buffers messages in each direction per
// iteration, the pattern of Figs. 9-14.
type BulkOptions struct {
	System   cluster.Spec
	Scheme   string
	Workload workload.Workload
	Dim      int
	Buffers  int
	// Iterations measured after Warmup iterations (defaults 3 and 2).
	Iterations int
	Warmup     int
	// MutateMPI tweaks the runtime config (protocol, IPC, ...).
	MutateMPI func(*mpi.Config)
	// FusionThreshold overrides the fusion flush threshold (0 = scheme
	// default); only Proposed and Proposed-Tuned take one (see
	// schemes.ThresholdFactory).
	FusionThreshold int64
	// IntraNode exchanges between two GPUs of one node instead.
	IntraNode bool
}

func (o *BulkOptions) defaults() {
	if o.Iterations <= 0 {
		o.Iterations = 3
	}
	if o.Warmup <= 0 {
		o.Warmup = 2
	}
	if o.Buffers <= 0 {
		o.Buffers = 16
	}
}

// BulkResult is one measurement.
type BulkResult struct {
	Scheme string
	// AvgNs is the mean per-iteration makespan of the whole bulk
	// exchange (post-warmup).
	AvgNs int64
	// Breakdown sums the two participating ranks' post-warmup cost
	// taxonomies (Fig. 11).
	Breakdown trace.Breakdown
	// MsgBytes is the per-message payload.
	MsgBytes int64
	// Blocks is the per-message contiguous-segment count.
	Blocks int
	// VerifyErr is non-nil if any received byte was wrong, or the run
	// failed or leaked.
	VerifyErr error
}

// RunBulk executes one measurement.
func RunBulk(opt BulkOptions) BulkResult {
	factory, err := schemes.ThresholdFactory(opt.Scheme, opt.FusionThreshold)
	if err != nil {
		return BulkResult{Scheme: opt.Scheme, VerifyErr: err}
	}
	return runBulk(opt, factory)
}

// runBulk is RunBulk with an explicit scheme factory, for ablation
// variants outside the schemes registry.
func runBulk(opt BulkOptions, factory mpi.SchemeFactory) BulkResult {
	opt.defaults()
	res := BulkResult{Scheme: opt.Scheme}
	label := fmt.Sprintf("%s/%s/dim%d", opt.Scheme, opt.Workload.Name, opt.Dim)
	if opt.FusionThreshold > 0 {
		label += fmt.Sprintf("/th%d", opt.FusionThreshold)
	}
	w, err := newWorld(opt.System, factory, opt.MutateMPI, label)
	if err != nil {
		res.VerifyErr = err
		return res
	}

	l := opt.Workload.Layout(opt.Dim)
	res.MsgBytes, res.Blocks = l.SizeBytes, l.NumBlocks()
	a, bPeer := 0, opt.System.GPUsPerNode // rank on node 0, rank on node 1
	if opt.IntraNode {
		bPeer = 1
	}
	nbuf := opt.Buffers

	type side struct{ s, r []*gpu.Buffer }
	mk := func(rk int) side {
		var sd side
		for i := 0; i < nbuf; i++ {
			sb := w.Rank(rk).Dev.Alloc(fmt.Sprintf("s%d-%d", rk, i), int(l.ExtentBytes))
			rb := w.Rank(rk).Dev.Alloc(fmt.Sprintf("r%d-%d", rk, i), int(l.ExtentBytes))
			workload.FillPattern(sb.Data, uint64(rk*1000+i))
			sd.s = append(sd.s, sb)
			sd.r = append(sd.r, rb)
		}
		return sd
	}
	sideA, sideB := mk(a), mk(bPeer)

	var total int64
	_, err = run(w, nil, func(r *mpi.Rank, p *sim.Proc) error {
		mine := r.ID() == a || r.ID() == bPeer
		sd, peer := sideA, bPeer
		if r.ID() == bPeer {
			sd, peer = sideB, a
		}
		t, err := timedSteps(w, p, opt.Warmup, opt.Iterations, func() {
			if mine {
				r.Trace.Reset()
				r.Timeline().Reset()
			}
		}, func(int) error {
			if !mine {
				return nil
			}
			reqs := make([]*mpi.Request, 0, 2*nbuf)
			for i := 0; i < nbuf; i++ {
				reqs = append(reqs, r.Irecv(p, peer, i, sd.r[i], l, 1))
			}
			for i := 0; i < nbuf; i++ {
				reqs = append(reqs, r.Isend(p, peer, i, sd.s[i], l, 1))
			}
			return r.Waitall(p, reqs)
		})
		if r.ID() == a {
			total = t
		}
		return err
	})
	if err != nil {
		res.VerifyErr = err
		return res
	}
	res.AvgNs = total / int64(opt.Iterations)
	res.Breakdown.Merge(w.Rank(a).Trace)
	res.Breakdown.Merge(w.Rank(bPeer).Trace)
	for i := 0; i < nbuf; i++ {
		if err := workload.VerifyBlocks(l, 1, sideA.s[i].Data, sideB.r[i].Data); err != nil {
			res.VerifyErr = fmt.Errorf("A->B buffer %d: %w", i, err)
			return res
		}
		if err := workload.VerifyBlocks(l, 1, sideB.s[i].Data, sideA.r[i].Data); err != nil {
			res.VerifyErr = fmt.Errorf("B->A buffer %d: %w", i, err)
			return res
		}
	}
	return res
}

// fmtUs renders nanoseconds as microseconds with 1 decimal.
func fmtUs(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1000) }
