// Package bench is the experiment harness: one runner per table/figure of
// the paper's evaluation (Section V), producing plain-text tables whose
// rows mirror the series the paper plots.
//
// All timings are virtual nanoseconds on the deterministic simulation
// clock. Because the simulation is deterministic, steady state is reached
// after the warmup iterations (which also warm the layout caches) and a
// handful of measured iterations suffices where the paper needed 500 on
// real hardware.
package bench

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/fusion"
	"repro/internal/gpu"
	"repro/internal/mpi"
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

// faultPlan, when non-nil, is threaded into every RunBulk world so the
// whole experiment suite runs under deterministic fault injection (the
// ddtbench -faults flag). Recovery costs then show up in the Retrans
// column of the breakdowns.
var faultPlan *fault.Plan

// SetFaultPlan installs (or, with nil, removes) the fault plan applied to
// subsequent RunBulk measurements. Not safe for concurrent use with
// RunBulk; the harness is single-threaded.
func SetFaultPlan(p *fault.Plan) { faultPlan = p }

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
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
	// default); only meaningful for the Proposed schemes.
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
	// VerifyErr is non-nil if any received byte was wrong.
	VerifyErr error
}

// factoryFor builds the scheme factory, honoring a threshold override.
func factoryFor(name string, threshold int64) mpi.SchemeFactory {
	if threshold > 0 {
		return func(r *mpi.Rank) mpi.Scheme {
			cfg := fusion.DefaultConfig()
			cfg.ThresholdBytes = threshold
			return schemes.NewFusionWith(r, cfg)
		}
	}
	return schemes.Factory(name)
}

// RunBulk executes one measurement.
func RunBulk(opt BulkOptions) BulkResult {
	opt.defaults()
	env := sim.NewEnv()
	cl := cluster.MustBuild(env, opt.System)
	cfg := mpi.DefaultConfig()
	if opt.MutateMPI != nil {
		opt.MutateMPI(&cfg)
	}
	if faultPlan != nil {
		cfg.Faults = faultPlan
	}
	if collector != nil {
		cfg.Timeline = &timeline.Options{}
	}
	w := mpi.NewWorld(cl, cfg, factoryFor(opt.Scheme, opt.FusionThreshold))
	if collector != nil {
		label := fmt.Sprintf("%s/%s/dim%d", opt.Scheme, opt.Workload.Name, opt.Dim)
		if opt.FusionThreshold > 0 {
			label += fmt.Sprintf("/th%d", opt.FusionThreshold)
		}
		collector.Add(label, w.Timeline())
	}

	l := opt.Workload.Layout(opt.Dim)
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

	res := BulkResult{Scheme: opt.Scheme, MsgBytes: l.SizeBytes, Blocks: l.NumBlocks()}
	var total int64
	var opErr error
	body := func(r *mpi.Rank, p *sim.Proc) {
		mine := r.ID() == a || r.ID() == bPeer
		var sd side
		var peer int
		if r.ID() == a {
			sd, peer = sideA, bPeer
		} else if r.ID() == bPeer {
			sd, peer = sideB, a
		}
		for it := 0; it < opt.Warmup+opt.Iterations; it++ {
			if it == opt.Warmup && mine {
				r.Trace.Reset()
				r.Timeline().Reset()
			}
			w.Barrier(p)
			t0 := p.Now()
			if mine {
				reqs := make([]*mpi.Request, 0, 2*nbuf)
				for i := 0; i < nbuf; i++ {
					reqs = append(reqs, r.Irecv(p, peer, i, sd.r[i], l, 1))
				}
				for i := 0; i < nbuf; i++ {
					reqs = append(reqs, r.Isend(p, peer, i, sd.s[i], l, 1))
				}
				if err := r.Waitall(p, reqs); err != nil && opErr == nil {
					opErr = fmt.Errorf("iteration %d: %w", it, err)
				}
			}
			w.Barrier(p)
			if r.ID() == a && it >= opt.Warmup {
				total += p.Now() - t0
			}
		}
	}
	if err := w.Run(body); err != nil {
		res.VerifyErr = err
		return res
	}
	if opErr != nil {
		res.VerifyErr = opErr
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
