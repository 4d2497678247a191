package main

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/schemes"
	"repro/internal/trace"
)

// kind tells how a metric behaves across runs of the same code.
type kind int

const (
	host    kind = iota // host wall time or memory: noisy, compared against a bound
	modeled             // virtual time: repeats bit for bit
	count               // a counter read from the program: repeats bit for bit
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
	kind   kind
}

// endToEnd are the metrics of the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, host},
	{"step_ms.p50", "ms", "lower", 0.25, host},
	{"alloc_mb", "MiB", "lower", 0.02, host},
	{"live_mb", "MiB", "lower", 0.05, host},
}

// virtUnit marks modeled time: virtual microseconds of the simulated
// machine, not host time.
const virtUnit = "virt_us"

// stepRows are the per-step rows of the traced run: modeled time and
// counters, as the delta of one steady step (scale divides the raw value).
var stepRows = []struct {
	metricDef
	scale float64
}{
	{metricDef{"virt_us", virtUnit, "lower", 0, modeled}, 1e3},
	{metricDef{"sim.workers", "count", "lower", 0, count}, 1},
	{metricDef{"layoutcache.hits", "count", "higher", 0, count}, 1},
	{metricDef{"layoutcache.misses", "count", "lower", 0, count}, 1},
	{metricDef{"layoutcache.compiles", "count", "lower", 0, count}, 1},
	{metricDef{"gpu.launches", "count", "lower", 0, count}, 1},
	{metricDef{"gpu.fused_kernels", "count", "lower", 0, count}, 1},
	{metricDef{"gpu.fused_requests", "count", "higher", 0, count}, 1},
	{metricDef{"gpu.pack_virt_us", virtUnit, "lower", 0, modeled}, 1e3},
	{metricDef{"gpu.launch_virt_us", virtUnit, "lower", 0, modeled}, 1e3},
	{metricDef{"fabric.msgs", "count", "lower", 0, count}, 1},
	{metricDef{"fabric.bytes", "bytes", "lower", 0, count}, 1},
	{metricDef{"fabric.comm_virt_us", virtUnit, "lower", 0, modeled}, 1e3},
	{metricDef{"mpi.sync_events", "count", "lower", 0, count}, 1},
	{metricDef{"mpi.sync_virt_us", virtUnit, "lower", 0, modeled}, 1e3},
	{metricDef{"mpi.other_virt_us", virtUnit, "lower", 0, modeled}, 1e3},
	{metricDef{"mpi.recovery_virt_us", virtUnit, "lower", 0, modeled}, 1e3},
	{metricDef{"mpi.virt_us.specfem3D_oc", virtUnit, "lower", 0, modeled}, 1e3},
	{metricDef{"mpi.virt_us.specfem3D_cm", virtUnit, "lower", 0, modeled}, 1e3},
	{metricDef{"mpi.virt_us.MILC", virtUnit, "lower", 0, modeled}, 1e3},
	{metricDef{"mpi.virt_us.NAS_MG", virtUnit, "lower", 0, modeled}, 1e3},
	{metricDef{"fusion.flush_threshold", "count", "lower", 0, count}, 1},
	{metricDef{"fusion.flush_explicit", "count", "lower", 0, count}, 1},
	{metricDef{"fusion.flush_window", "count", "lower", 0, count}, 1},
	{metricDef{"fusion.max_batch", "count", "higher", 0, count}, 1},
	{metricDef{"fusion.sched_virt_us", virtUnit, "lower", 0, modeled}, 1e3},
	{metricDef{"rma.puts", "count", "lower", 0, count}, 1},
	{metricDef{"rma.packputs", "count", "lower", 0, count}, 1},
	{metricDef{"rma.doorbells", "count", "lower", 0, count}, 1},
	{metricDef{"rma.ctrl_puts", "count", "lower", 0, count}, 1},
	{metricDef{"rma.polls", "count", "lower", 0, count}, 1},
	{metricDef{"rma.bytes_put", "bytes", "lower", 0, count}, 1},
	{metricDef{"fault.retransmits", "count", "lower", 0, count}, 1},
	{metricDef{"fault.events", "count", "lower", 0, count}, 1},
	{metricDef{"fault.retrans_virt_us", virtUnit, "lower", 0, modeled}, 1e3},
}

// Rows of the traced run that are not per-step deltas.
var otherRows = []metricDef{
	{"schemes.gpu_sync_virt_us", virtUnit, "lower", 0, modeled},
	{"schemes.speedup_vs_gpu_sync", "x", "higher", 0, modeled},
	{"coll.ring_virt_us", virtUnit, "lower", 0, modeled},
	{"rma.speedup_vs_ring", "x", "higher", 0, modeled},
	{"ckpt.bytes", "bytes", "lower", 0, count},
	{"timeline.overhead_pct", "%", "lower", 0, host},
	{"verify_ms", "ms", "lower", 0, host},
}

// perLayer lists every metric of the traced run, in print order.
func perLayer() []metricDef {
	var out []metricDef
	for _, n := range spanNames {
		out = append(out, metricDef{n, "ms", "lower", 0, host})
	}
	for _, r := range stepRows {
		out = append(out, r.metricDef)
	}
	out = append(out, otherRows...)
	for _, m := range micros {
		out = append(out,
			metricDef{m.name, m.unit, "lower", 0, host},
			metricDef{m.allocsName(), "allocs", "lower", 0, host})
	}
	return out
}

// snapshot reads every cumulative counter a step row is the delta of, in
// raw units (virtual ns, counts, bytes).
func snapshot(in *instance) map[string]int64 {
	m := make(map[string]int64)
	w := in.w
	tl := w.Timeline()
	cat := make([]int64, trace.NumCategories())
	for i := 0; i < w.Size(); i++ {
		r := w.Rank(i)
		for _, c := range trace.Categories() {
			cat[c] += r.Trace.Get(c)
		}
		cs := r.CacheStats()
		m["layoutcache.hits"] += cs.Hits
		m["layoutcache.misses"] += cs.Misses
		m["layoutcache.compiles"] += cs.TotalCompiled()
		ds := r.Dev.Stats
		m["gpu.launches"] += ds.KernelLaunches
		m["gpu.fused_kernels"] += ds.FusedKernels
		m["gpu.fused_requests"] += ds.FusedRequests
		m["mpi.sync_events"] += tl.Rank(i).Count(trace.Sync)
		if f, ok := r.Scheme().(*schemes.Fusion); ok {
			fs := f.Sched.Stats
			m["fusion.flush_threshold"] += fs.ThresholdFlushes
			m["fusion.flush_explicit"] += fs.ExplicitFlushes
			m["fusion.flush_window"] += fs.WindowFlushes
		}
	}
	m["gpu.pack_virt_us"] = cat[trace.PackKernel]
	m["gpu.launch_virt_us"] = cat[trace.Launch]
	m["fusion.sched_virt_us"] = cat[trace.Scheduling]
	m["mpi.sync_virt_us"] = cat[trace.Sync]
	m["fabric.comm_virt_us"] = cat[trace.Comm]
	m["mpi.other_virt_us"] = cat[trace.Other]
	m["fault.retrans_virt_us"] = cat[trace.Retrans]
	m["mpi.recovery_virt_us"] = cat[trace.Recovery]
	m["fabric.msgs"] = w.Cluster.Net.TotalMessages()
	m["fabric.bytes"] = w.Cluster.Net.TotalBytes()
	if in.fab != nil {
		s := in.fab.TotalStats()
		m["rma.puts"] = s.Puts
		m["rma.packputs"] = s.PackPuts
		m["rma.doorbells"] = s.Doorbells
		m["rma.ctrl_puts"] = s.CtrlPuts
		m["rma.polls"] = s.Polls
		m["rma.bytes_put"] = s.BytesPut
	}
	m["fault.retransmits"] = w.Injector().Count(fault.Retransmit)
	m["fault.events"] = w.Injector().Total()
	_, _, workers := in.env.WorkerStats()
	m["sim.workers"] = int64(workers)
	return m
}

// maxBatch is the largest fused batch any rank has launched.
func maxBatch(w *mpi.World) int64 {
	var mb int64
	for i := 0; i < w.Size(); i++ {
		if f, ok := w.Rank(i).Scheme().(*schemes.Fusion); ok && int64(f.Sched.Stats.MaxBatch) > mb {
			mb = int64(f.Sched.Stats.MaxBatch)
		}
	}
	return mb
}

// stepDelta is the change of every step row over one step, with the
// step's modeled times filled in.
func stepDelta(in *instance, before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	d["virt_us"] = in.virt()
	d["fusion.max_batch"] = maxBatch(in.w)
	for k, ns := range in.shapeNs {
		d["mpi.virt_us."+bulkShapes[k].w.Name] = ns
	}
	return d
}

// --- references: the same shapes under a baseline, for the headline ratios ---

// steadyVirt builds an instance, runs warmup steps and returns the modeled
// time of the next one.
func steadyVirt(build func() (*instance, error), warmup int) (int64, error) {
	in, err := build()
	if err != nil {
		return 0, err
	}
	for i := 0; i <= warmup; i++ {
		in.reset()
		if err := in.w.Run(in.body); err != nil {
			return 0, err
		}
		if _, err := in.check(); err != nil {
			return 0, err
		}
	}
	return in.virt(), nil
}

// references computes the workload's baseline rows: a GPU-Sync bulk step
// on bulk-exact, the two-sided ring Allgatherv on rma-64. Other workloads
// have no baseline and report zeros.
func references(sp *spec, pr params, virtNs int64) (map[string]float64, error) {
	out := map[string]float64{}
	switch sp.name {
	case "bulk-exact":
		ns, err := steadyVirt(func() (*instance, error) { return buildBulk(pr, "GPU-Sync") }, sp.warmup)
		if err != nil {
			return nil, fmt.Errorf("GPU-Sync reference: %w", err)
		}
		out["schemes.gpu_sync_virt_us"] = float64(ns) / 1e3
		out["schemes.speedup_vs_gpu_sync"] = float64(ns) / float64(virtNs)
	case "rma-64":
		ring, err := steadyVirt(func() (*instance, error) {
			return buildRMAWith(pr, "Proposed-Tuned", coll.Tuning{Allgatherv: coll.Ring}, false)
		}, sp.warmup)
		if err != nil {
			return nil, fmt.Errorf("ring reference: %w", err)
		}
		one, err := steadyVirt(func() (*instance, error) {
			return buildRMAWith(pr, "Proposed-Tuned", coll.Tuning{Allgatherv: coll.OneSidedRing}, false)
		}, sp.warmup)
		if err != nil {
			return nil, fmt.Errorf("one-sided ring reference: %w", err)
		}
		out["coll.ring_virt_us"] = float64(ring) / 1e3
		out["rma.speedup_vs_ring"] = float64(ring) / float64(one)
	}
	return out, nil
}
