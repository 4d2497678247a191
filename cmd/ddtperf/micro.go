package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/fusion"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/pack"
	"repro/internal/payload"
	"repro/internal/rma"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Host micro rows time one layer's public function alone, on inputs shaped
// like the workloads' own: the per-stage half of the benchmark, beside the
// whole-pipeline steps.

// micro is one host micro benchmark. Its rows report host time and heap
// allocations per unit of work, such as one message or one KiB packed.
type micro struct {
	name string
	unit string
	// nsPer converts host ns into the row's unit (1e3 for us).
	nsPer float64
	// prep builds the inputs outside the timer and returns the timed op
	// with the units of work one op does.
	prep func(seed uint64) (op func() error, work float64, err error)
}

// allocsName names the allocations row of a micro benchmark.
func (m micro) allocsName() string { return m.name + ".allocs" }

// timeOp runs op repeatedly for at least budget and returns host ns and
// heap allocations per call.
func timeOp(op func() error, budget time.Duration) (ns, allocs float64, err error) {
	if err := op(); err != nil { // warm caches and lazy state
		return 0, 0, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, batch := 0, 1
	t0 := time.Now()
	for {
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		n += batch
		el := time.Since(t0)
		if el >= budget {
			runtime.ReadMemStats(&m1)
			return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
		}
		if el < budget/16 {
			batch *= 2
		}
	}
}

// runMicros times every micro row for budget each.
func runMicros(seed uint64, budget time.Duration) (map[string]float64, error) {
	out := make(map[string]float64, 2*len(micros))
	for _, m := range micros {
		op, work, err := m.prep(seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		ns, allocs, err := timeOp(op, budget)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		out[m.name] = ns / work / m.nsPer
		out[m.allocsName()] = allocs / work
	}
	return out, nil
}

// micros are the host micro rows, in print order.
var micros = []micro{
	{"sim.resume_ns", "ns", 1, func(uint64) (func() error, float64, error) {
		// 1024 procs x 16 Sleep(1): every Sleep is one resume.
		const procs, sleeps = 1024, 16
		return func() error {
			e := sim.NewEnv()
			for j := 0; j < procs; j++ {
				e.Spawn("p", func(p *sim.Proc) {
					for k := 0; k < sleeps; k++ {
						p.Sleep(1)
					}
				})
			}
			return e.Run()
		}, procs * sleeps, nil
	}},
	{"datatype.commit_us", "us", 1e3, func(uint64) (func() error, float64, error) {
		t := workload.Specfem3DOC().Build(48)
		return func() error { _, err := datatype.CommitE(t); return err }, 1, nil
	}},
	{"datatype.pack_sparse_ns_per_kb", "ns/KiB", 1, planPack(workload.Specfem3DCM(), 48)},
	{"datatype.pack_dense_ns_per_kb", "ns/KiB", 1, planPack(workload.NASMG(), 128)},
	{"datatype.pack_1mb_vector_us", "us", 1e3, func(uint64) (func() error, float64, error) {
		l, err := datatype.CommitE(datatype.Vector(1024, 128, 256, datatype.Float64))
		if err != nil {
			return nil, 0, err
		}
		src, dst := make([]byte, l.ExtentBytes), make([]byte, l.SizeBytes)
		return func() error { l.Pack(src, dst); return nil }, 1, nil
	}},
	{"pack.exact_job_us", "us", 1e3, func(seed uint64) (func() error, float64, error) {
		l, err := datatype.CommitE(workload.Specfem3DCM().Build(48))
		if err != nil {
			return nil, 0, err
		}
		return packJob(l, exactBuf(l.ExtentBytes, seed), exactBuf(l.SizeBytes, 0)), 1, nil
	}},
	{"pack.lazy_job_us", "us", 1e3, func(seed uint64) (func() error, float64, error) {
		l, err := legLayout()
		if err != nil {
			return nil, 0, err
		}
		return packJob(l, lazyBuf(l.ExtentBytes, seed), lazyBuf(l.SizeBytes, 0)), 1, nil
	}},
	{"payload.copy_ns", "ns", 1, func(seed uint64) (func() error, float64, error) {
		// 512 B copied into the middle of a 64-span content.
		dst := payload.New(64 << 10)
		for i := int64(0); i < 64; i++ {
			dst.FillRange(i<<10, 512, seed+uint64(i), 0)
		}
		src := payload.New(4 << 10)
		src.Fill(seed)
		return func() error { dst.CopyFrom(32<<10+256, src, 0, 512); return nil }, 1, nil
	}},
	{"payload.checksum_us_per_mb", "us/MiB", 1e3, func(seed uint64) (func() error, float64, error) {
		c := payload.New(1 << 20)
		c.Fill(seed)
		return func() error { c.Checksum(); return nil }, 1, nil
	}},
	{"gpu.copy_exact_ns_per_kb", "ns/KiB", 1, func(seed uint64) (func() error, float64, error) {
		src, dst := exactBuf(64<<10, seed), exactBuf(64<<10, 0)
		return func() error { gpu.CopyRange(dst, 0, src, 0, 64<<10); return nil }, 64, nil
	}},
	{"mpi.eager_msg_us", "us", 1e3, func(seed uint64) (func() error, float64, error) {
		l, err := eagerLayout()
		if err != nil {
			return nil, 0, err
		}
		return messages(twoRankWorld(false, nil), l, seed), msgBatch, nil
	}},
	{"mpi.rndv_msg_us", "us", 1e3, func(seed uint64) (func() error, float64, error) {
		l, err := datatype.CommitE(workload.Specfem3DCM().Build(48))
		if err != nil {
			return nil, 0, err
		}
		return messages(twoRankWorld(false, nil), l, seed), msgBatch, nil
	}},
	{"mpi.reliable_msg_us", "us", 1e3, func(seed uint64) (func() error, float64, error) {
		l, err := eagerLayout()
		if err != nil {
			return nil, 0, err
		}
		// An empty plan injects nothing but switches the reliability layer on.
		w := twoRankWorld(false, func(c *mpi.Config) { c.Faults = &fault.Plan{} })
		return messages(w, l, seed), msgBatch, nil
	}},
	{"fusion.enqueue_flush_us", "us", 1e3, func(seed uint64) (func() error, float64, error) {
		l, err := eagerLayout()
		if err != nil {
			return nil, 0, err
		}
		return enqueueFlush(l, 16, seed), 1, nil
	}},
	{"coll.alltoallw_hier_8rank_us", "us", 1e3, func(seed uint64) (func() error, float64, error) {
		l, err := legLayout()
		if err != nil {
			return nil, 0, err
		}
		_, w, err := buildScaleWorld(newSpanClock(), params{}, 8, "Proposed-Tuned", nil)
		if err != nil {
			return nil, 0, err
		}
		ops := sparseOps(8, func(r int) *gpu.Device { return w.Rank(r).Dev }, l, seed, "c8")
		e := coll.New(w, coll.Tuning{Alltoallw: coll.Hierarchical})
		return func() error {
			var fe firstErr
			if err := w.Run(func(r *mpi.Rank, p *sim.Proc) { fe.set(e.Alltoallw(p, r, ops[r.ID()])) }); err != nil {
				return err
			}
			return fe.err
		}, 1, nil
	}},
	{"rma.packput_us", "us", 1e3, func(seed uint64) (func() error, float64, error) {
		l, err := legLayout()
		if err != nil {
			return nil, 0, err
		}
		op, err := packPut(l, seed)
		return op, 1, err
	}},
	{"ckpt.capture_us_per_mb", "us/MiB", 1e3, func(seed uint64) (func() error, float64, error) {
		st := ckpt.NewStore(1)
		st.Register(0, lazyBuf(1<<20, seed))
		return func() error {
			if !st.CaptureAll(0, 0).Committed() {
				return errors.New("checkpoint did not commit")
			}
			return nil
		}, 1, nil
	}},
	{"ckpt.restore_us_per_mb", "us/MiB", 1e3, func(seed uint64) (func() error, float64, error) {
		st := ckpt.NewStore(1)
		st.Register(0, lazyBuf(1<<20, seed))
		if !st.CaptureAll(0, 0).Committed() {
			return nil, 0, errors.New("checkpoint did not commit")
		}
		return func() error { _, _, err := st.RestoreRank(0); return err }, 1, nil
	}},
}

// planPack times a compiled plan's host pack of one paper shape, per KiB
// packed.
func planPack(w workload.Workload, dim int) func(seed uint64) (func() error, float64, error) {
	return func(seed uint64) (func() error, float64, error) {
		l, err := datatype.CommitE(w.Build(dim))
		if err != nil {
			return nil, 0, err
		}
		p := datatype.CompilePlan(l.CanonicalForm())
		src := make([]byte, l.ExtentBytes)
		payload.FillBytes(src, seed)
		dst := make([]byte, l.SizeBytes)
		return func() error { p.Pack(src, dst); return nil }, float64(l.SizeBytes) / 1024, nil
	}
}

// packJob builds and executes one compiled pack job per op.
func packJob(l *datatype.Layout, src, dst *gpu.Buffer) func() error {
	plan := datatype.CompilePlan(l.CanonicalForm())
	return func() error {
		j := pack.NewJob(pack.OpPack, src, dst, l.Blocks)
		j.Plan = plan
		j.Execute()
		return nil
	}
}

// enqueueFlush returns an op that enqueues n pack jobs on a fusion
// scheduler, flushes, and waits for every job.
func enqueueFlush(l *datatype.Layout, n int, seed uint64) func() error {
	env := sim.NewEnv()
	dev := gpu.NewDevice(env, cluster.Lassen().GPU, 0, 0)
	s := fusion.NewScheduler(dev, dev.NewStream("fusion"), fusion.DefaultConfig())
	plan := datatype.CompilePlan(l.CanonicalForm())
	jobs := make([]*pack.Job, n)
	for i := range jobs {
		jobs[i] = pack.NewJob(pack.OpPack, exactBuf(l.ExtentBytes, seed+uint64(i)), exactBuf(l.SizeBytes, 0), l.Blocks)
		jobs[i].Plan = plan
	}
	return func() error {
		var fe firstErr
		env.Spawn("enqueue", func(p *sim.Proc) {
			uids := make([]int64, len(jobs))
			for i, j := range jobs {
				if uids[i] = s.Enqueue(p, j); uids[i] == fusion.ErrQueueFull {
					fe.set(errors.New("fusion queue full"))
					return
				}
			}
			s.Flush(p)
			for _, uid := range uids {
				if ev := s.DoneEvent(uid); ev != nil {
					p.Wait(ev)
				}
				if _, err := s.Done(p, uid); err != nil {
					fe.set(err)
				}
			}
		})
		if err := env.Run(); err != nil {
			return err
		}
		return fe.err
	}
}

// packPut returns an op that runs one fused PackPut of layout l from rank
// 0 into rank 1's window region, followed by Quiet.
func packPut(l *datatype.Layout, seed uint64) (func() error, error) {
	w := twoRankWorld(true, func(c *mpi.Config) { c.PollIntervalNs = scalePollNs })
	f := rma.New(w)
	win, err := f.AllocWindow("packput", 2*l.SizeBytes)
	if err != nil {
		return nil, err
	}
	src := w.Rank(0).Dev.Alloc("pp-src", int(l.ExtentBytes))
	src.FillStream(seed)
	return func() error {
		var fe firstErr
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			if r.ID() != 0 {
				return
			}
			ep := f.Endpoint(0)
			fe.set(ep.PackPut(p, win, 1, l.SizeBytes, src, l, 1, 0, nil, 0, 0, true))
			fe.set(ep.Quiet(p))
		})
		if err != nil {
			return err
		}
		return fe.err
	}, nil
}

// twoRankWorld builds a two-rank world, one rank on each of two Lassen
// nodes.
func twoRankWorld(lazy bool, mut func(*mpi.Config)) *mpi.World {
	spec := cluster.Lassen()
	spec.GPUsPerNode = 1
	env := sim.NewEnv()
	c := cluster.MustBuild(env, spec)
	if lazy {
		for _, node := range c.Devices {
			node[0].LazyThreshold = 4096
		}
	}
	cfg := mpi.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	return mpi.NewWorld(c, cfg, schemes.Factory("Proposed-Tuned"))
}

// msgBatch is the number of messages one timed two-rank run carries.
const msgBatch = 16

// messages returns an op that sends msgBatch messages of layout l from rank
// 0 to rank 1 in one World.Run.
func messages(w *mpi.World, l *datatype.Layout, seed uint64) func() error {
	var src, dst []*gpu.Buffer
	for i := 0; i < msgBatch; i++ {
		b := w.Rank(0).Dev.Alloc(fmt.Sprintf("m-s-%d", i), int(l.ExtentBytes))
		b.FillStream(mix(seed, uint64(i)))
		src = append(src, b)
		dst = append(dst, w.Rank(1).Dev.Alloc(fmt.Sprintf("m-r-%d", i), int(l.ExtentBytes)))
	}
	return func() error {
		var fe firstErr
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			q := make([]*mpi.Request, msgBatch)
			for i := range q {
				if r.ID() == 0 {
					q[i] = r.Isend(p, 1, i, src[i], l, 1)
				} else {
					q[i] = r.Irecv(p, 0, i, dst[i], l, 1)
				}
			}
			fe.set(r.Waitall(p, q))
		})
		if err != nil {
			return err
		}
		return fe.err
	}
}

// eagerLayout is an 8 KiB strided message, under the eager limit.
func eagerLayout() (*datatype.Layout, error) {
	return datatype.CommitE(datatype.Vector(16, 64, 128, datatype.Float64))
}

func lazyBuf(n int64, seed uint64) *gpu.Buffer {
	b := &gpu.Buffer{Name: "lazy", Lazy: payload.New(n)}
	b.FillStream(seed)
	return b
}

func exactBuf(n int64, seed uint64) *gpu.Buffer {
	b := gpu.HostAlloc("exact", int(n))
	b.FillStream(seed)
	return b
}
