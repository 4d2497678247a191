package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/rma"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// params selects the inputs and mode of one workload instance.
type params struct {
	seed  uint64
	ranks int  // world size; 0 selects the workload's full scale
	trace bool // build the world with a timeline recorder per rank
}

// spec is one named workload: how to build an instance, how long to warm
// it up and how many steps one instance serves.
type spec struct {
	name string
	why  string
	// warmup steps run on every new instance before measuring, so layout
	// caches, persistent windows and negotiated offsets are in steady
	// state.
	warmup int
	// perWorld bounds the measured steps of one instance; 0 keeps one
	// instance for the whole run. Device buffers that the program
	// allocates per operation are only released by Device.FreeAll, so a
	// workload whose engine keeps device state across steps is rebuilt
	// instead, before its heap grows large. A crash is permanent, so the
	// chaos workload builds a new instance for every step.
	perWorld int
	build    func(pr params, scheme string) (*instance, error)
}

// workloads is the benchmark's workload menu, in run order.
var workloads = []spec{
	{
		name:   "bulk-exact",
		why:    "real bytes on 2 Lassen nodes: datatype plans, pack, gpu copies and fusion do the work; payload and sim barely run",
		warmup: 2,
		build:  buildBulk,
	},
	{
		name:   "a2a-1024",
		why:    "1024 lazy ranks in a sparse hierarchical Alltoallw: payload span algebra, sim dispatch, coll schedule and mpi matching",
		warmup: 1,
		build:  buildA2A,
	},
	{
		name:     "rma-64",
		why:      "64 lazy ranks through put-based one-sided Allgatherv and Alltoallw: the rma verbs bypassed everywhere else",
		warmup:   2,
		perWorld: 10,
		build:    buildRMA,
	},
	{
		name:     "chaos-256",
		why:      "256 lazy ranks with a rank crash, ULFM shrink, checkpoint restore and retry: the reliable path and ckpt",
		perWorld: 1,
		build:    buildChaos,
	},
}

func findWorkload(name string) (*spec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Set-up spans, one per phase of a build.
const (
	spanCluster = iota
	spanWorld
	spanLayouts
	spanBuffers
	spanEngines
	spanCkpt
	numSpans
)

var spanNames = [numSpans]string{
	"setup.cluster_ms", "setup.world_ms", "setup.layouts_ms",
	"setup.buffers_ms", "setup.engines_ms", "setup.ckpt_ms",
}

// spanClock charges host time to consecutive set-up phases.
type spanClock struct {
	last time.Time
	d    [numSpans]time.Duration
}

func newSpanClock() *spanClock { return &spanClock{last: time.Now()} }

// mark charges the time since the previous mark to span s.
func (c *spanClock) mark(s int) {
	now := time.Now()
	c.d[s] += now.Sub(c.last)
	c.last = now
}

// instance is one built world, ready to run steps.
type instance struct {
	env   *sim.Env
	w     *mpi.World
	fab   *rma.Fabric // non-nil when the workload runs one-sided collectives
	spans [numSpans]time.Duration
	// ops is the number of operations one step attempts.
	ops int
	// body is one step: the per-rank function World.Run executes.
	body func(r *mpi.Rank, p *sim.Proc)
	// reset prepares a step outside the timer: it recreates or clears the
	// step's buffers, so every step starts from the same state and its
	// check sees only its own writes.
	reset func()
	// check verifies the last step's outputs and returns how many of its
	// ops failed, with the first failure.
	check func() (int, error)
	// virt is the modeled makespan of the last step (virtual ns).
	virt func() int64
	// shapeNs is the modeled time of each bulk shape in the last step.
	shapeNs []int64
	// ckptBytes is the logical size of the checkpoint taken at set-up.
	ckptBytes int64
}

// traceOpts is the timeline configuration of traced runs: a small ring per
// rank, because only the never-evicting Count and Sums are read.
func traceOpts() *timeline.Options { return &timeline.Options{Capacity: 64} }

// mix derives a fill stream from the run seed and a per-buffer key.
func mix(seed, key uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 ^ key
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// freeAll releases every device buffer of the world.
func freeAll(w *mpi.World) {
	for i := 0; i < w.Size(); i++ {
		w.Rank(i).Dev.FreeAll()
	}
}

// leaks runs the leak oracles after a step.
func (in *instance) leaks() error {
	if n := in.w.LeakedRequests(); n != 0 {
		return fmt.Errorf("%d leaked requests", n)
	}
	if n := in.w.PendingFusedJobs(); n != 0 {
		return fmt.Errorf("%d stranded fused jobs", n)
	}
	if in.fab != nil {
		if n := in.fab.PendingOps(); n != 0 {
			return fmt.Errorf("%d pending one-sided ops", n)
		}
	}
	if n := in.env.LiveProcs(); n != 0 {
		return fmt.Errorf("%d live procs", n)
	}
	return nil
}

// firstErr keeps the first non-nil error of a step.
type firstErr struct{ err error }

func (f *firstErr) set(err error) {
	if f.err == nil {
		f.err = err
	}
}

// --- bulk-exact ---

// bulkShape is one paper shape of the Fig. 12 pattern.
type bulkShape struct {
	w   workload.Workload
	dim int
}

var bulkShapes = []bulkShape{
	{workload.Specfem3DOC(), 48},
	{workload.Specfem3DCM(), 48},
	{workload.MILC(), 16},
	{workload.NASMG(), 128},
}

// bulkBuffers is the number of messages each side sends per shape.
const bulkBuffers = 16

// buildBulk builds the bulk exchange: two ranks on different Lassen nodes
// swap bulkBuffers messages of each paper shape per step, with real bytes.
func buildBulk(pr params, scheme string) (*instance, error) {
	clk := newSpanClock()
	env := sim.NewEnv()
	spec := cluster.Lassen()
	c, err := cluster.Build(env, spec)
	if err != nil {
		return nil, err
	}
	clk.mark(spanCluster)
	cfg := mpi.DefaultConfig()
	if pr.trace {
		cfg.Timeline = traceOpts()
	}
	w := mpi.NewWorld(c, cfg, schemes.Factory(scheme))
	clk.mark(spanWorld)
	layouts := make([]*datatype.Layout, len(bulkShapes))
	for k, s := range bulkShapes {
		if layouts[k], err = datatype.CommitE(s.w.Build(s.dim)); err != nil {
			return nil, err
		}
	}
	clk.mark(spanLayouts)
	ranks := [2]int{0, spec.GPUsPerNode} // one rank on each node
	var content [2][][][]byte            // send bytes: [side][shape][buffer]
	for s, rk := range ranks {
		content[s] = make([][][]byte, len(layouts))
		for k, l := range layouts {
			for i := 0; i < bulkBuffers; i++ {
				b := make([]byte, l.ExtentBytes)
				workload.FillPattern(b, mix(pr.seed, uint64(rk<<16|k<<8|i)))
				content[s][k] = append(content[s][k], b)
			}
		}
	}
	// alloc (re)creates the message buffers: send buffers holding the
	// content, receive buffers zeroed.
	var send, recv [2][][]*gpu.Buffer // [side][shape][buffer]
	alloc := func() {
		for s, rk := range ranks {
			dev := w.Rank(rk).Dev
			send[s], recv[s] = make([][]*gpu.Buffer, len(layouts)), make([][]*gpu.Buffer, len(layouts))
			for k, l := range layouts {
				for i := 0; i < bulkBuffers; i++ {
					b := dev.Alloc(fmt.Sprintf("s%d-%d-%d", rk, k, i), int(l.ExtentBytes))
					copy(b.Data, content[s][k][i])
					send[s][k] = append(send[s][k], b)
					recv[s][k] = append(recv[s][k], dev.Alloc(fmt.Sprintf("r%d-%d-%d", rk, k, i), int(l.ExtentBytes)))
				}
			}
		}
	}
	alloc()
	clk.mark(spanBuffers)

	in := &instance{env: env, w: w, ops: 2 * len(ranks) * bulkBuffers * len(layouts)}
	in.shapeNs = make([]int64, len(layouts))
	var reqs [2][][]*mpi.Request
	var fe firstErr
	in.reset = func() {
		// The runtime allocates a staging buffer per message and only
		// FreeAll releases device memory: free everything, then recreate
		// the message buffers.
		freeAll(w)
		alloc()
		fe = firstErr{}
		for s := range reqs {
			reqs[s] = make([][]*mpi.Request, len(layouts))
		}
	}
	in.body = func(r *mpi.Rank, p *sim.Proc) {
		s := -1
		switch r.ID() {
		case ranks[0]:
			s = 0
		case ranks[1]:
			s = 1
		}
		for k, l := range layouts {
			w.Barrier(p)
			t0 := p.Now()
			if s >= 0 {
				peer := ranks[1-s]
				q := make([]*mpi.Request, 0, 2*bulkBuffers)
				for i := 0; i < bulkBuffers; i++ {
					q = append(q, r.Irecv(p, peer, i, recv[s][k][i], l, 1))
				}
				for i := 0; i < bulkBuffers; i++ {
					q = append(q, r.Isend(p, peer, i, send[s][k][i], l, 1))
				}
				if err := r.Waitall(p, q); err != nil {
					fe.set(fmt.Errorf("rank %d %s: %w", r.ID(), bulkShapes[k].w.Name, err))
				}
				reqs[s][k] = q
			}
			w.Barrier(p)
			if s == 0 {
				in.shapeNs[k] = p.Now() - t0
			}
		}
	}
	in.check = func() (int, error) {
		failed := 0
		for s := range reqs {
			for k, l := range layouts {
				failed += 2*bulkBuffers - len(reqs[s][k]) // never posted
				for _, q := range reqs[s][k] {
					if q.Err() != nil || !q.Done() {
						failed++
					}
				}
				for i := 0; i < bulkBuffers; i++ {
					if err := workload.VerifyBlocks(l, 1, send[1-s][k][i].Data, recv[s][k][i].Data); err != nil {
						failed++
						fe.set(fmt.Errorf("%s buffer %d into rank %d: %w", bulkShapes[k].w.Name, i, ranks[s], err))
					}
				}
			}
		}
		return failed, fe.err
	}
	in.virt = func() int64 {
		var sum int64
		for _, ns := range in.shapeNs {
			sum += ns
		}
		return sum
	}
	clk.mark(spanEngines)
	in.spans = clk.d
	return in, nil
}

// --- lazy scale worlds ---

// scalePollNs is the progress-engine poll period of the lazy workloads,
// the same as the repository's scale figures: the 200 ns default would
// flood the event queue at hundreds of ranks.
const scalePollNs = 5000

// scaleNeighbors is the sparse Alltoallw degree: 8 wrap-around peers on
// each side.
const scaleNeighbors = 16

// buildScaleWorld builds a Lassen world of ranks/4 nodes in lazy-bytes
// mode with the scale poll period.
func buildScaleWorld(clk *spanClock, pr params, ranks int, scheme string, faults *fault.Plan) (*sim.Env, *mpi.World, error) {
	if ranks < 8 || ranks%4 != 0 {
		return nil, nil, fmt.Errorf("need ranks >= 8 divisible by 4, got %d", ranks)
	}
	env := sim.NewEnv()
	c, err := cluster.Build(env, cluster.Lassen().WithNodes(ranks/4))
	if err != nil {
		return nil, nil, err
	}
	for _, node := range c.Devices {
		for _, d := range node {
			d.LazyThreshold = 4096
		}
	}
	clk.mark(spanCluster)
	cfg := mpi.DefaultConfig()
	cfg.PollIntervalNs = scalePollNs
	cfg.Faults = faults
	if pr.trace {
		cfg.Timeline = traceOpts()
	}
	w := mpi.NewWorld(c, cfg, schemes.Factory(scheme))
	clk.mark(spanWorld)
	return env, w, nil
}

// legLayout is the per-leg datatype of the lazy collectives: a 32 KiB
// strided vector, above the eager limit.
func legLayout() (*datatype.Layout, error) {
	return datatype.CommitE(datatype.Vector(64, 64, 128, datatype.Float64))
}

// legSums caches the per-block checksums of sent legs, keyed by (sender,
// receiver): the senders' content is fixed for the life of an instance,
// so each leg is hashed once, not once per step.
type legSums map[[2]int][]uint64

// exact reports whether every block of a received leg carries the bytes of
// the sender's leg, comparing span-algebra checksums block by block.
func (c legSums) exact(key [2]int, l *datatype.Layout, got, sent *gpu.Buffer) bool {
	sums, ok := c[key]
	if !ok {
		for _, b := range l.Blocks {
			sums = append(sums, sent.ChecksumRange(b.Offset, b.Len))
		}
		c[key] = sums
	}
	for i, b := range l.Blocks {
		if got.ChecksumRange(b.Offset, b.Len) != sums[i] {
			return false
		}
	}
	return true
}

// sampleRanks are the ranks whose received data a lazy step verifies.
func sampleRanks(n int) []int { return []int{0, n / 2, n - 1} }

// zeroLazy clears a buffer's content in either payload mode.
func zeroLazy(b *gpu.Buffer) {
	if b.IsLazy() {
		b.Lazy.Zero(0, b.Lazy.Len())
		return
	}
	clear(b.Data)
}

// sparseOps builds the sparse wrap-around Alltoallw legs over n ranks:
// rank r exchanges one leg with each of its scaleNeighbors nearest peers;
// every other leg is empty.
func sparseOps(n int, dev func(r int) *gpu.Device, l *datatype.Layout, seed uint64, tag string) [][]coll.WOp {
	half := scaleNeighbors / 2
	ops := make([][]coll.WOp, n)
	for r := 0; r < n; r++ {
		d := dev(r)
		ops[r] = make([]coll.WOp, n)
		for k := 1; k <= half; k++ {
			for _, peer := range []int{(r + k) % n, (r - k + n) % n} {
				if ops[r][peer].SendBuf != nil {
					continue // small worlds: +k and -k can alias
				}
				sb := d.Alloc(fmt.Sprintf("%s-s-%d-%d", tag, r, peer), int(l.ExtentBytes))
				rb := d.Alloc(fmt.Sprintf("%s-r-%d-%d", tag, r, peer), int(l.ExtentBytes))
				sb.FillStream(mix(seed, uint64(r)<<32|uint64(peer)))
				ops[r][peer] = coll.WOp{SendBuf: sb, SendType: l, SendCount: 1, RecvBuf: rb, RecvType: l, RecvCount: 1}
			}
		}
	}
	return ops
}

// a2aExact checks rank r's received legs of an Alltoallw against the
// senders' legs.
func (c legSums) a2aExact(ops [][]coll.WOp, r int) bool {
	for peer, op := range ops[r] {
		if op.RecvBuf != nil && !c.exact([2]int{peer, r}, op.RecvType, op.RecvBuf, ops[peer][r].SendBuf) {
			return false
		}
	}
	return true
}

// --- a2a-1024 ---

// buildA2A builds one sparse hierarchical Alltoallw per rank per step on a
// persistent lazy world (the -fig scale shape).
func buildA2A(pr params, scheme string) (*instance, error) {
	ranks := pr.ranks
	if ranks == 0 {
		ranks = 1024
	}
	clk := newSpanClock()
	env, w, err := buildScaleWorld(clk, pr, ranks, scheme, nil)
	if err != nil {
		return nil, err
	}
	l, err := legLayout()
	if err != nil {
		return nil, err
	}
	clk.mark(spanLayouts)
	dev := func(r int) *gpu.Device { return w.Rank(r).Dev }
	ops := sparseOps(ranks, dev, l, pr.seed, "a2a")
	clk.mark(spanBuffers)
	e := coll.New(w, coll.Tuning{Alltoallw: coll.Hierarchical})
	clk.mark(spanEngines)

	in := &instance{env: env, w: w, ops: ranks, spans: clk.d}
	errs := make([]error, ranks)
	sums := legSums{}
	var v0 int64
	in.reset = func() {
		// Release the staging buffers of the previous step (see buildBulk)
		// and recreate the legs.
		freeAll(w)
		ops = sparseOps(ranks, dev, l, pr.seed, "a2a")
		clear(errs)
		v0 = env.Now()
	}
	in.body = func(r *mpi.Rank, p *sim.Proc) {
		errs[r.ID()] = e.Alltoallw(p, r, ops[r.ID()])
	}
	in.check = func() (int, error) {
		var fe firstErr
		failed := 0
		for r, err := range errs {
			if err != nil {
				failed++
				fe.set(fmt.Errorf("rank %d: %w", r, err))
			} else if contains(sampleRanks(ranks), r) && !sums.a2aExact(ops, r) {
				failed++
				fe.set(fmt.Errorf("rank %d: received leg differs from the sender's", r))
			}
		}
		return failed, fe.err
	}
	in.virt = func() int64 { return env.Now() - v0 }
	return in, nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// --- rma-64 ---

// rmaTuning selects the rma workload's put-based algorithms.
var rmaTuning = coll.Tuning{Allgatherv: coll.OneSidedRing, Alltoallw: coll.OneSidedBruck}

// buildRMA builds a put-based Allgatherv followed by a dense put-based
// Alltoallw per step, both on one engine over one one-sided fabric.
func buildRMA(pr params, scheme string) (*instance, error) {
	return buildRMAWith(pr, scheme, rmaTuning, true)
}

// buildRMAWith builds the rma workload with the given algorithms; withA2A
// false runs the Allgatherv alone, as the speed-up references do.
func buildRMAWith(pr params, scheme string, t coll.Tuning, withA2A bool) (*instance, error) {
	n := pr.ranks
	if n == 0 {
		n = 64
	}
	clk := newSpanClock()
	env, w, err := buildScaleWorld(clk, pr, n, scheme, nil)
	if err != nil {
		return nil, err
	}
	l, err := legLayout()
	if err != nil {
		return nil, err
	}
	clk.mark(spanLayouts)
	sends := make([]coll.VOp, n)
	recvs := make([][]coll.VOp, n)
	a2a := make([][]coll.WOp, n)
	for r := 0; r < n; r++ {
		dev := w.Rank(r).Dev
		sb := dev.Alloc(fmt.Sprintf("ag-s-%d", r), int(l.ExtentBytes))
		sb.FillStream(mix(pr.seed, uint64(r)))
		sends[r] = coll.VOp{Buf: sb, Type: l, Count: 1}
		recvs[r] = make([]coll.VOp, n)
		for src := 0; src < n; src++ {
			recvs[r][src] = coll.VOp{Buf: dev.Alloc(fmt.Sprintf("ag-r-%d-%d", r, src), int(l.ExtentBytes)), Type: l, Count: 1}
		}
		if !withA2A {
			continue
		}
		a2a[r] = make([]coll.WOp, n)
		for peer := 0; peer < n; peer++ {
			sb := dev.Alloc(fmt.Sprintf("a2a-s-%d-%d", r, peer), int(l.ExtentBytes))
			sb.FillStream(mix(pr.seed, uint64(1+r)<<32|uint64(peer)))
			rb := dev.Alloc(fmt.Sprintf("a2a-r-%d-%d", r, peer), int(l.ExtentBytes))
			a2a[r][peer] = coll.WOp{SendBuf: sb, SendType: l, SendCount: 1, RecvBuf: rb, RecvType: l, RecvCount: 1}
		}
	}
	clk.mark(spanBuffers)
	e := coll.New(w, t)
	f := rma.New(w)
	e.UseRMA(f)
	clk.mark(spanEngines)

	in := &instance{env: env, w: w, fab: f, ops: n, spans: clk.d}
	if withA2A {
		in.ops = 2 * n
	}
	sums := legSums{}
	agErr := make([]error, n)
	a2aErr := make([]error, n)
	var v0 int64
	in.reset = func() {
		for r := range recvs {
			for _, op := range recvs[r] {
				zeroLazy(op.Buf)
			}
			for _, op := range a2a[r] {
				zeroLazy(op.RecvBuf)
			}
		}
		clear(agErr)
		clear(a2aErr)
		v0 = env.Now()
	}
	in.body = func(r *mpi.Rank, p *sim.Proc) {
		me := r.ID()
		agErr[me] = e.Allgatherv(p, r, sends[me], recvs[me])
		if withA2A {
			a2aErr[me] = e.Alltoallw(p, r, a2a[me])
		}
	}
	in.check = func() (int, error) {
		var fe firstErr
		failed := 0
		sampled := sampleRanks(n)
		for r := 0; r < n; r++ {
			if err := agErr[r]; err != nil {
				failed++
				fe.set(fmt.Errorf("rank %d Allgatherv: %w", r, err))
			} else if contains(sampled, r) {
				for src, op := range recvs[r] {
					if !sums.exact([2]int{src, -1}, l, op.Buf, sends[src].Buf) {
						failed++
						fe.set(fmt.Errorf("rank %d Allgatherv: leg from %d differs", r, src))
						break
					}
				}
			}
			if !withA2A {
				continue
			}
			if err := a2aErr[r]; err != nil {
				failed++
				fe.set(fmt.Errorf("rank %d Alltoallw: %w", r, err))
			} else if contains(sampled, r) && !sums.a2aExact(a2a, r) {
				failed++
				fe.set(fmt.Errorf("rank %d Alltoallw: received leg differs from the sender's", r))
			}
		}
		return failed, fe.err
	}
	in.virt = func() int64 { return env.Now() - v0 }
	return in, nil
}

// --- chaos-256 ---

// chaosCrashSeed fixes the rank-crash preset draw: rank 2 dies at 27 us,
// inside the first Alltoallw. The run seed varies the fill streams only,
// so every seed recovers from the same failure.
const chaosCrashSeed = 1

// chaosHorizonNs bounds the loop that repeats the Alltoallw until the
// failure surfaces.
const chaosHorizonNs = 400_000

// chaosStateBytes is each rank's checkpointed state: far above the lazy
// threshold, so snapshots are span clones.
const chaosStateBytes = 1 << 20

// buildChaos builds a world doomed to lose one rank: the sparse Alltoallw
// legs, the contiguous retry legs for the survivor communicator, and a
// committed checkpoint of every rank's state.
func buildChaos(pr params, scheme string) (*instance, error) {
	n := pr.ranks
	if n == 0 {
		n = 256
	}
	plan, err := fault.Preset("rank-crash", chaosCrashSeed)
	if err != nil {
		return nil, err
	}
	clk := newSpanClock()
	env, w, err := buildScaleWorld(clk, pr, n, scheme, plan)
	if err != nil {
		return nil, err
	}
	l, err := legLayout()
	if err != nil {
		return nil, err
	}
	rl, err := datatype.CommitE(datatype.Contiguous(32<<10, datatype.Byte))
	if err != nil {
		return nil, err
	}
	clk.mark(spanLayouts)

	// The dead rank and the dense survivor re-rank are known from the plan.
	dead := -1
	for _, cr := range plan.Proc.Crashes {
		if cr.Rank < n {
			dead = cr.Rank
		}
	}
	if dead < 0 {
		return nil, errors.New("rank-crash plan kills no rank of this world")
	}
	nSurv := n - 1
	survivors := make([]int, 0, nSurv)
	for i := 0; i < n; i++ {
		if i != dead {
			survivors = append(survivors, i)
		}
	}
	ops := sparseOps(n, func(r int) *gpu.Device { return w.Rank(r).Dev }, l, pr.seed, "cx")
	retry := sparseOps(nSurv, func(cr int) *gpu.Device { return w.Rank(survivors[cr]).Dev }, rl, pr.seed^0xa5a5, "cr")
	state := make([]*gpu.Buffer, n)
	st := ckpt.NewStore(n)
	for r := 0; r < n; r++ {
		state[r] = w.Rank(r).Dev.Alloc(fmt.Sprintf("cx-st-%d", r), chaosStateBytes)
		state[r].FillStream(mix(pr.seed, 0xC0FFEE+uint64(r)))
		st.Register(r, state[r])
	}
	clk.mark(spanBuffers)
	e := coll.New(w, coll.Tuning{Alltoallw: coll.Hierarchical})
	clk.mark(spanEngines)
	ep := st.CaptureAll(env.Now(), 0)
	if !ep.Committed() {
		return nil, errors.New("checkpoint did not commit")
	}
	clk.mark(spanCkpt)

	in := &instance{env: env, w: w, ops: nSurv, spans: clk.d, ckptBytes: ep.Bytes}
	errs := make([]error, n)
	in.reset = func() {}
	in.body = func(r *mpi.Rank, p *sim.Proc) {
		me := r.ID()
		fail := func(err error) { errs[me] = err }
		var cerr error
		for cerr == nil && p.Now() < chaosHorizonNs {
			cerr = e.Alltoallw(p, r, ops[me])
		}
		if !errors.Is(cerr, mpi.ErrRankFailed) && !errors.Is(cerr, mpi.ErrCommRevoked) {
			fail(fmt.Errorf("expected a typed rank failure, got %v", cerr))
			return
		}
		wc := w.WorldComm()
		if _, aerr := wc.Agree(p, r, 0); aerr == nil {
			fail(errors.New("Agree did not surface the failure"))
			return
		}
		sub, serr := wc.Shrink(p, r)
		if serr != nil {
			fail(fmt.Errorf("shrink: %w", serr))
			return
		}
		cr := sub.CommRank(me)
		if sub.Size() != nSurv || cr < 0 || survivors[cr] != me {
			fail(fmt.Errorf("shrunken comm size=%d commRank=%d", sub.Size(), cr))
			return
		}
		// The crash invalidated in-progress work: roll the state back.
		st.MarkDead(dead)
		state[me].FillStream(0xBAD)
		if _, _, rerr := st.RestoreRank(me); rerr != nil {
			fail(fmt.Errorf("restore: %w", rerr))
			return
		}
		if rerr := e.Sub(sub).Alltoallw(p, r, retry[cr]); rerr != nil {
			fail(fmt.Errorf("retry on the survivor communicator: %w", rerr))
		}
	}
	in.check = func() (int, error) {
		var fe firstErr
		if got := w.CrashedRanks(); len(got) != 1 || got[0] != dead {
			return nSurv, fmt.Errorf("crashed ranks %v, plan kills %d", got, dead)
		}
		failed := 0
		for cr, me := range survivors {
			err := errs[me]
			if err == nil && contains(sampleRanks(nSurv), cr) {
				if !(legSums{}).a2aExact(retry, cr) {
					err = errors.New("retried leg differs from the sender's")
				} else if foldSum(state[me]) != ep.RankSum(me) {
					err = errors.New("state not rolled back to the checkpoint")
				}
			}
			if err != nil {
				failed++
				fe.set(fmt.Errorf("rank %d: %w", me, err))
			}
		}
		// The dead rank's snapshot survives on its buddy.
		adopted := w.Rank(st.Buddy(dead)).Dev.Alloc("cx-adopt", chaosStateBytes)
		if _, err := st.AdoptRank(st.Buddy(dead), dead, []*gpu.Buffer{adopted}); err != nil {
			fe.set(fmt.Errorf("buddy adoption: %w", err))
		} else if foldSum(adopted) != ep.RankSum(dead) {
			fe.set(fmt.Errorf("adopted state differs from rank %d's snapshot", dead))
		}
		return failed, fe.err
	}
	in.virt = func() int64 { return env.Now() }
	return in, nil
}

// foldSum folds one buffer's checksum the way ckpt.Epoch.RankSum folds a
// rank's single registered buffer.
func foldSum(b *gpu.Buffer) uint64 {
	h := uint64(14695981039346656037)
	h ^= b.Checksum()
	return h * 1099511628211
}
