package conformance

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SpecSmall is the differential-run machine: Lassen trimmed to two GPUs
// per node (4 ranks), enough for both the intra-node DirectIPC path and
// the inter-node fabric path while keeping a full scheme sweep cheap.
func SpecSmall() cluster.Spec {
	s := cluster.Lassen()
	s.GPUsPerNode = 2
	return s
}

// SchemeNames lists every scheme the differential runner sweeps — all
// registered factories, so a newly added scheme is conformance-tested the
// moment it appears in schemes.Names().
func SchemeNames() []string { return schemes.Names() }

// bufSpan sizes a buffer holding count elements of l. ExtentBytes*count is
// not enough on its own: a Resized type may place payload beyond its
// declared extent, so take the max over actual block ends too.
func bufSpan(l *datatype.Layout, count int) int64 {
	span := l.ExtentBytes * int64(count)
	for _, b := range l.Repeat(count) {
		if end := b.Offset + b.Len; end > span {
			span = end
		}
	}
	if span < 1 {
		span = 1 // zero-payload types still need an allocatable buffer
	}
	return span
}

// Signature is the wire type signature of (layout, count): the sequence of
// contiguous block lengths in traversal order. All primitives are opaque
// bytes on the simulated wire, so equal signatures mean send and receive
// sides agree on the byte stream's shape.
func Signature(l *datatype.Layout, count int) []int64 {
	blocks := l.Repeat(count)
	sig := make([]int64, len(blocks))
	for i, b := range blocks {
		sig[i] = b.Len
	}
	return sig
}

// SameSignature reports whether two signatures carry identical byte
// streams: equal total length with block boundaries at the same cuts.
// (Coalescing means block granularity can legitimately differ between two
// types with the same stream; compare cumulative cuts, not raw lengths.)
func SameSignature(a, b []int64) bool {
	var ta, tb int64
	for _, v := range a {
		ta += v
	}
	for _, v := range b {
		tb += v
	}
	return ta == tb
}

// Result captures everything observable about one scenario run under one
// scheme: the final receive buffer, the final virtual clock, and the
// per-category trace totals summed across ranks. Under a fault plan it
// additionally carries the recovery observables the chaos suite asserts.
type Result struct {
	Scheme     string
	Recv       []byte
	FinalClock int64
	Trace      map[string]int64
	// RecvSum is the FNV-1a checksum of the receive buffer's logical
	// content, computed mode-independently — the observable the lazy
	// oracle compares against the byte-exact reference run.
	RecvSum uint64
	// Kernels and MovedBytes sum gpu.Stats.KernelLaunches/BytesMoved over
	// all devices: the lazy oracle requires the GPU-side work accounting
	// to match the exact run exactly.
	Kernels    int64
	MovedBytes int64
	// Plans sums the pack plans compiled into the ranks' layout caches.
	// Byte-exact pack/unpack jobs run those plans, so a nonzero count is
	// what makes an exact run's match against the block-list model a
	// check of the plans.
	Plans int64
	// LiveProcs counts simulation processes still unfinished after the
	// run (must be zero: the scheduler-side leak oracle).
	LiveProcs int
	// SendErr/RecvErr are the typed Waitall errors of the two endpoints
	// (nil on success; only ever non-nil under a fault plan).
	SendErr, RecvErr error
	// FaultEvents counts injected-fault/recovery events; Leaked counts
	// requests still registered in-flight after the run (must be zero).
	FaultEvents int
	Leaked      int
	// Retrans counts reliability-layer retransmissions (messages and RDMA
	// re-issues). The chaos differential requires it to be identical
	// between payload modes: fabric decisions are keyed by site name and
	// traffic order, never by payload representation.
	Retrans int64
	// PendingFused counts pack/unpack jobs still parked in live ranks'
	// fusion schedulers after the run — the error-path window-teardown
	// invariant: a collective or exchange that fails mid-phase must not
	// strand fused jobs (must be zero, fused schemes or not).
	PendingFused int
	// LiveStaging is the staging bytes still lent out on live ranks after
	// the run (mpi.World.LiveStagingBytes; must be zero).
	LiveStaging int64
}

// RunScenario executes sc once under the named scheme on SpecSmall, in
// byte-exact payload mode, and returns the observables. Rank 0 sends;
// rank 2 (inter-node) or rank 1 (intra-node) receives. On a sim error
// (e.g. the watchdog's StallError) the partially populated Result is
// returned alongside the error so chaos tests can still inspect the
// endpoint errors.
func RunScenario(sc Scenario, scheme string) (*Result, error) {
	return RunScenarioPayload(sc, scheme, false)
}

// RunScenarioPayload is RunScenario with a payload mode switch: lazy=false
// is RunScenario, lazy=true carries every buffer (threshold 1) through the
// lazy span algebra. Both modes fill the buffers with the same bytes from
// sc.Seed, so identical observables between the two are the lazy-vs-exact
// conformance oracle.
func RunScenarioPayload(sc Scenario, scheme string, lazy bool) (*Result, error) {
	env := sim.NewEnv()
	cl := cluster.MustBuild(env, SpecSmall())
	if lazy {
		// Threshold 1 puts even tiny buffers on the lazy path — maximal
		// coverage of the span algebra at conformance sizes.
		for _, node := range cl.Devices {
			for _, d := range node {
				d.LazyThreshold = 1
			}
		}
	}

	cfg := mpi.DefaultConfig()
	// Fuzzed scenarios can legitimately take hundreds of virtual ms under
	// the slowest baselines (e.g. NaiveMemcpy posting tens of thousands of
	// cudaMemcpyAsync calls); give them headroom past the default stall
	// guard without affecting how passing cases are timed. The watchdog
	// itself is the sim-level one armed by World.Run.
	cfg.StallTimeoutNs = 2 * sim.Second
	if sc.StallTimeoutNs != 0 {
		cfg.StallTimeoutNs = sc.StallTimeoutNs
	}
	cfg.Rendezvous = sc.Rendezvous
	if sc.EagerLimit != 0 {
		cfg.EagerLimitBytes = sc.EagerLimit
	}
	cfg.DisableIPC = sc.DisableIPC
	if sc.Pipeline {
		cfg.PipelineChunkBytes = 2048
	}
	cfg.Faults = sc.Faults

	world := mpi.NewWorld(cl, cfg, schemes.Factory(scheme))

	const src = 0
	dst := 2
	if sc.IntraNode {
		dst = 1
	}

	sbuf := world.Rank(src).Dev.Alloc("conf-send", int(bufSpan(sc.Send, sc.Count)))
	rbuf := world.Rank(dst).Dev.Alloc("conf-recv", int(bufSpan(sc.Recv, sc.Count)))
	sbuf.FillStream(sc.Seed)
	rbuf.FillStream(^sc.Seed)

	res := &Result{Scheme: scheme, Trace: make(map[string]int64)}
	err := world.Run(func(r *mpi.Rank, p *sim.Proc) {
		switch r.ID() {
		case src:
			q := r.Isend(p, dst, 7, sbuf, sc.Send, sc.Count)
			res.SendErr = r.Waitall(p, []*mpi.Request{q})
		case dst:
			q := r.Irecv(p, src, 7, rbuf, sc.Recv, sc.Count)
			res.RecvErr = r.Waitall(p, []*mpi.Request{q})
		}
	})
	res.RecvSum = rbuf.Checksum()
	res.Recv = append([]byte(nil), rbuf.Materialize()...)
	res.FinalClock = env.Now()
	res.LiveProcs = env.LiveProcs()
	res.FaultEvents = len(world.FaultEvents())
	res.Leaked = world.LeakedRequests()
	res.Retrans = world.Injector().Count(fault.Retransmit)
	res.PendingFused = world.PendingFusedJobs()
	res.LiveStaging = world.LiveStagingBytes()
	for i := 0; i < world.Size(); i++ {
		st := world.Rank(i).Dev.Stats
		res.Kernels += st.KernelLaunches
		res.MovedBytes += st.BytesMoved
		res.Plans += world.Rank(i).CacheStats().TotalCompiled()
	}
	if err != nil {
		return res, fmt.Errorf("scheme %s: %w", scheme, err)
	}
	if res.SendErr != nil {
		return res, fmt.Errorf("scheme %s: send: %w", scheme, res.SendErr)
	}
	if res.RecvErr != nil {
		return res, fmt.Errorf("scheme %s: recv: %w", scheme, res.RecvErr)
	}
	for i := 0; i < world.Size(); i++ {
		for _, c := range trace.Categories() {
			res.Trace[c.String()] += world.Rank(i).Trace.Get(c)
		}
	}
	return res, nil
}

// Expected computes the model receive buffer for sc with plain sequential
// code, independent of every engine under test: pack the send blocks into
// a wire stream, scatter the stream through the receive blocks into a
// buffer pre-filled exactly like the real run's. Bytes no scheme should
// touch are therefore compared too.
func Expected(sc Scenario) []byte {
	src := make([]byte, bufSpan(sc.Send, sc.Count))
	dst := make([]byte, bufSpan(sc.Recv, sc.Count))
	workload.FillPattern(src, sc.Seed)
	workload.FillPattern(dst, ^sc.Seed)

	var wire []byte
	for _, b := range sc.Send.Repeat(sc.Count) {
		wire = append(wire, src[b.Offset:b.Offset+b.Len]...)
	}
	var pos int64
	for _, b := range sc.Recv.Repeat(sc.Count) {
		copy(dst[b.Offset:b.Offset+b.Len], wire[pos:pos+b.Len])
		pos += b.Len
	}
	return dst
}

// Divergence reports the first byte at which two runs disagree.
type Divergence struct {
	SchemeA, SchemeB string
	Offset           int64
	A, B             byte
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("conformance: %s and %s diverge at recv offset %d (0x%02x vs 0x%02x)",
		d.SchemeA, d.SchemeB, d.Offset, d.A, d.B)
}

// firstDiff returns the first differing offset of a and b, or -1. A length
// mismatch diverges at the shorter length.
func firstDiff(a, b []byte) int64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return int64(i)
		}
	}
	if len(a) != len(b) {
		return int64(n)
	}
	return -1
}

func compare(nameA, nameB string, a, b []byte) error {
	if off := firstDiff(a, b); off >= 0 {
		var ba, bb byte
		if off < int64(len(a)) {
			ba = a[off]
		}
		if off < int64(len(b)) {
			bb = b[off]
		}
		return &Divergence{SchemeA: nameA, SchemeB: nameB, Offset: off, A: ba, B: bb}
	}
	return nil
}

// Differential runs sc under every scheme and asserts (1) the send and
// receive type signatures carry the same byte stream, (2) every scheme's
// receive buffer is byte-identical to the sequential model, and (3) all
// schemes agree with each other. The returned error names the first
// diverging (offset, scheme-pair).
func Differential(sc Scenario) error {
	if !SameSignature(Signature(sc.Send, sc.Count), Signature(sc.Recv, sc.Count)) {
		return fmt.Errorf("conformance: send/recv type signatures disagree (%d vs %d wire bytes)",
			sc.Send.SizeBytes*int64(sc.Count), sc.Recv.SizeBytes*int64(sc.Count))
	}
	want := Expected(sc)
	var first *Result
	for _, name := range SchemeNames() {
		res, err := RunScenario(sc, name)
		if err != nil {
			return err
		}
		if err := compare("model", name, want, res.Recv); err != nil {
			return err
		}
		if res.LiveStaging != 0 {
			return fmt.Errorf("conformance: %s run left %d staging bytes lent", name, res.LiveStaging)
		}
		if first == nil {
			first = res
		} else if err := compare(first.Scheme, name, first.Recv, res.Recv); err != nil {
			return err
		}
	}
	return nil
}

// LazyDifferential runs sc under one scheme twice — byte-exact and
// lazy-bytes, both PRF-seeded from the same scenario seed — and asserts
// the two runs are observationally identical: same receive checksum and
// bytes, same final virtual clock, same per-category trace totals, same
// GPU work accounting, and zero leaks on both sides. This is the oracle
// that licenses running at scales where byte-exact mode is unaffordable.
// The exact run packs through compiled plans and the lazy run walks the
// entry's block list, so it also pins every plan against its block list.
func LazyDifferential(sc Scenario, scheme string) error {
	exact, err := RunScenarioPayload(sc, scheme, false)
	if err != nil {
		return fmt.Errorf("exact: %w", err)
	}
	lazy, err := RunScenarioPayload(sc, scheme, true)
	if err != nil {
		return fmt.Errorf("lazy: %w", err)
	}
	if exact.RecvSum != lazy.RecvSum {
		return fmt.Errorf("conformance: %s lazy recv checksum %#x != exact %#x", scheme, lazy.RecvSum, exact.RecvSum)
	}
	if err := compare(scheme+"/exact", scheme+"/lazy", exact.Recv, lazy.Recv); err != nil {
		return err
	}
	if exact.FinalClock != lazy.FinalClock {
		return fmt.Errorf("conformance: %s lazy final clock %d ns != exact %d ns", scheme, lazy.FinalClock, exact.FinalClock)
	}
	for cat, ns := range exact.Trace {
		if lazy.Trace[cat] != ns {
			return fmt.Errorf("conformance: %s lazy trace[%s] %d ns != exact %d ns", scheme, cat, lazy.Trace[cat], ns)
		}
	}
	if exact.Kernels != lazy.Kernels || exact.MovedBytes != lazy.MovedBytes {
		return fmt.Errorf("conformance: %s lazy GPU accounting (kernels=%d bytes=%d) != exact (kernels=%d bytes=%d)",
			scheme, lazy.Kernels, lazy.MovedBytes, exact.Kernels, exact.MovedBytes)
	}
	for _, r := range []*Result{exact, lazy} {
		if r.Leaked != 0 || r.PendingFused != 0 || r.LiveProcs != 0 || r.LiveStaging != 0 {
			return fmt.Errorf("conformance: %s %s run leaked state: requests=%d fused=%d procs=%d staging=%d",
				scheme, map[bool]string{false: "exact", true: "lazy"}[r == lazy], r.Leaked, r.PendingFused, r.LiveProcs, r.LiveStaging)
		}
	}
	return nil
}

// errText renders an endpoint error for cross-mode comparison ("" = nil).
// OpError strings carry ranks, tags, phases, and attempt counts but never
// payload bytes, so exact and lazy runs under the same fault plan must
// produce identical text.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// ChaosLazyDifferential runs sc — which must carry a fault plan — under
// one scheme in byte-exact and lazy payload modes and asserts the two
// chaos runs are observationally identical: same outcome (success, or the
// same typed endpoint errors text-for-text), same receive checksum, same
// final virtual clock, same fault-event and retransmission counts, and
// zero leaked requests/fused jobs on both sides. Fabric drop/corrupt/dup
// decisions are keyed by site name and traffic order, never by payload
// representation, so any divergence is a payload-mode leak into the
// control flow — exactly the class of bug that would silently invalidate
// 1024-rank lazy chaos results.
func ChaosLazyDifferential(sc Scenario, scheme string) error {
	if sc.Faults == nil {
		return fmt.Errorf("conformance: ChaosLazyDifferential needs a fault plan")
	}
	exact, exactErr := RunScenarioPayload(sc, scheme, false)
	lazy, lazyErr := RunScenarioPayload(sc, scheme, true)
	if (exactErr == nil) != (lazyErr == nil) {
		return fmt.Errorf("conformance: %s chaos outcome differs: exact=%v lazy=%v", scheme, exactErr, lazyErr)
	}
	if errText(exact.SendErr) != errText(lazy.SendErr) {
		return fmt.Errorf("conformance: %s chaos send error differs:\n  exact: %v\n  lazy:  %v",
			scheme, exact.SendErr, lazy.SendErr)
	}
	if errText(exact.RecvErr) != errText(lazy.RecvErr) {
		return fmt.Errorf("conformance: %s chaos recv error differs:\n  exact: %v\n  lazy:  %v",
			scheme, exact.RecvErr, lazy.RecvErr)
	}
	if exact.RecvSum != lazy.RecvSum {
		return fmt.Errorf("conformance: %s chaos lazy recv checksum %#x != exact %#x", scheme, lazy.RecvSum, exact.RecvSum)
	}
	if exact.FinalClock != lazy.FinalClock {
		return fmt.Errorf("conformance: %s chaos lazy final clock %d ns != exact %d ns", scheme, lazy.FinalClock, exact.FinalClock)
	}
	if exact.FaultEvents != lazy.FaultEvents {
		return fmt.Errorf("conformance: %s chaos lazy fault events %d != exact %d", scheme, lazy.FaultEvents, exact.FaultEvents)
	}
	if exact.Retrans != lazy.Retrans {
		return fmt.Errorf("conformance: %s chaos lazy retransmissions %d != exact %d", scheme, lazy.Retrans, exact.Retrans)
	}
	if exact.Kernels != lazy.Kernels || exact.MovedBytes != lazy.MovedBytes {
		return fmt.Errorf("conformance: %s chaos lazy GPU accounting (kernels=%d bytes=%d) != exact (kernels=%d bytes=%d)",
			scheme, lazy.Kernels, lazy.MovedBytes, exact.Kernels, exact.MovedBytes)
	}
	for _, r := range []*Result{exact, lazy} {
		mode := map[bool]string{false: "exact", true: "lazy"}[r == lazy]
		if r.Leaked != 0 || r.PendingFused != 0 || r.LiveStaging != 0 {
			return fmt.Errorf("conformance: %s %s chaos run leaked state: requests=%d fused=%d staging=%d",
				scheme, mode, r.Leaked, r.PendingFused, r.LiveStaging)
		}
	}
	return nil
}

// CheckDeterminism runs sc twice under one scheme and asserts bit-identical
// observables: final sim clock, receive bytes, and per-category trace
// totals — the DESIGN §5 same-seed ⇒ same-timings invariant.
func CheckDeterminism(sc Scenario, scheme string) error {
	a, err := RunScenario(sc, scheme)
	if err != nil {
		return err
	}
	b, err := RunScenario(sc, scheme)
	if err != nil {
		return err
	}
	if a.FinalClock != b.FinalClock {
		return fmt.Errorf("conformance: %s nondeterministic final clock: %d vs %d ns",
			scheme, a.FinalClock, b.FinalClock)
	}
	if err := compare(scheme+"#1", scheme+"#2", a.Recv, b.Recv); err != nil {
		return err
	}
	for cat, ns := range a.Trace {
		if b.Trace[cat] != ns {
			return fmt.Errorf("conformance: %s nondeterministic trace[%s]: %d vs %d ns",
				scheme, cat, ns, b.Trace[cat])
		}
	}
	return nil
}
