// Package fusion implements the paper's primary contribution: a dynamic
// kernel-fusion framework for bulk non-contiguous data transfer (Section
// IV). It provides
//
//   - a request list whose entries carry a UID, the requested
//     operation (Pack / Unpack / DirectIPC), origin and target buffers, the
//     cached data layout, and separate request/response status words
//     (Section IV-A1);
//   - a scheduler with the four functions of Fig. 5 — ① enqueue requests
//     from the progress engine, ② launch a fused kernel with the pending
//     request array, ③ accept per-request completion signals written by
//     the GPU (no kernel-boundary synchronization), and ④ answer status
//     queries from the progress engine;
//   - flush policies implementing the design considerations of Section
//     IV-C: launch when the progress engine reaches a synchronization point
//     (explicit Flush), or when enough work has accumulated that the fused
//     kernel outweighs its launch overhead (bytes threshold).
package fusion

import (
	"fmt"
	"strconv"

	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/pack"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// Status is a request-list status word. The scheduler owns the request
// status; only the GPU (the fused kernel's completion path) writes the
// response status.
type Status uint8

const (
	// StatusIdle marks a free request-list entry.
	StatusIdle Status = iota
	// StatusPending marks an enqueued entry not yet in a fused kernel.
	StatusPending
	// StatusBusy marks an entry inside an in-flight fused kernel.
	StatusBusy
	// StatusCompleted marks a finished entry (response side).
	StatusCompleted
)

func (s Status) String() string {
	switch s {
	case StatusIdle:
		return "IDLE"
	case StatusPending:
		return "PENDING"
	case StatusBusy:
		return "BUSY"
	default:
		return "COMPLETED"
	}
}

// ErrQueueFull is the sentinel UID returned by Enqueue when the request
// list has no free entry; the progress engine must fall back (paper:
// "the UID can be a negative number to notify the progress engine").
const ErrQueueFull int64 = -1

// Config tunes the scheduler.
type Config struct {
	// QueueCapacity bounds the request list: at most this many requests
	// are enqueued and not yet released.
	QueueCapacity int
	// ThresholdBytes triggers a fused launch once pending payload
	// reaches it. The paper's heuristic lands around 512 KiB on both
	// evaluation systems; too low under-fuses (launch storms), too high
	// over-fuses (delayed communication, lost overlap).
	ThresholdBytes int64
}

// DefaultConfig mirrors the tuned settings used for "Proposed-Tuned".
func DefaultConfig() Config {
	return Config{
		QueueCapacity:  512,
		ThresholdBytes: 512 << 10,
	}
}

const (
	// enqueueCostNs and queryCostNs are the CPU costs of scheduler
	// interactions (the paper reports total scheduling overhead of at
	// most ~2 µs per message).
	enqueueCostNs = 350
	queryCostNs   = 60
	// launchRetries bounds retries of a failed (fused or unfused) kernel
	// launch under a GPU fault plan before the scheduler degrades — a
	// failed fused batch is re-issued as unfused per-request launches;
	// a request whose unfused launches also exhaust retries fails with a
	// typed error surfaced through Done. Irrelevant without fault
	// injection: launches then never fail.
	launchRetries = 3
	// entryBlock is how many request-list entries are made at a time: a
	// scheduler makes its first block up front and the next ones only as
	// enough requests are in flight together, up to QueueCapacity. Most
	// ranks of a sparse exchange never hold more than 16 at once.
	entryBlock = 16
)

// Stats counts scheduler activity.
type Stats struct {
	Enqueued         int64
	Rejected         int64 // queue-full fallbacks
	FusedLaunches    int64
	FusedRequests    int64
	ThresholdFlushes int64
	ExplicitFlushes  int64
	EmptyFlushes     int64
	WindowFlushes    int64 // launches triggered by CloseWindow
	HeldFlushes      int64 // flush triggers suppressed by an open window
	MaxBatch         int
	// Fault-recovery counters (all zero without a GPU fault plan).
	FailedLaunches    int64 // kernel launches that returned ErrLaunchFailed
	DegradedBatches   int64 // fused batches re-issued as unfused launches
	UnfusedRecoveries int64 // requests recovered by an unfused launch
	FailedRequests    int64 // requests that failed even unfused
}

// entry is one request-list slot, 128 B (TestEntrySize). It holds the
// request itself, as the paper's request list does: the job, copied in
// by Enqueue, points at its cached layout. It is its own fused-kernel
// request: its Handle is the request's completion.
type entry struct {
	next       *entry // next free entry while released; next of its run while busy
	s          *Scheduler
	uid        int64 // 0 while released
	job        pack.Job
	enqueuedAt int64
	reqStatus  Status
	respStatus Status
	slot       int32 // index in the request list; kept across reuse
	// done is set when the request completes or fails; its event is
	// made only by DoneEvent.
	done sim.Flag
	// err marks a permanently failed request (degraded launch also
	// exhausted its retries); surfaced through Done.
	err error
}

// Handle is ③ in Fig. 5, run when the request's cooperative group
// retires: the group moves the request's bytes, and its GPU thread
// signals completion by updating the response status — no CPU sync at
// the kernel boundary. A busy entry heads the run of requests chained
// through next that end at the same time (batch.Retire); Handle completes
// the run in index order.
func (e *entry) Handle() {
	for e != nil {
		next := e.next
		e.next = nil
		e.complete()
		e = next
	}
}

// complete retires the request alone.
func (e *entry) complete() {
	s := e.s
	e.job.Execute()
	e.respStatus = StatusCompleted
	e.done.Set(s.env)
	if s.tuner != nil && s.tuner.Record(e.done.At()-e.enqueuedAt, e.job.Bytes) {
		s.cfg.ThresholdBytes = s.tuner.Threshold()
	}
}

// Scheduler is the fusion scheduler of Fig. 5. One scheduler serves one
// GPU; in this implementation it runs on the caller's (progress engine's)
// proc, the common deployment the paper evaluates.
type Scheduler struct {
	env    *sim.Env
	dev    *gpu.Device
	stream *gpu.Stream
	cfg    Config

	free         *entry    // released entries, reused first
	blocks       [][]entry // the request list, made entryBlock slots at a time
	made         int       // entries made so far, at most cfg.QueueCapacity
	pending      []*entry  // insertion-ordered pending entries
	pendingBytes int64
	seq          int64 // requests enqueued so far; names the next one
	windows      int   // open collective-scope fusion windows (nest depth)
	launching    batch // the batch in a fused launch call, if any

	Stats Stats
	// Trace, if non-nil, accrues Scheduling/Launch/PackKernel costs.
	Trace *trace.Breakdown
	// TL, if non-nil, records fusion-layer timeline events (enqueues,
	// threshold trips, flushes, fused launches) mirroring every Trace charge.
	TL *timeline.Recorder
	// tuner, if set, adapts ThresholdBytes online from observed request
	// latencies (the model-based prediction of the paper's future work).
	tuner *AutoTuner
}

// EnableAutoTune attaches an online threshold tuner; the scheduler starts
// from the tuner's current recommendation.
func (s *Scheduler) EnableAutoTune(t *AutoTuner) {
	s.tuner = t
	s.cfg.ThresholdBytes = t.Threshold()
}

// NewScheduler builds a scheduler that launches fused kernels on the given
// stream of dev.
func NewScheduler(dev *gpu.Device, stream *gpu.Stream, cfg Config) *Scheduler {
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = DefaultConfig().QueueCapacity
	}
	s := &Scheduler{
		env:    dev.Env(),
		dev:    dev,
		stream: stream,
		cfg:    cfg,
	}
	s.grow()
	return s
}

// Config returns the active configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// PendingCount reports how many requests await fusion.
func (s *Scheduler) PendingCount() int { return len(s.pending) }

// seqOf is the sequence number of uid, which names the request. A UID is
// seq*QueueCapacity + slot, its enqueue sequence number (from 1) and its
// request-list slot: it addresses its entry, and the entry's uid tells a
// live request from a stale UID whose slot was released or reused.
func (s *Scheduler) seqOf(uid int64) int64 { return uid / int64(s.cfg.QueueCapacity) }

// lookup returns uid's live entry, or nil for a UID that is unknown or
// already released.
func (s *Scheduler) lookup(uid int64) *entry {
	if uid <= 0 {
		return nil
	}
	slot := int(uid % int64(s.cfg.QueueCapacity))
	if slot >= s.made {
		return nil
	}
	if e := &s.blocks[slot/entryBlock][slot%entryBlock]; e.uid == uid {
		return e
	}
	return nil
}

// seqName names the completion event of the request with that sequence
// number. It is captured when the event is made: a request-list entry is
// reused once released, so the name is never read from the entry.
type seqName int64

func (n seqName) EventName() string { return fmt.Sprintf("fusion-req-%d", int64(n)) }

// batch is the request list of one fused launch, which the kernel reads
// in place during the launch call (paper Section IV-A): request i is
// entries[i]. It names the kernel batch-<n>, the n-th launch.
type batch struct {
	entries []*entry
	n       int64
}

func (b *batch) EventName() string { return fmt.Sprintf("batch-%d", b.n) }

// Len implements gpu.FusedBatch.
func (b *batch) Len() int { return len(b.entries) }

// Work implements gpu.FusedBatch: request i's cost, read from its job.
func (b *batch) Work(i int) gpu.FusedWork { return b.entries[i].job.FusedWork() }

// Name implements gpu.FusedBatch: request i is req-<seq>.
func (b *batch) Name(i int) string {
	e := b.entries[i]
	return fmt.Sprintf("req-%d", e.s.seqOf(e.uid))
}

// Retire implements gpu.FusedBatch: it chains requests lo..hi-1 through
// next, which a busy entry does not use, and returns the first, whose
// Handle completes them in index order.
func (b *batch) Retire(lo, hi int) sim.Handler {
	run := b.entries[lo:hi]
	for i, e := range run[:len(run)-1] {
		e.next = run[i+1]
	}
	return run[0]
}

// Enqueue (① in Fig. 5) inserts a request for job and returns its UID, or
// ErrQueueFull when the request list is exhausted — the caller must then
// fall back to a non-fused path. The entry holds a copy of *job and
// Enqueue keeps no pointer to it, so the caller may reuse or edit job
// once Enqueue returns, and a job on the caller's stack stays there.
// Enqueue may trigger a fused launch when a flush policy fires (scenario
// 2 of Section IV-C); the launch overhead is charged to the calling proc,
// exactly like the real runtime.
func (s *Scheduler) Enqueue(p *sim.Proc, job *pack.Job) int64 {
	t0 := p.Now()
	p.Sleep(enqueueCostNs)
	s.addTraceAt(trace.Scheduling, "enqueue", t0, enqueueCostNs)
	e := s.freeEntry()
	if e == nil {
		s.Stats.Rejected++
		return ErrQueueFull
	}
	s.seq++
	*e = entry{
		s:          s,
		uid:        s.seq*int64(s.cfg.QueueCapacity) + int64(e.slot),
		job:        *job,
		reqStatus:  StatusPending,
		respStatus: StatusIdle,
		slot:       e.slot,
		enqueuedAt: s.env.Now(),
	}
	s.pending = append(s.pending, e)
	s.pendingBytes += job.Bytes
	s.Stats.Enqueued++

	if s.windows > 0 {
		// An open collective-scope window defers every flush policy: the
		// whole window's worth of requests launches as one fused kernel at
		// CloseWindow (the collective analogue of the paper's Algorithm 3
		// batching window).
		return e.uid
	}
	if s.cfg.ThresholdBytes > 0 && s.pendingBytes >= s.cfg.ThresholdBytes {
		s.Stats.ThresholdFlushes++
		if s.TL != nil {
			s.TL.Instant(timeline.LayerFusion, "", "threshold-trip", s.env.Now(),
				timeline.Arg{Key: "pending", Val: strconv.Itoa(len(s.pending))},
				timeline.Arg{Key: "bytes", Val: strconv.FormatInt(s.pendingBytes, 10)})
		}
		s.launch(p)
	}
	return e.uid
}

// Flush (② on demand) launches a fused kernel over everything pending. The
// progress engine calls it when it has no more operations to enqueue and
// reaches a synchronization point (scenario 1 of Section IV-C).
func (s *Scheduler) Flush(p *sim.Proc) {
	if s.windows > 0 {
		// A collective window is accumulating this batch; CloseWindow
		// will launch it.
		s.Stats.HeldFlushes++
		return
	}
	if len(s.pending) == 0 {
		s.Stats.EmptyFlushes++
		return
	}
	s.Stats.ExplicitFlushes++
	if s.TL != nil {
		s.TL.Instant(timeline.LayerFusion, "", "flush", s.env.Now(),
			timeline.Arg{Key: "pending", Val: strconv.Itoa(len(s.pending))},
			timeline.Arg{Key: "bytes", Val: strconv.FormatInt(s.pendingBytes, 10)})
	}
	s.launch(p)
}

// OpenWindow opens a collective-scope fusion window: every flush trigger —
// bytes threshold and explicit Flush — is deferred until the
// matching CloseWindow, which launches everything accumulated as a single
// fused kernel. The collective engine brackets each schedule phase (all
// peers' packs, then all peers' unpacks) with a window so per-message
// launches collapse into per-phase launches. Windows nest; only the
// outermost CloseWindow launches.
func (s *Scheduler) OpenWindow() {
	s.windows++
	if s.TL != nil {
		s.TL.Instant(timeline.LayerFusion, "", "window-open", s.env.Now(),
			timeline.Arg{Key: "depth", Val: strconv.Itoa(s.windows)})
	}
}

// CloseWindow closes the innermost window; closing the outermost one
// launches all pending requests as one fused kernel. Calling it with no
// open window is a no-op.
func (s *Scheduler) CloseWindow(p *sim.Proc) {
	if s.windows == 0 {
		return
	}
	s.windows--
	if s.windows > 0 {
		return
	}
	if len(s.pending) == 0 {
		return
	}
	s.Stats.WindowFlushes++
	if s.TL != nil {
		s.TL.Instant(timeline.LayerFusion, "", "window-close", s.env.Now(),
			timeline.Arg{Key: "pending", Val: strconv.Itoa(len(s.pending))},
			timeline.Arg{Key: "bytes", Val: strconv.FormatInt(s.pendingBytes, 10)})
	}
	s.launch(p)
}

// launch fuses all pending requests into a single kernel.
func (s *Scheduler) launch(p *sim.Proc) {
	b := &s.launching
	if b.entries != nil {
		b = new(batch) // another proc's launch is still in its driver call
	}
	b.entries = s.pending
	s.pending = nil
	s.pendingBytes = 0

	for _, e := range b.entries {
		e.reqStatus = StatusBusy
	}
	s.Stats.FusedLaunches++
	s.Stats.FusedRequests += int64(len(b.entries))
	if len(b.entries) > s.Stats.MaxBatch {
		s.Stats.MaxBatch = len(b.entries)
	}
	b.n = s.Stats.FusedLaunches
	var start, end int64
	for attempt := 0; ; attempt++ {
		t0 := s.env.Now()
		var err error
		start, end, err = s.stream.LaunchFused(p, b, b)
		if err == nil {
			break
		}
		// The failed launch still burned the driver overhead; charge
		// it to the recovery category.
		s.Stats.FailedLaunches++
		s.chargeRetrans("fused-relaunch", t0)
		if attempt >= launchRetries {
			batch := b.entries
			b.entries = nil
			s.degrade(p, batch)
			return
		}
	}
	s.addTraceAt(trace.Launch, "fused-launch", s.env.Now()-s.dev.Arch.LaunchOverheadNs, s.dev.Arch.LaunchOverheadNs)
	s.addTraceAt(trace.PackKernel, "fused-kernel", start, end-start)
	if s.pending == nil {
		s.pending = b.entries[:0] // the kernel is done reading the batch: the next one reuses the list
	}
	b.entries = nil
}

// degrade re-issues a persistently failing fused batch as unfused
// per-request launches — graceful degradation: the batch loses the fusion
// win but the transfers still happen. Each unfused launch itself retries
// under the fault plan; a request whose unfused launches also exhaust
// retries fails permanently with a typed error surfaced through Done.
func (s *Scheduler) degrade(p *sim.Proc, batch []*entry) {
	s.Stats.DegradedBatches++
	if s.dev.Faults != nil {
		s.dev.Faults.Recordf(fault.Fallback, "batch of %d re-issued unfused", len(batch))
	}
	if s.TL != nil {
		s.TL.Instant(timeline.LayerFault, "", "degrade-unfused", s.env.Now(),
			timeline.Arg{Key: "requests", Val: strconv.Itoa(len(batch))})
	}
	for _, e := range batch {
		e := e
		job := e.job // the unfused kernel keeps its own copy as Work
		var c *gpu.Completion
		var err error
		for attempt := 0; ; attempt++ {
			t0 := s.env.Now()
			c, err = s.stream.LaunchE(p, job.KernelSpec())
			if err == nil {
				break
			}
			s.Stats.FailedLaunches++
			s.chargeRetrans("unfused-relaunch", t0)
			if attempt >= launchRetries {
				break
			}
		}
		if err != nil {
			s.Stats.FailedRequests++
			e.err = fmt.Errorf("fusion: request %d: unfused fallback failed after %d attempts: %w",
				s.seqOf(e.uid), launchRetries+1, err)
			e.done.Set(s.env)
			continue
		}
		s.Stats.UnfusedRecoveries++
		s.addTraceAt(trace.Launch, "unfused-launch", s.env.Now()-s.dev.Arch.LaunchOverheadNs, s.dev.Arch.LaunchOverheadNs)
		s.addTraceAt(trace.PackKernel, "unfused-kernel", c.Start, c.End-c.Start)
		s.env.At(c.End, func() {
			e.respStatus = StatusCompleted
			e.done.Set(s.env)
		})
	}
}

// chargeRetrans accrues a failed-launch cost to trace.Retrans, mirrored as
// a fault-layer timeline span (reconciling with timeline sums).
func (s *Scheduler) chargeRetrans(name string, t0 int64) {
	d := s.env.Now() - t0
	if s.Trace == nil || d <= 0 {
		return
	}
	s.Trace.Add(trace.Retrans, d)
	if s.TL != nil {
		s.TL.Span(timeline.LayerFault, trace.Retrans, "", name, t0, d)
	}
}

// Done (④) answers a status query for uid: the scheduler compares the
// request status with the response status. A true return releases the
// request-list entry. Unknown UIDs (already released) report true. A
// non-nil error reports a permanently failed request (fused launch
// degraded and the unfused fallback also failed); the entry is released
// and the error is terminal.
func (s *Scheduler) Done(p *sim.Proc, uid int64) (bool, error) {
	t0 := p.Now()
	p.Sleep(queryCostNs)
	s.addTraceAt(trace.Scheduling, "query", t0, queryCostNs)
	e := s.lookup(uid)
	if e == nil {
		return true, nil
	}
	if e.err != nil {
		err := e.err
		s.release(e)
		return false, err
	}
	if e.respStatus == StatusCompleted {
		s.release(e)
		return true, nil
	}
	return false, nil
}

// DoneEvent returns an event that fires when uid's request completes, or
// nil if the UID is unknown (already released). The event is made on the
// first call; asked for after completion, it has already fired at the
// completion time. Waiting on the event does not release the entry; pair
// with Done or Release.
func (s *Scheduler) DoneEvent(uid int64) *sim.Event {
	e := s.lookup(uid)
	if e == nil {
		return nil
	}
	return e.done.Event(s.env, seqName(s.seqOf(uid)))
}

// SyncStream explicitly synchronizes the fused-kernel stream — the
// kernel-boundary synchronization the paper's design avoids; exposed for
// the ablation that reintroduces it.
func (s *Scheduler) SyncStream(p *sim.Proc) {
	s.stream.Synchronize(p)
}

// Release frees uid's entry without a status query (used after waiting on
// DoneEvent).
func (s *Scheduler) Release(uid int64) {
	if e := s.lookup(uid); e != nil {
		s.release(e)
	}
}

func (s *Scheduler) release(e *entry) {
	*e = entry{next: s.free, slot: e.slot}
	s.free = e
}

// freeEntry takes a released entry, or makes a block of them while the
// list is below QueueCapacity; nil means the list is full.
func (s *Scheduler) freeEntry() *entry {
	if s.free == nil {
		s.grow()
	}
	e := s.free
	if e != nil {
		s.free = e.next
		e.next = nil
	}
	return e
}

// grow makes the next block of entries, none once QueueCapacity are made,
// and puts them on the free list in order.
func (s *Scheduler) grow() {
	block := make([]entry, min(entryBlock, s.cfg.QueueCapacity-s.made))
	if len(block) == 0 {
		return
	}
	s.blocks = append(s.blocks, block)
	for i := len(block) - 1; i >= 0; i-- {
		block[i].slot = int32(s.made + i)
		block[i].next = s.free
		s.free = &block[i]
	}
	s.made += len(block)
}

// RequestLatency reports enqueue→completion time for a finished entry that
// has not been released yet; ok is false otherwise.
func (s *Scheduler) RequestLatency(uid int64) (int64, bool) {
	e := s.lookup(uid)
	if e == nil || e.respStatus != StatusCompleted {
		return 0, false
	}
	return e.done.At() - e.enqueuedAt, true
}

// addTraceAt accrues a cost to the Breakdown and mirrors it as a
// fusion-layer timeline span — the pairing that keeps timeline sums equal to
// the Breakdown.
func (s *Scheduler) addTraceAt(c trace.Category, name string, start, d int64) {
	if s.Trace != nil {
		s.Trace.Add(c, d)
		if s.TL != nil {
			s.TL.Span(timeline.LayerFusion, c, "", name, start, d)
		}
	}
}
