package gpu

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/payload"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// Space says where a buffer's bytes live.
type Space int

const (
	// SpaceHost is pageable/pinned host memory.
	SpaceHost Space = iota
	// SpaceDevice is GPU global memory.
	SpaceDevice
)

func (s Space) String() string {
	if s == SpaceHost {
		return "host"
	}
	return "device"
}

// Buffer is a named span of simulated memory. In byte-exact mode (the
// default) Data is real: kernels and copy engines move bytes between
// buffers so correctness is observable. In lazy-bytes mode large buffers
// instead carry a payload.Content span algebra (Data is nil, Lazy is set):
// the same copies become O(spans) bookkeeping and correctness is observed
// through checksums, which match the byte-exact run exactly.
type Buffer struct {
	Name  string
	Space Space
	Data  []byte
	// Lazy, when non-nil, is the buffer's lazy-bytes representation; Data
	// is nil for the buffer's whole life unless Materialize is called.
	Lazy *payload.Content
	// Dev is the owning device for SpaceDevice buffers, nil for host.
	Dev *Device

	// Staging-pool bookkeeping (pool.go): whether the buffer is lent out
	// now, its pool list, and the pool generation it was lent in.
	lent bool
	key  poolKey
	gen  uint32
}

// Len returns the buffer length in bytes.
func (b *Buffer) Len() int {
	if b.Lazy != nil {
		return int(b.Lazy.Len())
	}
	return len(b.Data)
}

// IsLazy reports whether the buffer carries lazy-bytes content.
func (b *Buffer) IsLazy() bool { return b.Lazy != nil }

// Materialize converts a lazy buffer to real bytes in place and returns
// them; on a byte-exact buffer it just returns Data. It is the escape
// hatch for code that must address real bytes (size-table headers,
// reductions) regardless of payload mode.
func (b *Buffer) Materialize() []byte {
	if b.Lazy != nil {
		data := make([]byte, b.Lazy.Len())
		b.Lazy.ReadAt(data, 0)
		b.Data = data
		b.Lazy = nil
	}
	return b.Data
}

// FillStream sets the buffer's whole content to PRF stream `seed`,
// regardless of payload mode — the mode-independent way to seed test and
// benchmark data so exact and lazy runs see identical logical bytes.
func (b *Buffer) FillStream(seed uint64) {
	if b.Lazy != nil {
		b.Lazy.Fill(seed)
		return
	}
	payload.FillBytes(b.Data, seed)
}

// Checksum returns the FNV-1a 64 hash of the buffer's logical content,
// identical between a lazy buffer and a byte-exact buffer holding the same
// bytes.
func (b *Buffer) Checksum() uint64 {
	if b.Lazy != nil {
		return b.Lazy.Checksum()
	}
	return payload.Checksum(b.Data)
}

// ChecksumRange hashes buffer range [off, off+n) the same way Checksum
// hashes the whole buffer: FNV-1a over real bytes in exact mode, the
// composable span-algebra checksum in lazy mode — identical values for
// identical logical content, without ever materializing lazy payloads.
func (b *Buffer) ChecksumRange(off, n int64) uint64 {
	if b.Lazy != nil {
		return b.Lazy.ChecksumRange(off, n)
	}
	return payload.Checksum(b.Data[off : off+n])
}

// CopyRange copies n bytes from src at srcOff into dst at dstOff, handling
// every real/lazy combination. It is the single copy primitive the pack
// kernels and MPI runtime use once lazy mode is in play.
func CopyRange(dst *Buffer, dstOff int64, src *Buffer, srcOff, n int64) {
	if n == 0 {
		return
	}
	switch {
	case dst.Lazy != nil && src.Lazy != nil:
		dst.Lazy.CopyFrom(dstOff, src.Lazy, srcOff, n)
	case dst.Lazy != nil:
		dst.Lazy.WriteBytes(dstOff, src.Data[srcOff:srcOff+n])
	case src.Lazy != nil:
		src.Lazy.ReadAt(dst.Data[dstOff:dstOff+n], srcOff)
	default:
		copy(dst.Data[dstOff:dstOff+n], src.Data[srcOff:srcOff+n])
	}
}

// HostAlloc allocates a host buffer.
func HostAlloc(name string, n int) *Buffer {
	return &Buffer{Name: name, Space: SpaceHost, Data: make([]byte, n)}
}

// Stats counts device activity; all counters are monotonically increasing.
type Stats struct {
	KernelLaunches int64 // kernels launched (fused counts once)
	FusedKernels   int64 // fused launches (subset of KernelLaunches)
	FusedRequests  int64 // requests folded into fused kernels
	KernelBusyNs   int64 // GPU time spent in kernels
	LaunchCPUNs    int64 // CPU time burned in launch overhead
	MemcpyCalls    int64
	MemcpyBytes    int64
	EventRecords   int64
	EventQueries   int64
	StreamSyncs    int64
	BytesMoved     int64 // bytes moved by kernels
	SegmentsMoved  int64 // contiguous segments processed by kernels
	FailedLaunches int64 // transient launch failures injected by a fault plan
}

// Device is one simulated GPU.
type Device struct {
	Arch Arch
	// ID is unique within a cluster; Node is the owning node index.
	ID   int
	Node int
	// TL, when non-nil, receives machine-view timeline events (kernel and
	// copy occupancy per stream, sync waits).
	TL *timeline.Recorder
	// Faults, when non-nil, injects transient launch failures into the
	// fault-aware launch paths (LaunchE, LaunchFused). The plain Launch
	// and Submit never fail, so baseline schemes without a retry story keep
	// their fault-free semantics.
	Faults *fault.Site
	// LazyThreshold, when positive, switches allocations of at least that
	// many bytes to lazy-bytes content (see Buffer.Lazy). Zero keeps every
	// buffer byte-exact.
	LazyThreshold int64

	env   *sim.Env
	alloc int64
	names map[string]struct{}
	bufs  []*Buffer
	Stats Stats

	// The staging pool (pool.go): idle buffers by mode and size class,
	// their count, the bytes lent out, and the pool generation Close
	// advances so buffers lent before it cannot be given back after.
	idle  map[poolKey][]*Buffer
	nidle int
	lent  int64
	gen   uint32
}

// NewDevice creates a device with the given architecture on the simulation
// environment.
func NewDevice(env *sim.Env, arch Arch, id, node int) *Device {
	arch.Validate()
	return &Device{Arch: arch, ID: id, Node: node, env: env}
}

// Env returns the simulation environment the device is bound to.
func (d *Device) Env() *sim.Env { return d.env }

// Alloc allocates device global memory. It panics on a negative size or a
// duplicate buffer name; see AllocE for the error-returning variant.
func (d *Device) Alloc(name string, n int) *Buffer {
	b, err := d.AllocE(name, n)
	if err != nil {
		panic(err.Error())
	}
	return b
}

// AllocE allocates device global memory, returning an error (naming the
// device and buffer) on a negative size or a duplicate name. Zero-size
// buffers are legal: empty datatypes produce them.
func (d *Device) AllocE(name string, n int) (*Buffer, error) {
	if n < 0 {
		return nil, fmt.Errorf("gpu: negative allocation of %d bytes for buffer %q on device %d (node %d)",
			n, name, d.ID, d.Node)
	}
	if _, dup := d.names[name]; dup {
		return nil, fmt.Errorf("gpu: duplicate buffer name %q on device %d (node %d)",
			name, d.ID, d.Node)
	}
	if d.names == nil {
		d.names = make(map[string]struct{})
	}
	d.names[name] = struct{}{}
	d.alloc += int64(n)
	b := &Buffer{Name: name, Space: SpaceDevice, Dev: d}
	if d.LazyThreshold > 0 && int64(n) >= d.LazyThreshold {
		b.Lazy = payload.New(int64(n))
	} else {
		b.Data = make([]byte, n)
	}
	d.bufs = append(d.bufs, b)
	return b, nil
}

// FreeAll releases every buffer Alloc'ed on the device: backing storage is
// dropped and all names become available again. Buffers handed out earlier
// must not be used afterwards. Staging is runtime state, like the layout
// caches: lent buffers and the idle pool stay as they are (Close releases
// them too).
func (d *Device) FreeAll() {
	for _, b := range d.bufs {
		b.Data = nil
		b.Lazy = nil
	}
	d.bufs = nil
	d.names = nil
	d.alloc = 0
}

// AllocatedBytes reports the device memory Alloc'ed and not yet released
// by FreeAll; staging is counted by LiveBytes.
func (d *Device) AllocatedBytes() int64 { return d.alloc }

// NewStream creates an in-order execution queue on the device.
func (d *Device) NewStream(name string) *Stream {
	return &Stream{dev: d, name: name}
}

// Stream is an in-order work queue: kernels and async copies issued to the
// same stream execute back to back; distinct streams proceed concurrently
// (the model does not charge cross-stream contention beyond the shared
// memory-bandwidth floor inside each kernel).
type Stream struct {
	dev       *Device
	name      string
	busyUntil int64
	// durs is LaunchFused's scratch of per-request durations, reused by
	// every fused launch on the stream.
	durs []int64
}

// Completion describes one retired (or in-flight) stream operation. Its
// retirement is a flag set at End; an event exists only once a caller asks
// to wait (Event).
type Completion struct {
	// Start and End bound the operation's execution on the device.
	Start, End int64
	work       sim.Handler // the operation's data movement, run at End
	done       sim.Flag
	op         string
	stream     *Stream
}

// EventName names the completion event "<op>@<stream>" when it is read.
func (c *Completion) EventName() string { return c.op + "@" + c.stream.name }

// Done reports whether the operation has retired.
func (c *Completion) Done() bool { return c.done.Done() }

// Event returns an event that fires when the operation retires, made on
// the first call; asked for after retirement, it has already fired at End.
func (c *Completion) Event() *sim.Event { return c.done.Event(c.stream.dev.env, c) }

// Handle retires the operation: the event queue calls it at End. The
// operation's work moves its bytes first, then the flag is set.
func (c *Completion) Handle() {
	if w := c.work; w != nil {
		c.work = nil
		w.Handle()
	}
	c.done.Set(c.stream.dev.env)
}

// KernelSpec describes one packing/unpacking kernel to launch.
type KernelSpec struct {
	// Name is used for events and debugging.
	Name string
	// Bytes is the total payload the kernel moves.
	Bytes int64
	// Segments is the number of contiguous spans the payload is split
	// into; sparse layouts have thousands of tiny segments.
	Segments int
	// MaxSegmentBytes is the largest single contiguous span. Zero means
	// assume Bytes/Segments.
	MaxSegmentBytes int64
	// ThreadBlocks requests a specific grid size; zero sizes the grid to
	// one block per segment, capped at device residency.
	ThreadBlocks int
	// MinDurationNs floors the kernel's execution time; DirectIPC
	// kernels use it to model the GPU-GPU link their load/stores cross.
	MinDurationNs int64
	// Work performs the real data movement, typically the pack job
	// itself. Its Handle runs in scheduler context when the kernel
	// retires and must not block.
	Work sim.Handler
}

// chunk returns the intra-segment parallelization granularity.
func (a Arch) chunk() int64 {
	if a.ChunkBytes > 0 {
		return a.ChunkBytes
	}
	return 16 << 10
}

// workUnits is the number of independently schedulable pieces a payload
// splits into: at least one per contiguous segment, and large segments are
// chunked so a dense layout still fills the machine.
func (a Arch) workUnits(bytes int64, segments int) int {
	units := segments
	if byChunk := int((bytes + a.chunk() - 1) / a.chunk()); byChunk > units {
		units = byChunk
	}
	if units < 1 {
		units = 1
	}
	return units
}

// kernelCost returns the GPU-side execution time of a kernel processing
// `bytes` across `segments` spans with `blocks` concurrent thread blocks.
// The model is the max of three lower bounds:
//
//	bandwidth:  bytes / device memory bandwidth
//	work:       (per-segment fixed cost + streaming time) / parallelism
//	critical:   the largest single work unit at one block's bandwidth
//
// plus the fixed kernel startup.
func (a Arch) kernelCost(bytes int64, segments, blocks int, maxSeg int64) int64 {
	if bytes == 0 || segments == 0 {
		return a.KernelStartupNs
	}
	if blocks <= 0 {
		blocks = 1
	}
	if maxSeg <= 0 {
		maxSeg = bytes / int64(segments)
		if maxSeg == 0 {
			maxSeg = 1
		}
	}
	if maxSeg > a.chunk() {
		maxSeg = a.chunk() // large segments are chunked across blocks
	}
	bw := float64(bytes) / a.MemBWBytesPerNs
	work := (float64(segments)*a.SegmentFixedNs + float64(bytes)/a.BlockCopyBWBytesPerNs) / float64(blocks)
	crit := a.SegmentFixedNs + float64(maxSeg)/a.BlockCopyBWBytesPerNs
	return a.KernelStartupNs + int64(math.Ceil(math.Max(bw, math.Max(work, crit))))
}

// EstimateKernelNs exposes the kernel cost model (used by the fusion
// scheduler's flush heuristics and by tests).
func (d *Device) EstimateKernelNs(bytes int64, segments int, maxSeg int64) int64 {
	blocks := d.gridFor(bytes, segments, 0)
	return d.Arch.kernelCost(bytes, segments, blocks, maxSeg)
}

// gridFor sizes the grid: requested blocks if given, else one block per
// work unit, always within [1, MaxResidentBlocks].
func (d *Device) gridFor(bytes int64, segments, requested int) int {
	blocks := requested
	if blocks <= 0 {
		blocks = d.Arch.workUnits(bytes, segments)
	}
	if max := d.Arch.MaxResidentBlocks(); blocks > max {
		blocks = max
	}
	if blocks < 1 {
		blocks = 1
	}
	return blocks
}

// ErrLaunchFailed is the transient kernel-launch failure injected by a GPU
// fault plan; callers retry or degrade.
var ErrLaunchFailed = errors.New("gpu: transient kernel-launch failure")

// launchFault pays the driver overhead and rolls the device's launch-fault
// site when faultable. It reports an injected failure, which the caller
// records under the launch's name (the overhead is burned either way, as
// a rejected launch still makes the driver round trip).
func (s *Stream) launchFault(p *sim.Proc, faultable bool) (failed bool) {
	d := s.dev
	p.Sleep(d.Arch.LaunchOverheadNs)
	d.Stats.LaunchCPUNs += d.Arch.LaunchOverheadNs
	if faultable && d.Faults != nil && d.Faults.Roll(d.Faults.Plan().GPU.LaunchFailProb) {
		d.Stats.FailedLaunches++
		return true
	}
	return false
}

// Launch issues one kernel from proc p. The calling proc pays the driver
// launch overhead; the kernel then executes in stream order. Work runs when
// the kernel retires, and then the returned Completion is set.
func (s *Stream) Launch(p *sim.Proc, spec KernelSpec) *Completion {
	c, _ := s.launchWait(p, spec, false)
	return c
}

// LaunchE is Launch with transient-fault visibility: under a GPU fault plan
// the launch may fail with ErrLaunchFailed after burning the driver
// overhead, and the caller is expected to retry or fall back.
func (s *Stream) LaunchE(p *sim.Proc, spec KernelSpec) (*Completion, error) {
	return s.launchWait(p, spec, true)
}

// Submit is Launch for a kernel that nobody waits on: spec.Work, which
// must be set, is itself the queued retirement, so no Completion is made.
// It returns the kernel's start and end for the caller to charge.
func (s *Stream) Submit(p *sim.Proc, spec KernelSpec) (start, end int64) {
	start, end, _ = s.launch(p, spec, false)
	return start, end
}

// launchWait is launch with a Completion queued in spec.Work's place: it
// runs the work at End and then sets its flag.
func (s *Stream) launchWait(p *sim.Proc, spec KernelSpec, faultable bool) (*Completion, error) {
	c := &Completion{work: spec.Work, op: spec.Name, stream: s}
	spec.Work = c
	var err error
	if c.Start, c.End, err = s.launch(p, spec, faultable); err != nil {
		return nil, err
	}
	return c, nil
}

// launch is the one kernel-launch path: it pays the driver overhead, rolls
// the launch-fault site when faultable, and queues spec.Work at the
// kernel's end.
func (s *Stream) launch(p *sim.Proc, spec KernelSpec, faultable bool) (start, end int64, err error) {
	d := s.dev
	if s.launchFault(p, faultable) {
		d.Faults.Record(fault.LaunchFail, spec.Name)
		return 0, 0, ErrLaunchFailed
	}
	d.Stats.KernelLaunches++
	blocks := d.gridFor(spec.Bytes, spec.Segments, spec.ThreadBlocks)
	dur := d.Arch.kernelCost(spec.Bytes, spec.Segments, blocks, spec.MaxSegmentBytes)
	if dur < spec.MinDurationNs {
		dur = spec.MinDurationNs
	}
	start, end = s.enqueue(spec.Name, dur, spec.Bytes, spec.Segments, spec.Work)
	return start, end, nil
}

// enqueue places one operation of duration dur at the stream tail and
// queues its retirement h at the end.
func (s *Stream) enqueue(name string, dur, bytes int64, segments int, h sim.Handler) (start, end int64) {
	d := s.dev
	start = d.env.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	end = start + dur
	s.busyUntil = end
	d.Stats.KernelBusyNs += dur
	d.Stats.BytesMoved += bytes
	d.Stats.SegmentsMoved += int64(segments)
	if d.TL != nil {
		d.TL.Span(timeline.LayerGPU, timeline.CostNone, s.name, name, start, dur)
	}
	d.env.AtHandler(end, h)
	return start, end
}

// CopyKind distinguishes the path a cudaMemcpyAsync takes.
type CopyKind int

const (
	// CopyD2D stays in device memory.
	CopyD2D CopyKind = iota
	// CopyH2D crosses the CPU-GPU link into the device.
	CopyH2D
	// CopyD2H crosses the CPU-GPU link out of the device.
	CopyD2H
)

func (k CopyKind) String() string {
	switch k {
	case CopyD2D:
		return "D2D"
	case CopyH2D:
		return "H2D"
	default:
		return "D2H"
	}
}

// MemcpyAsync issues a copy-engine transfer on the stream. The calling proc
// pays the per-call driver overhead. Exec performs the real byte movement
// when the transfer retires.
func (s *Stream) MemcpyAsync(p *sim.Proc, kind CopyKind, bytes int64, exec func()) *Completion {
	d := s.dev
	p.Sleep(d.Arch.MemcpyAsyncOverheadNs)
	d.Stats.LaunchCPUNs += d.Arch.MemcpyAsyncOverheadNs
	d.Stats.MemcpyCalls++
	d.Stats.MemcpyBytes += bytes
	bw := d.Arch.MemBWBytesPerNs
	if kind != CopyD2D {
		bw = d.Arch.CPUGPULinkBWBytesPerNs
	}
	dur := d.Arch.CopyEngineLatencyNs + int64(math.Ceil(float64(bytes)/bw))
	c := &Completion{op: kind.opName(), stream: s}
	if exec != nil {
		c.work = sim.HandlerFunc(exec)
	}
	c.Start, c.End = s.enqueue(c.op, dur, bytes, 1, c)
	return c
}

// opName names a copy of this kind on its stream: memcpy-<kind>.
func (k CopyKind) opName() string {
	switch k {
	case CopyD2D:
		return "memcpy-D2D"
	case CopyH2D:
		return "memcpy-H2D"
	default:
		return "memcpy-D2H"
	}
}

// Event is a CUDA-event analogue: a marker recorded at a point in a stream.
type Event struct {
	dev *Device
	ev  *sim.Event
}

// Record places an event after all work currently enqueued on the stream.
// The calling proc pays the cudaEventRecord cost.
func (s *Stream) Record(p *sim.Proc, name string) *Event {
	d := s.dev
	p.Sleep(d.Arch.EventRecordNs)
	d.Stats.EventRecords++
	at := d.env.Now()
	if s.busyUntil > at {
		at = s.busyUntil
	}
	e := &Event{dev: d, ev: d.env.NewEvent("gpuev:" + name)}
	if at <= d.env.Now() {
		e.ev.Fire()
	} else {
		e.ev.FireAt(at)
	}
	return e
}

// Query polls the event (cudaEventQuery): the calling proc pays the query
// cost; the return value reflects the state after that cost.
func (e *Event) Query(p *sim.Proc) bool {
	p.Sleep(e.dev.Arch.EventQueryNs)
	e.dev.Stats.EventQueries++
	return e.ev.Fired()
}

// Synchronize blocks the proc until all work enqueued on the stream at call
// time retires (cudaStreamSynchronize).
func (s *Stream) Synchronize(p *sim.Proc) {
	d := s.dev
	p.Sleep(d.Arch.StreamSyncBaseNs)
	d.Stats.StreamSyncs++
	until := s.busyUntil
	if until <= d.env.Now() {
		return
	}
	if d.TL != nil {
		d.TL.Span(timeline.LayerGPU, timeline.CostNone, s.name, "sync-wait", d.env.Now(), until-d.env.Now())
	}
	ev := d.env.NewEvent("streamsync:" + s.name)
	ev.FireAt(until)
	p.Wait(ev)
}
