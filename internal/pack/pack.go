// Package pack implements the datatype-processing engines that move
// non-contiguous GPU-resident data: GPU packing/unpacking kernels (one
// kernel per operation, or folded into fused kernels), the CPU GDRCopy
// path used by the CPU-GPU-Hybrid baseline, and DirectIPC — the zero-copy
// non-contiguous transfer over NVLink of Chu et al. (HiPC 2019) that the
// fusion framework supports as a third request operation.
//
// A Job carries both the cost-model inputs (bytes, segments) and the real
// buffers, so executing a job actually moves bytes. It is a 56-B value
// that points at its layout (a layoutcache.Shape, normally the cached
// entry's) instead of copying it; what only DirectIPC needs (the
// destination layout and the peer link) sits behind one pointer, Peer.
package pack

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/layoutcache"
	"repro/internal/payload"
	"repro/internal/sim"
)

// Op is the requested operation, matching the request types of the paper's
// Section IV-A1.
type Op uint8

const (
	// OpPack gathers a non-contiguous origin into a contiguous target.
	OpPack Op = iota
	// OpUnpack scatters a contiguous origin into a non-contiguous
	// target.
	OpUnpack
	// OpDirectIPC streams a non-contiguous origin directly into a
	// (possibly non-contiguous) peer-GPU target without staging.
	OpDirectIPC
)

func (o Op) String() string {
	switch o {
	case OpPack:
		return "Pack"
	case OpUnpack:
		return "Unpack"
	default:
		return "DirectIPC"
	}
}

// Job is one datatype-processing operation over real buffers: 56 B,
// passed and held by value (a fusion request-list entry holds its job
// inline). Its layout is a pointer to a shape: a layout-cache entry's for
// a job made by JobFor, its own for one made by NewJob.
type Job struct {
	Op Op
	// Origin and Target follow the request-object naming of the paper:
	// Origin is the buffer read, Target the buffer written.
	Origin, Target *gpu.Buffer
	// OriginOff/TargetOff shift the contiguous side (packed buffers are
	// often suballocated from a staging pool).
	OriginOff, TargetOff int64
	// Shape is the non-contiguous layout: the origin's for
	// OpPack/OpDirectIPC, the target's for OpUnpack. Exact pack and unpack
	// run its Plan and lazy buffers copy over the plan's canonical runs;
	// a shape without a plan (pipeline chunks, short receives, tests) is
	// walked block by block. Plans change host execution speed only:
	// Bytes/Segments/MaxBlock are the block-derived aggregates either way,
	// so kernel specs and virtual-time charges do not depend on Plan.
	*layoutcache.Shape
	// Peer is the destination side of an OpDirectIPC job and the link it
	// crosses; nil for pack and unpack, and for a DirectIPC job that
	// writes the origin's layout with no link floor.
	Peer *Peer
}

// Peer is what only a DirectIPC job needs: the destination layout and the
// GPU-GPU link its load/stores cross. It is 24 B, made only for DirectIPC
// legs.
type Peer struct {
	// Shape is the destination layout; nil means the job's own.
	Shape *layoutcache.Shape
	// BWBytesPerNs and LatencyNs describe the link; zero bandwidth puts no
	// floor under the kernel.
	BWBytesPerNs float64
	LatencyNs    int64
}

// JobFor builds a job over a layout-cache entry, pointing at the entry's
// shape for its blocks, aggregates and compiled plan.
func JobFor(op Op, origin, target *gpu.Buffer, e *layoutcache.Entry) Job {
	return Job{Op: op, Origin: origin, Target: target, Shape: &e.Shape}
}

// NewJob builds a job from a raw flattened block list, computing
// aggregates into a shape of its own.
func NewJob(op Op, origin, target *gpu.Buffer, blocks []datatype.Block) *Job {
	s := layoutcache.NewShape(blocks)
	return &Job{Op: op, Origin: origin, Target: target, Shape: &s}
}

// Execute performs the byte movement. It is designed to run when a kernel
// retires (scheduler context; see Handle) but is also usable directly for
// CPU-driven packing. When either buffer is lazy the copy goes through
// lazyCopyBlocks (span bookkeeping instead of real bytes); the byte-exact
// fast paths are untouched when both buffers are real. Execute only
// dispatches, so the lazy copy, which runs deep in the span algebra on a
// simulated rank's small stack, does not carry the exact paths' frame.
func (j *Job) Execute() {
	if j.Origin.IsLazy() || j.Target.IsLazy() {
		j.executeLazy()
		return
	}
	j.executeExact()
}

// Handle executes the job: a job is the work of the kernel that runs it
// (gpu.KernelSpec.Work), so a launch makes no closure.
func (j *Job) Handle() { j.Execute() }

// executeExact is Execute when both buffers hold real bytes.
func (j *Job) executeExact() {
	switch j.Op {
	case OpPack:
		if j.Plan != nil {
			j.Plan.Pack(j.Origin.Data, j.Target.Data[j.TargetOff:])
			return
		}
		gather(j.Origin.Data, j.Blocks, j.Target.Data[j.TargetOff:])
	case OpUnpack:
		if j.Plan != nil {
			j.Plan.Unpack(j.Origin.Data[j.OriginOff:], j.Target.Data)
			return
		}
		scatter(j.Origin.Data[j.OriginOff:], j.Target.Data, j.Blocks)
	case OpDirectIPC:
		copyBlocks(j.Origin.Data, j.Blocks, j.Target.Data, j.target().blocks)
	default:
		panic(fmt.Sprintf("pack: unknown op %d", j.Op))
	}
}

// executeLazy is Execute when either buffer is lazy. The non-contiguous
// sides carry their plans' runs, and the packed side of a pack or unpack
// is one run of j.Bytes.
func (j *Job) executeLazy() {
	var src, dst side
	switch j.Op {
	case OpPack:
		src, dst = planned(j.Blocks, j.Plan), packed(j.TargetOff, j.Bytes)
	case OpUnpack:
		src, dst = packed(j.OriginOff, j.Bytes), planned(j.Blocks, j.Plan)
	case OpDirectIPC:
		src, dst = planned(j.Blocks, j.Plan), j.target()
	default:
		panic(fmt.Sprintf("pack: unknown op %d", j.Op))
	}
	lazyCopyBlocks(j.Origin, &src, j.Target, &dst)
}

// target returns the destination side of a DirectIPC job: the Peer's
// layout, or the origin's when there is no Peer or its Shape is nil.
func (j *Job) target() side {
	if j.Peer == nil || j.Peer.Shape == nil {
		return planned(j.Blocks, j.Plan)
	}
	return planned(j.Peer.Shape.Blocks, j.Peer.Shape.Plan)
}

// side is one buffer's layout in a copy: its block list and, when a
// compiled plan describes that list, the plan's canonical runs (nil
// otherwise).
type side struct {
	blocks []datatype.Block
	runs   []datatype.Run
}

// planned returns the side of blocks, with plan's runs when plan is set.
func planned(blocks []datatype.Block, plan *datatype.Plan) side {
	s := side{blocks: blocks}
	if plan != nil {
		s.runs = plan.Canon.Runs
	}
	return s
}

// packed returns the packed side of a pack or unpack: one block, and one
// run, of n bytes at off.
func packed(off, n int64) side {
	return side{
		blocks: []datatype.Block{{Offset: off, Len: n}},
		runs:   []datatype.Run{{Offset: off, Len: n, Count: 1}},
	}
}

// gather packs src's blocks into contiguous dst.
func gather(src []byte, blocks []datatype.Block, dst []byte) {
	var w int64
	for _, b := range blocks {
		copy(dst[w:w+b.Len], src[b.Offset:b.Offset+b.Len])
		w += b.Len
	}
}

// scatter unpacks contiguous src into dst's blocks.
func scatter(src []byte, dst []byte, blocks []datatype.Block) {
	var r int64
	for _, b := range blocks {
		copy(dst[b.Offset:b.Offset+b.Len], src[r:r+b.Len])
		r += b.Len
	}
}

// copyBlocks streams srcBlocks of src into dstBlocks of dst; the two block
// lists must cover the same number of bytes but may be cut differently.
func copyBlocks(src []byte, srcBlocks []datatype.Block, dst []byte, dstBlocks []datatype.Block) {
	datatype.EachPiece(dstBlocks, srcBlocks, func(d, s, n int64) { copy(dst[d:d+n], src[s:s+n]) })
}

// lazyCopyBlocks is copyBlocks for when either side is a lazy buffer: one
// payload copy when both are lazy (copyContent), one payload WriteBlocks
// into a lazy destination from real bytes, and one gpu.CopyRange per piece
// from a lazy source into real bytes.
func lazyCopyBlocks(src *gpu.Buffer, s *side, dst *gpu.Buffer, d *side) {
	switch {
	case src.IsLazy() && dst.IsLazy():
		copyContent(dst.Lazy, d, src.Lazy, s)
	case dst.IsLazy():
		dst.Lazy.WriteBlocks(d.blocks, src.Data, s.blocks)
	default:
		datatype.EachPiece(d.blocks, s.blocks, func(dOff, sOff, n int64) { gpu.CopyRange(dst, dOff, src, sOff, n) })
	}
}

// copyContent copies s of content src over d of content dst: over the
// runs when both sides have them, so the work scales with stride runs,
// and over the block lists otherwise.
func copyContent(dst *payload.Content, d *side, src *payload.Content, s *side) {
	if d.runs != nil && s.runs != nil {
		dst.CopyRuns(d.runs, src, s.runs)
		return
	}
	dst.CopyBlocks(d.blocks, src, s.blocks)
}

// KernelSpec converts the job into a single-kernel launch description.
// The kernel keeps the job as its Work, so a job launched this way lives
// on the heap; a fused request's job is copied into its request-list
// entry instead.
func (j *Job) KernelSpec() gpu.KernelSpec {
	return gpu.KernelSpec{
		Name:            j.Op.String(),
		Bytes:           j.Bytes,
		Segments:        j.Segments,
		MaxSegmentBytes: j.MaxBlock,
		MinDurationNs:   j.ipcFloor(),
		Work:            j,
	}
}

// FusedWork is the job's cost as a fused-kernel request.
func (j *Job) FusedWork() gpu.FusedWork {
	return gpu.FusedWork{
		Bytes:           j.Bytes,
		Segments:        j.Segments,
		MaxSegmentBytes: j.MaxBlock,
		MinDurationNs:   j.ipcFloor(),
	}
}

// ipcFloor returns the GPU-GPU link crossing time for DirectIPC jobs.
func (j *Job) ipcFloor() int64 {
	if j.Op != OpDirectIPC || j.Peer == nil || j.Peer.BWBytesPerNs <= 0 {
		return 0
	}
	return j.Peer.LatencyNs + int64(float64(j.Bytes)/j.Peer.BWBytesPerNs)
}

// GPUEngine launches one kernel per job on a dedicated stream — the
// GPU-Sync / GPU-Async building block.
type GPUEngine struct {
	Stream *gpu.Stream
}

// Run launches the job's kernel; the caller pays launch overhead and
// receives the completion handle.
func (e *GPUEngine) Run(p *sim.Proc, j *Job) *gpu.Completion {
	return e.Stream.Launch(p, j.KernelSpec())
}

// CPUEngine packs/unpacks on the host CPU through a GDRCopy-style mapped
// window: the calling proc blocks for the whole operation (it IS the copy
// loop), but there is zero driver involvement — no launch, no sync.
type CPUEngine struct {
	Dev *gpu.Device
}

// CostNs models the CPU copy loop duration for a job.
func (e *CPUEngine) CostNs(j *Job) int64 {
	a := e.Dev.Arch
	return a.GdrCopyLatencyNs +
		int64(a.GdrSegmentFixedNs*float64(j.Segments)) +
		int64(float64(j.Bytes)/a.GdrCopyBWBytesPerNs)
}

// Run performs the job synchronously on the calling proc.
func (e *CPUEngine) Run(p *sim.Proc, j *Job) {
	p.Sleep(e.CostNs(j))
	j.Execute()
}
