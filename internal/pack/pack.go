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

// Execute performs the byte movement: one gpu.CopyLayout from the origin
// to the target, whatever their payload modes. It is designed to run when
// a kernel retires (scheduler context; see Handle) but is also usable
// directly for CPU-driven packing.
func (j *Job) Execute() {
	switch j.Op {
	case OpPack:
		gpu.CopyLayout(j.Target, gpu.Contig(j.TargetOff, j.Bytes), j.Origin, layout(j.Shape))
	case OpUnpack:
		gpu.CopyLayout(j.Target, layout(j.Shape), j.Origin, gpu.Contig(j.OriginOff, j.Bytes))
	case OpDirectIPC:
		dst := j.Shape
		if j.Peer != nil && j.Peer.Shape != nil {
			dst = j.Peer.Shape
		}
		gpu.CopyLayout(j.Target, layout(dst), j.Origin, layout(j.Shape))
	default:
		panic(fmt.Sprintf("pack: unknown op %d", j.Op))
	}
}

// layout is shape s as one side of a gpu.CopyLayout.
func layout(s *layoutcache.Shape) gpu.Layout { return gpu.Layout{Blocks: s.Blocks, Plan: s.Plan} }

// Handle executes the job: a job is the work of the kernel that runs it
// (gpu.KernelSpec.Work), so a launch makes no closure.
func (j *Job) Handle() { j.Execute() }

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
