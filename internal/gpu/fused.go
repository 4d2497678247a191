package gpu

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// FusedWork is the cost of one request folded into a fused kernel: an
// independent pack/unpack/DirectIPC operation executed by its own
// cooperative group of thread blocks (paper Fig. 6).
type FusedWork struct {
	// Bytes and Segments describe the payload exactly as in KernelSpec.
	Bytes           int64
	Segments        int
	MaxSegmentBytes int64
	// MinDurationNs floors this request's group duration (DirectIPC
	// link crossing).
	MinDurationNs int64
}

// FusedBatch is the request list a fused kernel reads in place (paper
// Section IV-A). The kernel reads it only during the launch call.
type FusedBatch interface {
	// Len is the number of requests.
	Len() int
	// Work is request i's cost; the launch reads it more than once.
	Work(i int) FusedWork
	// Name names request i; only a traced device reads it.
	Name(i int) string
	// Retire returns what runs at the common completion time of the
	// consecutive requests lo..hi-1. It completes them in index order in scheduler context (it must not block): each
	// request performs its data movement and then updates its response
	// status in the request list (step ③ in paper Fig. 5), which is what
	// lets the scheduler skip kernel-boundary synchronization.
	Retire(lo, hi int) sim.Handler
}

// LaunchFused launches one kernel that executes all of b's requests
// concurrently using cooperative-group partitioning: the resident thread
// blocks are divided among requests in proportion to their work, each
// group completing (and signalling) independently. The caller pays exactly
// one launch overhead regardless of b.Len() — the entire point of the
// design. Under a GPU fault plan the launch may fail with ErrLaunchFailed
// after burning the driver overhead; the fusion scheduler retries and then
// degrades to unfused per-request launches.
//
// Nothing waits on the kernel itself: it returns the kernel's start and
// end for the caller to charge, and only the requests' retirements are
// queued. The kernel's name is formatted only where it is read during the
// call: a trace span or a fault record.
func (s *Stream) LaunchFused(p *sim.Proc, name sim.EventNamer, b FusedBatch) (start, end int64, err error) {
	n := b.Len()
	if n == 0 {
		panic("gpu: LaunchFused with no requests")
	}
	d := s.dev
	if s.launchFault(p, true) {
		d.Faults.Record(fault.LaunchFail, "fused:"+name.EventName())
		return 0, 0, ErrLaunchFailed
	}
	d.Stats.KernelLaunches++
	d.Stats.FusedKernels++
	d.Stats.FusedRequests += int64(n)

	s.durs = d.fusedDurations(b, s.durs)
	durs := s.durs

	start = d.env.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	var kernelDur int64
	var totalBytes int64
	var totalSegs int
	for i, dur := range durs {
		kernelDur = max(kernelDur, dur)
		w := b.Work(i)
		totalBytes += w.Bytes
		totalSegs += w.Segments
	}
	end = start + kernelDur
	s.busyUntil = end
	d.Stats.KernelBusyNs += kernelDur
	d.Stats.BytesMoved += totalBytes
	d.Stats.SegmentsMoved += int64(totalSegs)

	if d.TL != nil {
		d.TL.Span(timeline.LayerGPU, timeline.CostNone, s.name, "fused:"+name.EventName(), start, kernelDur,
			timeline.Arg{Key: "requests", Val: fmt.Sprintf("%d", n)},
			timeline.Arg{Key: "bytes", Val: fmt.Sprintf("%d", totalBytes)})
		for i, dur := range durs {
			d.TL.Span(timeline.LayerGPU, timeline.CostNone, s.name, "fused-req:"+b.Name(i), start, dur)
		}
	}
	// A run of consecutive requests that complete at the same time is one
	// queued event that completes them in index order. Nothing can run
	// between events queued back to back at one time, so the order is that
	// of one event per request, and a batch of equal requests costs the
	// queue one slot instead of one per request.
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && durs[hi] == durs[lo] {
			hi++
		}
		d.env.AtHandler(start+durs[lo], b.Retire(lo, hi))
		lo = hi
	}
	return start, end, nil
}

// serialWork is a request's serial work, the weight of its share of the
// resident thread blocks.
func (a Arch) serialWork(r FusedWork) float64 {
	w := float64(r.Segments)*a.SegmentFixedNs + float64(r.Bytes)/a.BlockCopyBWBytesPerNs
	if w <= 0 {
		w = 1
	}
	return w
}

// fusedDurations partitions the device's resident thread blocks among the
// requests in proportion to each request's serial work (cooperative-group
// partition phase), computes each group's duration with the per-kernel cost
// model, and then stretches all durations uniformly if the aggregate
// payload exceeds what device memory bandwidth allows — groups share one
// HBM. The durations, in request order, reuse durs' storage.
func (d *Device) fusedDurations(b FusedBatch, durs []int64) []int64 {
	durs = durs[:0]
	a := d.Arch
	n := b.Len()
	total := 0.0
	for i := 0; i < n; i++ {
		total += a.serialWork(b.Work(i))
	}
	budget := a.MaxResidentBlocks()
	var maxDur int64
	var totalBytes int64
	for i := 0; i < n; i++ {
		r := b.Work(i)
		var share int
		if a.UniformFusedPartition {
			share = budget / n
		} else {
			share = int(math.Floor(float64(budget) * a.serialWork(r) / total))
		}
		if share < 1 {
			share = 1
		}
		if units := a.workUnits(r.Bytes, r.Segments); share > units {
			share = units // a group never holds more blocks than work units
		}
		dur := max(a.kernelCost(r.Bytes, r.Segments, share, r.MaxSegmentBytes), r.MinDurationNs)
		durs = append(durs, dur)
		maxDur = max(maxDur, dur)
		totalBytes += r.Bytes
	}
	// Shared-HBM floor: if the sum of payloads needs longer than the
	// slowest group's modeled time, stretch everything proportionally so
	// ordering is preserved but bandwidth is respected.
	floor := int64(math.Ceil(float64(totalBytes) / a.MemBWBytesPerNs))
	if floor > maxDur && maxDur > 0 {
		scale := float64(floor) / float64(maxDur)
		for i := range durs {
			durs[i] = int64(math.Ceil(float64(durs[i]) * scale))
		}
	}
	return durs
}
