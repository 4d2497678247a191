package gpu

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// FusedWork is one request folded into a fused kernel: an independent
// pack/unpack/DirectIPC operation executed by its own cooperative group of
// thread blocks (paper Fig. 6).
type FusedWork struct {
	// Name identifies the request for events/debugging.
	Name string
	// Bytes and Segments describe the payload exactly as in KernelSpec.
	Bytes           int64
	Segments        int
	MaxSegmentBytes int64
	// MinDurationNs floors this request's group duration (DirectIPC
	// link crossing).
	MinDurationNs int64
	// Work, if non-nil, runs in scheduler context (it must not block) at
	// the request's own completion time, when its group finishes. It is
	// the request itself: it performs the real data movement and then
	// updates the response status in the request list (step ③ in paper
	// Fig. 5), which is what lets the scheduler skip kernel-boundary
	// synchronization.
	Work sim.Handler
}

// FusedCompletion reports the timing of a fused kernel and of each request
// inside it. The kernel's retirement is a flag set at End; an event exists
// only once a caller asks to wait (Event).
type FusedCompletion struct {
	// Start and End bound the kernel.
	Start, End int64
	// ReqEnd[i] is the completion time of request i; requests signal
	// completion individually, before kernel end for all but the slowest
	// group.
	ReqEnd []int64
	done   sim.Flag
	name   sim.EventNamer
	stream *Stream
}

// EventName names the kernel's event "fused:<name>@<stream>" when it is
// read.
func (fc *FusedCompletion) EventName() string {
	return "fused:" + fc.name.EventName() + "@" + fc.stream.name
}

// Done reports whether the whole fused kernel has retired.
func (fc *FusedCompletion) Done() bool { return fc.done.Done() }

// Event returns an event that fires when the whole fused kernel retires,
// made on the first call; asked for after retirement, it has already
// fired at End.
func (fc *FusedCompletion) Event() *sim.Event { return fc.done.Event(fc.stream.dev.env, fc) }

// Handle retires the kernel: the event queue calls it at End.
func (fc *FusedCompletion) Handle() { fc.done.Set(fc.stream.dev.env) }

// LaunchFused launches one kernel that executes all requests concurrently
// using cooperative-group partitioning: the resident thread blocks are
// divided among requests in proportion to their work, each group completing
// (and signalling) independently. The caller pays exactly one launch
// overhead regardless of len(reqs) — the entire point of the design. The
// kernel's name is formatted only where it is read: a trace span, a fault
// record or the event's name. reqs is read until its last request
// completes, so the caller must not change it after the launch.
func (s *Stream) LaunchFused(p *sim.Proc, name sim.EventNamer, reqs []FusedWork) *FusedCompletion {
	fc, _ := s.launchFused(p, name, reqs, false)
	return fc
}

// LaunchFusedE is LaunchFused with transient-fault visibility: under a GPU
// fault plan the fused launch may fail with ErrLaunchFailed after burning
// the driver overhead. The fusion scheduler retries and then degrades to
// unfused per-request launches.
func (s *Stream) LaunchFusedE(p *sim.Proc, name sim.EventNamer, reqs []FusedWork) (*FusedCompletion, error) {
	return s.launchFused(p, name, reqs, true)
}

func (s *Stream) launchFused(p *sim.Proc, name sim.EventNamer, reqs []FusedWork, faultable bool) (*FusedCompletion, error) {
	if len(reqs) == 0 {
		panic("gpu: LaunchFused with no requests")
	}
	d := s.dev
	if s.launchFault(p, faultable) {
		d.Faults.Record(fault.LaunchFail, "fused:"+name.EventName())
		return nil, ErrLaunchFailed
	}
	d.Stats.KernelLaunches++
	d.Stats.FusedKernels++
	d.Stats.FusedRequests += int64(len(reqs))

	durs := d.fusedDurations(reqs)

	now := d.env.Now()
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	var kernelDur int64
	var totalBytes int64
	var totalSegs int
	for i, r := range reqs {
		if durs[i] > kernelDur {
			kernelDur = durs[i]
		}
		totalBytes += r.Bytes
		totalSegs += r.Segments
	}
	end := start + kernelDur
	s.busyUntil = end
	d.Stats.KernelBusyNs += kernelDur
	d.Stats.BytesMoved += totalBytes
	d.Stats.SegmentsMoved += int64(totalSegs)

	fc := &FusedCompletion{Start: start, End: end, ReqEnd: durs, name: name, stream: s}
	if d.TL != nil {
		d.TL.Span(timeline.LayerGPU, timeline.CostNone, s.name, "fused:"+name.EventName(), start, kernelDur,
			timeline.Arg{Key: "requests", Val: fmt.Sprintf("%d", len(reqs))},
			timeline.Arg{Key: "bytes", Val: fmt.Sprintf("%d", totalBytes)})
	}
	for i, r := range reqs {
		if d.TL != nil {
			d.TL.Span(timeline.LayerGPU, timeline.CostNone, s.name, "fused-req:"+r.Name, start, durs[i])
		}
		fc.ReqEnd[i] = start + durs[i] // durs becomes ReqEnd in place
	}
	// A run of consecutive requests that complete at the same time is one
	// queued event that completes them in index order. Nothing can run
	// between events queued back to back at one time, so the order is that
	// of one event per request, and a batch of equal requests costs the
	// queue one slot instead of one per request.
	for lo := 0; lo < len(reqs); {
		hi := lo + 1
		for hi < len(reqs) && fc.ReqEnd[hi] == fc.ReqEnd[lo] {
			hi++
		}
		if hi-lo > 1 {
			d.env.AtHandler(fc.ReqEnd[lo], fusedRun(reqs[lo:hi]))
		} else if w := reqs[lo].Work; w != nil {
			d.env.AtHandler(fc.ReqEnd[lo], w)
		}
		lo = hi
	}
	d.env.AtHandler(end, fc)
	return fc, nil
}

// fusedRun is a run of requests of one fused kernel that complete at the
// same time.
type fusedRun []FusedWork

// Handle completes the run's requests in index order.
func (run fusedRun) Handle() {
	for _, r := range run {
		if r.Work != nil {
			r.Work.Handle()
		}
	}
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

// EstimateFusedNs returns the modeled span of a fused kernel over the given
// requests without launching anything (used by flush heuristics and
// benchmarks).
func (d *Device) EstimateFusedNs(reqs []FusedWork) int64 {
	if len(reqs) == 0 {
		return 0
	}
	var max int64
	for _, dur := range d.fusedDurations(reqs) {
		if dur > max {
			max = dur
		}
	}
	return max
}

// fusedDurations partitions the device's resident thread blocks among the
// requests in proportion to each request's serial work (cooperative-group
// partition phase), computes each group's duration with the per-kernel cost
// model, and then stretches all durations uniformly if the aggregate
// payload exceeds what device memory bandwidth allows — groups share one
// HBM.
func (d *Device) fusedDurations(reqs []FusedWork) []int64 {
	a := d.Arch
	total := 0.0
	for _, r := range reqs {
		total += a.serialWork(r)
	}
	budget := a.MaxResidentBlocks()
	durs := make([]int64, len(reqs))
	var maxDur int64
	var totalBytes int64
	for i, r := range reqs {
		var share int
		if a.UniformFusedPartition {
			share = budget / len(reqs)
		} else {
			share = int(math.Floor(float64(budget) * a.serialWork(r) / total))
		}
		if share < 1 {
			share = 1
		}
		if units := a.workUnits(r.Bytes, r.Segments); share > units {
			share = units // a group never holds more blocks than work units
		}
		durs[i] = a.kernelCost(r.Bytes, r.Segments, share, r.MaxSegmentBytes)
		if durs[i] < r.MinDurationNs {
			durs[i] = r.MinDurationNs
		}
		if durs[i] > maxDur {
			maxDur = durs[i]
		}
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
