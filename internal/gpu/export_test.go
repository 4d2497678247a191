package gpu

import (
	"fmt"

	"repro/internal/sim"
)

// works is a fused batch over a slice of requests, named r<i>, whose
// retirements do nothing.
type works []FusedWork

func (w works) Len() int                      { return len(w) }
func (w works) Work(i int) FusedWork          { return w[i] }
func (w works) Name(i int) string             { return fmt.Sprintf("r%d", i) }
func (w works) Retire(lo, hi int) sim.Handler { return sim.HandlerFunc(func() {}) }

// signalling is a fused batch whose request i completes by calling
// done(i), a run of requests in index order.
type signalling struct {
	works
	done func(i int)
}

func (b signalling) Retire(lo, hi int) sim.Handler {
	return sim.HandlerFunc(func() {
		for i := lo; i < hi; i++ {
			b.done(i)
		}
	})
}

// EstimateFusedNs returns the modeled span of a fused kernel over the given
// requests without launching anything.
func (d *Device) EstimateFusedNs(reqs []FusedWork) int64 {
	if len(reqs) == 0 {
		return 0
	}
	var span int64
	for _, dur := range d.fusedDurations(works(reqs), nil) {
		span = max(span, dur)
	}
	return span
}
