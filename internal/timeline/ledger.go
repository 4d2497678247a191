package timeline

import "repro/internal/trace"

// Ledger is one rank's single charge path: every virtual-time cost the
// rank accrues goes through Charge, which adds it to the embedded
// trace.Breakdown and, when tracing is on, mirrors it as one cost-carrying
// span. The breakdown and the timeline's per-category sums therefore agree
// by construction. The zero value is a ready ledger with tracing off.
type Ledger struct {
	trace.Breakdown
	rec *Recorder // nil when tracing is off
}

// NewLedger returns a ledger that mirrors its charges into rec (nil: tracing
// off).
func NewLedger(rec *Recorder) Ledger { return Ledger{rec: rec} }

// Recorder returns the recorder the ledger mirrors into; nil for a nil
// ledger or when tracing is off. Machine-view spans and instants of the
// same rank go there directly, with cost CostNone.
func (l *Ledger) Recorder() *Recorder {
	if l == nil {
		return nil
	}
	return l.rec
}

// Charge accrues d virtual nanoseconds to category cat and, when tracing is
// on, records them as a span of the given layer and name starting at start.
// A zero d accrues and records nothing; a negative d panics, traced or not.
// A nil ledger (a scheduler built without a rank) charges nothing.
func (l *Ledger) Charge(layer Layer, cat trace.Category, name string, start, d int64) {
	if d < 0 {
		panic("timeline: negative charge for " + name)
	}
	if l == nil || d == 0 {
		return
	}
	l.Add(cat, d)
	if l.rec != nil {
		l.rec.Span(layer, cat, "", name, start, d)
	}
}

// Reset zeroes the breakdown and discards the recorder's events and sums
// together, so the two stay reconciled across a benchmark's warmup.
func (l *Ledger) Reset() {
	l.Breakdown.Reset()
	l.rec.reset()
}
