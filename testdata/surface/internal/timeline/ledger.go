// Package timeline owns the charge path: its ledger may give a span a cost
// and add to its breakdown.
package timeline

import "surface/internal/trace"

func (l *ledger) charge(layer layer, cat trace.Category, name string, start, d int64) {
	l.Breakdown.Add(cat, d)
	l.rec.Span(layer, cat, "", name, start, d)
}
