// Package coll charges only through its rank's ledger: the scan must report
// the cost-carrying Span and the two breakdown Adds, and nothing else.
package coll

import (
	tl "surface/internal/timeline"
	"surface/internal/trace"
)

func charge(r *rank, rec *tl.Recorder, b *trace.Breakdown, c *collector, d int64) {
	r.Trace.Charge(tl.LayerColl, trace.Sync, "poll", 0, d)
	rec.Span(tl.LayerColl, tl.CostNone, "net", "wire", 0, d)
	c.Add("label", d)
	rec.Span(tl.LayerColl, trace.Sync, "", "poll", 0, d)
	r.Trace.Add(r.cat, d)
	b.Add(trace.Category(2), d)
}
