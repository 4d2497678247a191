// Package trace may add to a breakdown, but only the timeline package may
// give a span a cost.
package trace

import "surface/internal/timeline"

func merge(b, other *breakdown, rec *timeline.Recorder) {
	for i, v := range other.ns {
		b.Add(category(i), v)
	}
	rec.Span(timeline.LayerSim, Sync, "", "merge", 0, 1)
}
