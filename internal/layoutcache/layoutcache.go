// Package layoutcache caches flattened datatype layouts, following the
// datatype-layout caching scheme of Chu et al. (HiPC 2019) that the paper's
// request objects reference, re-keyed on *canonical identity* after TEMPI:
// the first send with a (canonical form, count) pair pays the flattening
// and plan-compilation cost; subsequent sends — including sends using a
// distinct-but-equivalent spelling of the datatype — reuse the cached block
// list and compiled pack plan.
package layoutcache

import "repro/internal/datatype"

// Key identifies a cached entry: the canonical signature of the committed
// datatype plus the element count of the communication call. Two layouts
// committed from equivalent spellings share a signature and therefore a
// cache entry.
type Key struct {
	Sig   string
	Count int
}

// Shape is the layout half of a pack job: a block list, the pack routine
// compiled for it, and the aggregates the cost model reads. A cache entry
// embeds its shape and every job over the entry points at it, so a
// request refers to one canonical layout instead of copying it; nothing
// writes to a cached shape after Get made it.
type Shape struct {
	Blocks []datatype.Block
	// Plan is the pack routine compiled for Blocks' canonical form; nil
	// for a shape made from a raw block list (NewShape), which is walked
	// block by block.
	Plan     *datatype.Plan
	Bytes    int64 // payload per message
	Segments int   // contiguous segments per message
	MaxBlock int64 // largest contiguous segment
}

// NewShape returns the shape of a raw block list, with no plan.
func NewShape(blocks []datatype.Block) Shape {
	s := Shape{Blocks: blocks, Segments: len(blocks)}
	for _, b := range blocks {
		s.Bytes += b.Len
		s.MaxBlock = max(s.MaxBlock, b.Len)
	}
	return s
}

// Entry is a cached flattened layout for (canonical form, count). Only the
// charged flag changes after creation.
type Entry struct {
	Key Key
	Shape
	Extent int64 // memory span of the full message

	// Canon is the canonical stride-run form of the *repeated* block list
	// (count elements at extent stride); Shape.Plan is compiled from it.
	Canon *datatype.Canonical

	// charged records whether a charged lookup (GetCharged) has seen
	// this entry yet.
	charged bool
	// Index is the entry's creation order in its cache, from 0: a dense
	// key for tables the cache's owner keeps per entry.
	Index int32
}

// Lookup costs in virtual nanoseconds, mirroring the ~2 µs/message
// scheduling overhead ceiling reported in the paper: hits are cheap, misses
// scale with layout size.
const (
	hitNs          = 120
	missBaseNs     = 800
	missPerBlockNs = 6
)

// Lookup returns the cost of one access given hit/miss and segment count,
// so the MPI runtime can charge the calling process realistically.
func Lookup(hit bool, segments int) int64 {
	if hit {
		return hitNs
	}
	return missBaseNs + missPerBlockNs*int64(segments)
}

// Stats is a point-in-time snapshot of one cache's counters. Hits and
// Misses count every lookup, charged or not; a miss creates the entry and
// compiles its plan, so Misses == TotalCompiled() always holds.
type Stats struct {
	Hits   int64
	Misses int64
	// Compiled counts plans compiled since creation, by plan kind.
	Compiled [datatype.NumPlanKinds]int64
}

// Add accumulates o into s (for aggregating per-rank caches).
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	for i := range s.Compiled {
		s.Compiled[i] += o.Compiled[i]
	}
}

// TotalCompiled sums plan compilations across kinds.
func (s Stats) TotalCompiled() int64 {
	var n int64
	for _, c := range s.Compiled {
		n += c
	}
	return n
}

// Cache is an unbounded layout cache. It is not safe for concurrent use;
// in the simulation each rank owns one cache, matching the per-process
// caches of the real runtime.
type Cache struct {
	items map[Key]*Entry

	// Stats
	Hits     int64
	Misses   int64
	Compiled [datatype.NumPlanKinds]int64
}

// New creates an empty cache.
func New() *Cache {
	return &Cache{items: make(map[Key]*Entry)}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.Hits, Misses: c.Misses, Compiled: c.Compiled}
}

// Get returns the flattened layout for count elements of l, computing and
// caching it on first use. The boolean reports whether this was a hit.
// The key is l's canonical signature, so equivalent spellings hit the same
// entry and the plan is compiled once per family.
func (c *Cache) Get(l *datatype.Layout, count int) (*Entry, bool) {
	k := Key{Sig: l.Canonical(), Count: count}
	if e, ok := c.items[k]; ok {
		c.Hits++
		return e, true
	}
	c.Misses++
	blocks := l.Repeat(count)
	e := &Entry{Key: k, Shape: NewShape(blocks), Extent: l.ExtentBytes * int64(count), Index: int32(len(c.items))}
	e.Canon = datatype.Canonicalize(blocks, e.Extent)
	e.Plan = datatype.CompilePlan(e.Canon)
	c.Compiled[int(e.Plan.Kind)]++
	c.items[k] = e
	return e, false
}

// GetCharged is Get for a lookup the caller charges virtual time for. Its
// boolean reports whether an earlier GetCharged saw the entry, so an entry
// first created by an uncharged Get still costs a charged miss: the charged
// hit pattern does not depend on uncharged lookups.
func (c *Cache) GetCharged(l *datatype.Layout, count int) (*Entry, bool) {
	e, _ := c.Get(l, count)
	hit := e.charged
	e.charged = true
	return e, hit
}
