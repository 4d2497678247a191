package layoutcache

import (
	"testing"
	"testing/quick"

	"repro/internal/datatype"
)

func vecLayout() *datatype.Layout {
	return datatype.Commit(datatype.Vector(4, 2, 5, datatype.Float64))
}

func TestMissThenHit(t *testing.T) {
	c := New()
	l := vecLayout()
	e1, hit := c.Get(l, 3)
	if hit {
		t.Fatal("first access must miss")
	}
	e2, hit := c.Get(l, 3)
	if !hit {
		t.Fatal("second access must hit")
	}
	if e1 != e2 {
		t.Fatal("hit must return the same entry")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats: %d hits %d misses", c.Hits, c.Misses)
	}
}

func TestDistinctCountsAreDistinctEntries(t *testing.T) {
	c := New()
	l := vecLayout()
	a, _ := c.Get(l, 1)
	b, _ := c.Get(l, 2)
	if a == b {
		t.Fatal("count must be part of the key")
	}
	if b.Bytes != 2*a.Bytes {
		t.Fatalf("count-2 bytes = %d, want %d", b.Bytes, 2*a.Bytes)
	}
	if b.Extent != 2*a.Extent {
		t.Fatalf("count-2 extent = %d, want %d", b.Extent, 2*a.Extent)
	}
}

func TestEntryAggregates(t *testing.T) {
	c := New()
	l := vecLayout()
	e, _ := c.Get(l, 1)
	if e.Bytes != l.SizeBytes || e.Segments != l.NumBlocks() || e.MaxBlock != l.MaxBlockBytes {
		t.Fatalf("entry %+v does not match layout %+v", e, l)
	}
}

func TestUnboundedCacheNeverEvicts(t *testing.T) {
	c := New()
	for i := 0; i < 100; i++ {
		// Distinct counts give distinct keys even though the layouts are
		// all canonically equal.
		c.Get(vecLayout(), i+1)
	}
	if len(c.items) != 100 {
		t.Fatalf("len = %d, want 100", len(c.items))
	}
}

// Equivalent spellings — the same memory access pattern committed through
// different constructors — share one cache entry: the second commit's first
// Get is already a hit and compiles nothing.
func TestEquivalentSpellingsShareEntry(t *testing.T) {
	c := New()
	vec := datatype.Commit(datatype.Vector(4, 2, 8, datatype.Byte))
	hidx := datatype.Commit(datatype.Hindexed([]int{2, 2, 2, 2}, []int64{0, 8, 16, 24}, datatype.Byte))
	if vec.Canonical() != hidx.Canonical() {
		t.Fatalf("canonical mismatch:\n %s\n %s", vec.Canonical(), hidx.Canonical())
	}
	e1, hit := c.Get(vec, 3)
	if hit {
		t.Fatal("first access must miss")
	}
	compiledAfterFirst := c.Stats().TotalCompiled()
	e2, hit := c.Get(hidx, 3)
	if !hit {
		t.Fatal("equivalent spelling must hit the shared entry")
	}
	if e1 != e2 {
		t.Fatal("equivalent spellings must share one entry")
	}
	if got := c.Stats().TotalCompiled(); got != compiledAfterFirst {
		t.Fatalf("recompiled: %d plans after hit, want %d", got, compiledAfterFirst)
	}
	if len(c.items) != 1 {
		t.Fatalf("len = %d, want 1", len(c.items))
	}
}

// An uncharged lookup that creates an entry must not turn the first
// charged lookup of the same key into a charged hit: the charged hit
// pattern, and with it every virtual-time charge, ignores uncharged
// lookups. The entry and its plan are still shared and compiled once.
func TestUnchargedLookupLeavesChargedMiss(t *testing.T) {
	c := New()
	l := vecLayout()
	e1, _ := c.Get(l, 2)
	e2, hit := c.GetCharged(l, 2)
	if hit {
		t.Fatal("first charged lookup after an uncharged one must be a charged miss")
	}
	if e1 != e2 {
		t.Fatal("charged and uncharged lookups must share one entry")
	}
	if _, hit := c.GetCharged(l, 2); !hit {
		t.Fatal("second charged lookup must be a charged hit")
	}
	s := c.Stats()
	if s.TotalCompiled() != 1 {
		t.Fatalf("compiled %d plans, want 1", s.TotalCompiled())
	}
	if s.Misses != s.TotalCompiled() || s.Hits != 2 {
		t.Fatalf("stats: %d hits %d misses %d compiled, want 2/1/1", s.Hits, s.Misses, s.TotalCompiled())
	}
}

// A compiled plan's Pack agrees byte-for-byte with the legacy block-list
// gather over the entry's blocks.
func TestEntryPlanMatchesBlocks(t *testing.T) {
	c := New()
	l := datatype.Commit(datatype.Vector(5, 3, 7, datatype.Int32))
	e, _ := c.Get(l, 2)
	if e.Plan == nil {
		t.Fatal("plan not compiled")
	}
	src := make([]byte, e.Extent)
	for i := range src {
		src[i] = byte(i * 31)
	}
	want := make([]byte, e.Bytes)
	var w int64
	for _, b := range e.Blocks {
		copy(want[w:w+b.Len], src[b.Offset:b.Offset+b.Len])
		w += b.Len
	}
	got := make([]byte, e.Bytes)
	if n := e.Plan.Pack(src, got); n != e.Bytes {
		t.Fatalf("plan packed %d bytes, want %d", n, e.Bytes)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d: plan %d, legacy %d", i, got[i], want[i])
		}
	}
}

func TestCostModel(t *testing.T) {
	if Lookup(true, 10_000) != Lookup(true, 1) {
		t.Fatal("hit cost must not scale with segments")
	}
	small := Lookup(false, 10)
	big := Lookup(false, 10_000)
	if big <= small {
		t.Fatal("miss cost must scale with segments")
	}
	if hit, miss := Lookup(true, 10), Lookup(false, 10); hit != 120 || miss != 860 {
		t.Fatalf("Lookup(hit/miss, 10 segments) = %d/%d ns, want 120/860", hit, miss)
	}
}

// Property: a Get with the same (layout, count) is always a hit after the
// first access, and entry aggregates equal a direct recomputation.
func TestPropertyGetIdempotent(t *testing.T) {
	f := func(countRaw uint8, blocklenRaw, strideExtra uint8) bool {
		count := int(countRaw%8) + 1
		bl := int(blocklenRaw%4) + 1
		l := datatype.Commit(datatype.Vector(3, bl, bl+int(strideExtra%4)+1, datatype.Int32))
		c := New()
		e, hit := c.Get(l, count)
		if hit {
			return false
		}
		e2, hit2 := c.Get(l, count)
		if !hit2 || e2 != e {
			return false
		}
		blocks := l.Repeat(count)
		var bytes int64
		for _, b := range blocks {
			bytes += b.Len
		}
		return e.Bytes == bytes && e.Segments == len(blocks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
