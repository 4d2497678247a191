package payload

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// model pairs a Content with a plain []byte shadow; every op is applied to
// both and the pair is checked byte-for-byte and checksum-for-checksum.
type model struct {
	c *Content
	b []byte
}

func newModel(n int64) *model { return &model{c: New(n), b: make([]byte, n)} }

func (m *model) check(t *testing.T, ctx string) {
	t.Helper()
	got := make([]byte, m.c.Len())
	m.c.ReadAt(got, 0)
	if !bytes.Equal(got, m.b) {
		t.Fatalf("%s: content bytes diverge from model", ctx)
	}
	if cs, want := m.c.Checksum(), Checksum(m.b); cs != want {
		t.Fatalf("%s: lazy checksum %#x != exact checksum %#x", ctx, cs, want)
	}
}

func TestFillMatchesFillBytes(t *testing.T) {
	for _, n := range []int64{0, 1, 7, 8, 9, 255, 256, 4096, 70000} {
		c := New(n)
		c.Fill(42)
		b := make([]byte, n)
		FillBytes(b, 42)
		got := make([]byte, n)
		c.ReadAt(got, 0)
		if !bytes.Equal(got, b) {
			t.Fatalf("n=%d: Fill and FillBytes disagree", n)
		}
		if c.Checksum() != Checksum(b) {
			t.Fatalf("n=%d: checksum mismatch", n)
		}
	}
}

func TestStreamAtIsPositionAddressable(t *testing.T) {
	whole := make([]byte, 1024)
	FillBytes(whole, 7)
	for i, b := range whole {
		if want := byte(prfWord(7, int64(i)>>3) >> (8 * (i & 7))); b != want {
			t.Fatalf("byte %d = %#x, want byte %d of word %d: %#x", i, b, i&7, i>>3, want)
		}
	}
	for _, off := range []int64{0, 1, 3, 7, 8, 9, 100, 511, 1000} {
		part := make([]byte, 24)
		StreamAt(7, off, part)
		if !bytes.Equal(part, whole[off:off+24]) {
			t.Fatalf("StreamAt(off=%d) disagrees with prefix fill", off)
		}
	}
}

func TestSeedDeterminismAndDistinctness(t *testing.T) {
	a, b, c := make([]byte, 256), make([]byte, 256), make([]byte, 256)
	FillBytes(a, 5)
	FillBytes(b, 5)
	FillBytes(c, 6)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed must produce same bytes")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds should produce different bytes")
	}
}

func TestZeroContentChecksum(t *testing.T) {
	for _, n := range []int64{0, 1, 13, 4096} {
		if New(n).Checksum() != Checksum(make([]byte, n)) {
			t.Fatalf("n=%d: zero content checksum mismatch", n)
		}
	}
}

func TestWriteReadCopyAgainstModel(t *testing.T) {
	const n = 2048
	m := newModel(n)
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 400; step++ {
		off := rng.Int63n(n)
		ln := rng.Int63n(n - off + 1)
		switch rng.Intn(5) {
		case 0:
			p := make([]byte, ln)
			rng.Read(p)
			m.c.WriteBytes(off, p)
			copy(m.b[off:off+ln], p)
		case 1:
			seed := rng.Uint64()
			pos := rng.Int63n(1 << 20)
			m.c.FillRange(off, ln, seed, pos)
			StreamAt(seed, pos, m.b[off:off+ln])
		case 2:
			m.c.Zero(off, ln)
			for i := off; i < off+ln; i++ {
				m.b[i] = 0
			}
		case 3: // self-copy, possibly overlapping
			dst := rng.Int63n(n - ln + 1)
			m.c.CopyFrom(dst, m.c, off, ln)
			copy(m.b[dst:dst+ln], append([]byte(nil), m.b[off:off+ln]...))
		case 4: // range checksum agreement
			if got, want := m.c.ChecksumRange(off, ln), Checksum(m.b[off:off+ln]); got != want {
				t.Fatalf("step %d: ChecksumRange(%d,%d) mismatch", step, off, ln)
			}
		}
	}
	m.check(t, "final")
}

// TestSliceLaw: Slice(off,n) of a content has the same bytes and checksum
// as the corresponding sub-slice of the materialized bytes, and is a
// snapshot — later writes to the source must not leak into it.
func TestSliceLaw(t *testing.T) {
	const n = 1024
	m := newModel(n)
	rng := rand.New(rand.NewSource(2))
	m.c.Fill(9)
	FillBytes(m.b, 9)
	p := make([]byte, 100)
	rng.Read(p)
	m.c.WriteBytes(300, p)
	copy(m.b[300:400], p)

	off, ln := int64(250), int64(500)
	s := m.c.Slice(off, ln)
	want := append([]byte(nil), m.b[off:off+ln]...)
	if s.Checksum() != Checksum(want) {
		t.Fatal("slice checksum != model sub-slice checksum")
	}
	// mutate the source; the snapshot must be unaffected
	m.c.Zero(0, n)
	got := make([]byte, ln)
	s.ReadAt(got, 0)
	if !bytes.Equal(got, want) {
		t.Fatal("slice is not a snapshot: source mutation leaked in")
	}
}

// TestConcatLaw: Checksum(Concat(a,b)) == Checksum(bytes(a) ++ bytes(b)).
func TestConcatLaw(t *testing.T) {
	a, b := New(300), New(500)
	a.Fill(1)
	b.Fill(2)
	b.Zero(100, 50)
	ab := Concat(a, b)
	ba := make([]byte, 800)
	a.ReadAt(ba[:300], 0)
	b.ReadAt(ba[300:], 0)
	if ab.Len() != 800 || ab.Checksum() != Checksum(ba) {
		t.Fatal("concat law violated")
	}
}

// TestPackUnpackRoundTrip mimics the pack/unpack composition the MPI layer
// performs: gather strided blocks into a packed staging content, then
// scatter them back into a filled destination — covered bytes must round
// trip, gaps keep the destination's bytes, and the packed checksum must
// equal the packed model bytes. Per-block CopyFrom and the batched
// Gather/Scatter must agree on checksum and span count.
func TestPackUnpackRoundTrip(t *testing.T) {
	const n = 4096
	src := New(n)
	src.Fill(77)
	src.WriteBytes(40, []byte("a literal inside a block"))
	sb := make([]byte, n)
	src.ReadAt(sb, 0)

	type block struct{ off, ln int64 }
	var blocks []block
	for off := int64(16); off+48 < n; off += 160 {
		blocks = append(blocks, block{off, 48})
	}
	at := func(i int) (int64, int64) { return blocks[i].off, blocks[i].ln }
	var packedLen int64
	for _, bl := range blocks {
		packedLen += bl.ln
	}
	packed := New(packedLen)
	pb := make([]byte, packedLen)
	var w int64
	for _, bl := range blocks {
		packed.CopyFrom(w, src, bl.off, bl.ln)
		copy(pb[w:w+bl.ln], sb[bl.off:bl.off+bl.ln])
		w += bl.ln
	}
	gathered := New(packedLen)
	gathered.Gather(0, src, len(blocks), at)
	for _, c := range []*Content{packed, gathered} {
		if c.Checksum() != Checksum(pb) {
			t.Fatal("packed checksum mismatch")
		}
		// One span per block, plus one where the literal splits block 0.
		if c.SpanCount() > len(blocks)+1 {
			t.Fatalf("packed span count %d exceeds block count %d + 1", c.SpanCount(), len(blocks))
		}
	}
	if packed.SpanCount() != gathered.SpanCount() {
		t.Fatalf("Gather leaves %d spans, per-block copies %d", gathered.SpanCount(), packed.SpanCount())
	}

	dst := New(n)
	dst.Fill(5)
	db := make([]byte, n)
	FillBytes(db, 5)
	w = 0
	for _, bl := range blocks {
		dst.CopyFrom(bl.off, packed, w, bl.ln)
		copy(db[bl.off:bl.off+bl.ln], pb[w:w+bl.ln])
		w += bl.ln
	}
	scattered := New(n)
	scattered.Fill(5)
	scattered.Scatter(len(blocks), at, packed, 0)
	for _, c := range []*Content{dst, scattered} {
		if c.Checksum() != Checksum(db) {
			t.Fatal("unpacked checksum mismatch")
		}
		got := make([]byte, n)
		c.ReadAt(got, 0)
		if !bytes.Equal(got, db) {
			t.Fatal("unpacked bytes mismatch")
		}
	}
	if dst.SpanCount() != scattered.SpanCount() {
		t.Fatalf("Scatter leaves %d spans, per-block copies %d", scattered.SpanCount(), dst.SpanCount())
	}
}

// TestCoalesceBoundsSpans: packing adjacent ranges of one fill stream must
// merge back into a single span, not accumulate per-copy fragments.
func TestCoalesceBoundsSpans(t *testing.T) {
	src := New(1 << 20)
	src.Fill(3)
	dst := New(1 << 20)
	var w int64
	for off := int64(0); off < 1<<20; off += 4096 {
		dst.CopyFrom(w, src, off, 4096)
		w += 4096
	}
	if got := dst.SpanCount(); got != 1 {
		t.Fatalf("contiguous stream copies should coalesce to 1 span, got %d", got)
	}
}

func TestHashZeros(t *testing.T) {
	for _, n := range []int64{0, 1, 2, 3, 63, 64, 1000} {
		want := Checksum(make([]byte, n))
		if got := hashZeros(fnvOffset, n); got != want {
			t.Fatalf("hashZeros(%d) = %#x want %#x", n, got, want)
		}
	}
}

func TestRangePanics(t *testing.T) {
	c := New(10)
	for _, f := range []func(){
		func() { c.WriteBytes(8, make([]byte, 4)) },
		func() { c.ReadAt(make([]byte, 4), 8) },
		func() { c.Slice(-1, 2) },
		func() { c.ChecksumRange(0, 11) },
		func() { c.Gather(8, c, 1, func(int) (int64, int64) { return 0, 4 }) },
		func() { c.Scatter(1, func(int) (int64, int64) { return 0, 4 }, c, 8) },
		func() { c.Scatter(1, func(int) (int64, int64) { return 8, 4 }, c, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected out-of-range panic")
				}
			}()
			f()
		}()
	}
}

// TestSpanIsPointerFree pins the span layout: 40 bytes of scalars, so span
// lists are never scanned by the garbage collector. A pointer-bearing
// field (a slice, a string, an interface) fails here.
func TestSpanIsPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(span{}); got != 40 {
		t.Fatalf("span is %d bytes, want 40", got)
	}
	typ := reflect.TypeOf(span{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int64, reflect.Uint64, reflect.Uint8:
		default:
			t.Fatalf("span field %s has kind %s; spans must stay pointer-free scalars", f.Name, f.Type.Kind())
		}
	}
}

// liveLits counts a content's literal spans.
func liveLits(c *Content) int {
	n := 0
	for _, s := range c.spans {
		if s.kind == srcLit {
			n++
		}
	}
	return n
}

// TestLiteralTableBounded: rewriting one range with literals over and
// over, or copying a literal-bearing content over another again and
// again, keeps the literal table within twice the live literal spans plus
// a constant.
func TestLiteralTableBounded(t *testing.T) {
	check := func(c *Content, ctx string, i int) {
		t.Helper()
		if live := liveLits(c); len(c.lits) > 2*live+litSlack {
			t.Fatalf("%s %d: literal table holds %d entries for %d literal spans", ctx, i, len(c.lits), live)
		}
	}
	c := New(4096)
	c.Fill(1)
	for i := 0; i < 10000; i++ {
		if i%2 == 0 {
			c.CorruptSplice(100, 64, uint64(i))
		} else {
			c.WriteBytes(120, []byte{byte(i), byte(i >> 8), 7})
		}
		check(c, "rewrite", i)
	}

	src := New(4096)
	src.Fill(2)
	src.WriteBytes(10, []byte("literal one"))
	src.WriteBytes(2000, []byte("literal two"))
	src.CopyFrom(3000, src, 0, 100)
	dst := New(4096)
	for i := 0; i < 10000; i++ {
		dst.CopyFrom(int64(i%7), src, 0, 4000)
		check(dst, "copy", i)
	}
	if liveLits(dst) != 3 {
		t.Fatalf("copy target holds %d literal spans, want 3", liveLits(dst))
	}
}
