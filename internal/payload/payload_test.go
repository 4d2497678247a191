package payload

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/datatype"
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

// TestChecksumRangeMatchesBytes pins the fused word-at-a-time stream hash
// at every word phase: a fill span starting at each stream position mod 8,
// of lengths around the word, the old 512-byte buffer and a page, between
// zero gaps, must hash like the bytes StreamAt materializes.
func TestChecksumRangeMatchesBytes(t *testing.T) {
	var lens []int64
	for n := int64(0); n <= 17; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 511, 512, 513, 4099)
	const gap = 5
	for pos := int64(64); pos < 72; pos++ {
		for _, n := range lens {
			c := New(gap + n + gap)
			c.FillRange(gap, n, 9, pos)
			b := make([]byte, c.Len())
			StreamAt(9, pos, b[gap:gap+n])
			if got, want := c.Checksum(), Checksum(b); got != want {
				t.Fatalf("pos%%8=%d n=%d: whole checksum %#x, bytes %#x", pos&7, n, got, want)
			}
			if got, want := c.ChecksumRange(gap, n), Checksum(b[gap:gap+n]); got != want {
				t.Fatalf("pos%%8=%d n=%d: span checksum %#x, bytes %#x", pos&7, n, got, want)
			}
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
// CopyBlocks must agree on checksum and span count.
func TestPackUnpackRoundTrip(t *testing.T) {
	const n = 4096
	src := New(n)
	src.Fill(77)
	src.WriteBytes(40, []byte("a literal inside a block"))
	sb := make([]byte, n)
	src.ReadAt(sb, 0)

	var blocks []datatype.Block
	for off := int64(16); off+48 < n; off += 160 {
		blocks = append(blocks, datatype.Block{Offset: off, Len: 48})
	}
	var packedLen int64
	for _, bl := range blocks {
		packedLen += bl.Len
	}
	whole := []datatype.Block{{Offset: 0, Len: packedLen}}
	packed := New(packedLen)
	pb := make([]byte, packedLen)
	var w int64
	for _, bl := range blocks {
		packed.CopyFrom(w, src, bl.Offset, bl.Len)
		copy(pb[w:w+bl.Len], sb[bl.Offset:bl.Offset+bl.Len])
		w += bl.Len
	}
	gathered := New(packedLen)
	gathered.CopyBlocks(whole, src, blocks)
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
		t.Fatalf("a gathering CopyBlocks leaves %d spans, per-block copies %d", gathered.SpanCount(), packed.SpanCount())
	}

	dst := New(n)
	dst.Fill(5)
	db := make([]byte, n)
	FillBytes(db, 5)
	w = 0
	for _, bl := range blocks {
		dst.CopyFrom(bl.Offset, packed, w, bl.Len)
		copy(db[bl.Offset:bl.Offset+bl.Len], pb[w:w+bl.Len])
		w += bl.Len
	}
	scattered := New(n)
	scattered.Fill(5)
	scattered.CopyBlocks(blocks, packed, whole)
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
		t.Fatalf("a scattering CopyBlocks leaves %d spans, per-block copies %d", scattered.SpanCount(), dst.SpanCount())
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
		func() { c.CopyBlocks([]datatype.Block{{Offset: 8, Len: 4}}, c, []datatype.Block{{Offset: 0, Len: 4}}) },
		func() { c.CopyBlocks([]datatype.Block{{Offset: 0, Len: 4}}, c, []datatype.Block{{Offset: 8, Len: 4}}) },
		func() { c.CopyBlocks([]datatype.Block{{Offset: 0, Len: 4}}, c, []datatype.Block{{Offset: 0, Len: 3}}) },
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

// TestVectorLegIsOneSpan: the 32 KiB strided leg of the lazy collectives,
// Vector(64, 64, 128, Float64), packs from a filled buffer into one vector
// span of contiguous staging and unpacks into one vector span of a zeroed
// buffer, each reading the bytes and checksum of the byte-exact copy.
func TestVectorLegIsOneSpan(t *testing.T) {
	l := datatype.Commit(datatype.Vector(64, 64, 128, datatype.Float64))
	whole := []datatype.Block{{Offset: 0, Len: l.SizeBytes}}
	src := New(l.ExtentBytes)
	src.Fill(11)
	sb := make([]byte, l.ExtentBytes)
	FillBytes(sb, 11)
	pb := make([]byte, l.SizeBytes)
	ub := make([]byte, l.ExtentBytes)
	var w int64
	for _, b := range l.Blocks {
		copy(pb[w:w+b.Len], sb[b.Offset:b.Offset+b.Len])
		copy(ub[b.Offset:b.Offset+b.Len], pb[w:w+b.Len])
		w += b.Len
	}

	packed := New(l.SizeBytes)
	packed.CopyBlocks(whole, src, l.Blocks)
	unpacked := New(l.ExtentBytes)
	unpacked.CopyBlocks(l.Blocks, packed, whole)
	for _, side := range []struct {
		name string
		c    *Content
		want []byte
	}{{"packed", packed, pb}, {"unpacked", unpacked, ub}} {
		checkSpanInvariants(t, side.c)
		if got := side.c.SpanCount(); got != 1 {
			t.Errorf("%s leg holds %d spans, want 1", side.name, got)
		}
		if side.c.Checksum() != Checksum(side.want) {
			t.Errorf("%s leg checksum differs from the byte-exact copy", side.name)
		}
		got := make([]byte, side.c.Len())
		side.c.ReadAt(got, 0)
		if !bytes.Equal(got, side.want) {
			t.Errorf("%s leg bytes differ from the byte-exact copy", side.name)
		}
	}
}

// TestWriteBlocksMatchesPieceWrites: writing real bytes through two block
// lists in one WriteBlocks reads and hashes like one WriteBytes per piece,
// for ascending, unsorted and overlapping destination lists, with no more
// spans (its literal is cut only where the destination blocks are) and
// one literal-table entry for all its pieces.
func TestWriteBlocksMatchesPieceWrites(t *testing.T) {
	p := make([]byte, 512)
	rand.New(rand.NewSource(3)).Read(p)
	strided := func(off, blk, stride, count int64) (bl []datatype.Block) {
		for k := int64(0); k < count; k++ {
			bl = append(bl, datatype.Block{Offset: off + k*stride, Len: blk})
		}
		return bl
	}
	for _, tc := range []struct {
		name     string
		dst, src []datatype.Block
	}{
		{"scatter", strided(3, 8, 40, 12), []datatype.Block{{Offset: 100, Len: 96}}},
		{"cut differently", strided(0, 12, 16, 8), strided(7, 16, 50, 6)},
		{"unsorted", []datatype.Block{{Offset: 300, Len: 20}, {Offset: 10, Len: 20}}, []datatype.Block{{Offset: 0, Len: 40}}},
		{"overlapping", []datatype.Block{{Offset: 50, Len: 30}, {Offset: 60, Len: 30}}, strided(0, 20, 25, 3)},
	} {
		batched, pieces := New(512), New(512)
		for _, c := range []*Content{batched, pieces} {
			c.Fill(8)
			c.FillRange(200, 64, 9, 0)
		}
		batched.WriteBlocks(tc.dst, p, tc.src)
		datatype.EachPiece(tc.dst, tc.src, func(d, s, n int64) { pieces.WriteBytes(d, p[s:s+n]) })
		checkSpanInvariants(t, batched)
		want := make([]byte, 512)
		pieces.ReadAt(want, 0)
		got := make([]byte, 512)
		batched.ReadAt(got, 0)
		if !bytes.Equal(got, want) || batched.Checksum() != Checksum(want) {
			t.Errorf("%s: WriteBlocks diverges from per-piece writes", tc.name)
		}
		if batched.SpanCount() > pieces.SpanCount() {
			t.Errorf("%s: WriteBlocks leaves %d spans, per-piece writes %d", tc.name, batched.SpanCount(), pieces.SpanCount())
		}
		if len(batched.lits) != 1 {
			t.Errorf("%s: WriteBlocks keeps %d literal entries, want 1", tc.name, len(batched.lits))
		}
	}
}

// TestCopyBlocksRunsMatchPieces: a batch copy takes each strided run as
// one span when its source is one stream run and the destination's gaps
// between its pieces are clear, and piece by piece otherwise. Either way
// it must leave the span list, bytes and checksum one CopyFrom per piece
// leaves. The rows cover both sides of every condition of the one-span
// path.
func TestCopyBlocksRunsMatchPieces(t *testing.T) {
	const n = 1024
	strided := func(off, blk, stride, count int64) (bl []datatype.Block) {
		for k := int64(0); k < count; k++ {
			bl = append(bl, datatype.Block{Offset: off + k*stride, Len: blk})
		}
		return bl
	}
	whole := func(ln int64) []datatype.Block { return []datatype.Block{{Offset: 0, Len: ln}} }
	filled := func(seed uint64) func() *Content {
		return func() *Content { c := New(n); c.Fill(seed); return c }
	}
	zero := func() *Content { return New(n) }
	// packed holds a strided leg packed into staging: one vector whose
	// blocks touch (cstride == blk) but whose stream steps by 32.
	packed := func() *Content {
		c := New(n)
		c.CopyBlocks(whole(256), filled(5)(), strided(0, 16, 32, 16))
		return c
	}
	// scattered holds a vector with zero gaps: 16-byte blocks every 32.
	scattered := func() *Content {
		c := New(n)
		c.CopyBlocks(strided(0, 16, 32, 16), filled(6)(), whole(256))
		return c
	}
	// wide holds a vector of 64-byte blocks every 128.
	wide := func() *Content {
		c := New(n)
		c.CopyBlocks(strided(0, 64, 128, 4), filled(7)(), whole(256))
		return c
	}
	twoFills := func() *Content {
		c := New(n)
		c.FillRange(0, n/2, 1, 0)
		c.FillRange(n/2, n/2, 2, 0)
		return c
	}
	literal := func() *Content {
		c := New(n)
		p := make([]byte, 512)
		rand.New(rand.NewSource(4)).Read(p)
		c.WriteBytes(0, p)
		return c
	}
	rewritten := func() *Content { // a buffer unpacked into before
		c := New(n)
		c.CopyBlocks(strided(0, 16, 64, 16), packed(), whole(256))
		return c
	}
	inner := func() *Content { // 8-byte blocks inside the pieces of later runs
		c := New(n)
		c.CopyBlocks(strided(8, 8, 64, 16), filled(3)(), whole(128))
		return c
	}
	broken := append(strided(0, 16, 32, 7), datatype.Block{Offset: 224, Len: 8})
	broken = append(broken, strided(256, 16, 32, 8)...)
	for _, tc := range []struct {
		name     string
		dst, src func() *Content
		dl, sl   []datatype.Block
	}{
		{"fill source", zero, filled(5), whole(256), strided(0, 16, 32, 16)},
		{"fill source, descending", zero, filled(5), whole(256), strided(480, 16, -32, 16)},
		{"aligned vector source", zero, packed, strided(0, 16, 64, 16), whole(256)},
		{"vector source, pieces mid-block", zero, scattered, whole(64), strided(4, 8, 64, 8)},
		{"vector source, pieces inside one block", zero, wide, whole(16), strided(136, 4, 12, 4)},
		{"misaligned vector source", zero, scattered, whole(128), strided(8, 16, 32, 8)},
		{"run across two fill spans", zero, twoFills, whole(256), strided(0, 16, 64, 16)},
		{"literal source", zero, literal, whole(128), strided(0, 8, 32, 16)},
		{"dirty destination gaps", filled(9), filled(5), strided(0, 16, 64, 16), whole(256)},
		{"destination rewritten with the same layout", rewritten, packed, strided(0, 16, 64, 16), whole(256)},
		{"run starting inside an old vector", inner, filled(5), strided(64, 16, 64, 8), whole(128)},
		{"adjacent destination blocks", zero, filled(5), strided(0, 16, 16, 16), whole(256)},
		{"run broken by one odd-length piece", zero, filled(5), broken, whole(248)},
	} {
		batched, pieces := tc.dst(), tc.dst()
		src := tc.src()
		batched.CopyBlocks(tc.dl, src, tc.sl)
		datatype.EachPiece(tc.dl, tc.sl, func(d, s, n int64) { pieces.CopyFrom(d, src, s, n) })
		checkCanonical(t, batched)
		if got, want := resolved(batched), resolved(pieces); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: batch copy spans %+v, per-piece copies %+v", tc.name, got, want)
		}
		got, want := make([]byte, n), make([]byte, n)
		batched.ReadAt(got, 0)
		pieces.ReadAt(want, 0)
		if !bytes.Equal(got, want) || batched.Checksum() != pieces.Checksum() || batched.Checksum() != Checksum(want) {
			t.Errorf("%s: batch copy bytes or checksum differ from per-piece copies", tc.name)
		}
	}
}

// TestEqualIsByteEquality checks Content.Equal against bytes.Equal on
// pairs that share a span shape but not bytes (a fill at another stream
// position, a vector with another stride) and pairs that share bytes
// but not spans (a literal over a fill, a zero-filled gap).
func TestEqualIsByteEquality(t *testing.T) {
	const n = 4096
	fill := func(pos int64) *Content {
		c := New(n)
		c.FillRange(100, 1000, 7, pos)
		return c
	}
	vec := func(pos, pstride int64) *Content {
		c := New(n)
		for k := int64(0); k < 8; k++ {
			c.FillRange(k*256, 64, 9, pos+k*pstride)
		}
		return c
	}
	litTwin := func(c *Content, off, m int64) *Content {
		p := make([]byte, m)
		c.ReadAt(p, off)
		out := c.Slice(0, c.Len())
		out.WriteBytes(off, p)
		return out
	}
	lit := func(b byte) *Content {
		c := New(n)
		c.WriteBytes(300, bytes.Repeat([]byte{b}, 50))
		return c
	}
	damaged := litTwin(fill(0), 500, 40)
	damaged.CorruptSplice(500, 40, 3)
	zeroed := fill(0)
	zeroed.Zero(0, 100)
	for _, tc := range []struct {
		name string
		a, b *Content
	}{
		{"same fill", fill(0), fill(0)},
		{"fill at another position", fill(0), fill(8)},
		{"same vector", vec(0, 64), vec(0, 64)},
		{"vector with another stream stride", vec(0, 64), vec(0, 72)},
		{"vector at another stream position", vec(0, 64), vec(8, 64)},
		{"literal over a fill", fill(0), litTwin(fill(0), 500, 40)},
		{"literal over a vector", vec(0, 64), litTwin(vec(0, 64), 200, 300)},
		{"damaged literal", fill(0), damaged},
		{"same literal bytes", lit(1), lit(1)},
		{"literal with other bytes", lit(1), lit(2)},
		{"zeroed zeros", fill(0), zeroed},
		{"other length", New(n), New(n + 1)},
	} {
		ab, bb := make([]byte, tc.a.Len()), make([]byte, tc.b.Len())
		tc.a.ReadAt(ab, 0)
		tc.b.ReadAt(bb, 0)
		want := bytes.Equal(ab, bb)
		if got := tc.a.Equal(tc.b); got != want {
			t.Errorf("%s: Equal = %v, bytes.Equal = %v", tc.name, got, want)
		}
		if got := tc.b.Equal(tc.a); got != want {
			t.Errorf("%s (swapped): Equal = %v, bytes.Equal = %v", tc.name, got, want)
		}
	}
}
