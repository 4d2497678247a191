// Package payload implements the lazy-bytes content algebra: a byte
// container represented as a sorted list of provenance spans (seeded PRF
// stream ranges, literal bytes, implicit zeros) instead of a real []byte.
//
// Copying, packing, unpacking, concatenating, and slicing lazy content are
// span-list manipulations — O(spans), independent of the byte count — which
// is what lets the simulator carry multi-gigabyte aggregate payloads across
// a 1024-rank cluster without ever allocating them. Correctness stays
// observable through an FNV-1a checksum computed by streaming the spans:
// for identical logical bytes it equals Checksum() over a real []byte, so a
// lazy run and a byte-exact run can be compared checksum-for-checksum.
//
// The stream source is a position-addressable PRF (splitmix64 per 8-byte
// block), NOT the sequential LCG of workload.FillPattern: a span copied to
// a new offset must still be able to materialize or hash any sub-range in
// O(1) seek time.
package payload

import (
	"fmt"
	"sort"
	"sync"
)

// --- position-addressable PRF stream ---

// prfWord returns 8 bytes of stream `seed` at block index blk (bytes
// [8*blk, 8*blk+8) of the stream), using the splitmix64 finalizer.
func prfWord(seed uint64, blk int64) uint64 {
	x := seed + (uint64(blk)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// StreamAt materializes bytes [pos, pos+len(p)) of stream `seed` into p:
// byte at is byte at&7 (little-endian) of word prfWord(seed, at>>3), each
// word computed once.
func StreamAt(seed uint64, pos int64, p []byte) {
	for i := 0; i < len(p); {
		at := pos + int64(i)
		w := prfWord(seed, at>>3) >> (8 * uint(at&7))
		for k := at & 7; k < 8 && i < len(p); k++ {
			p[i] = byte(w)
			w >>= 8
			i++
		}
	}
}

// FillBytes fills p with the first len(p) bytes of stream `seed` — the
// byte-exact twin of Content.Fill, used so exact and lazy runs start from
// identical logical buffer contents.
func FillBytes(p []byte, seed uint64) { StreamAt(seed, 0, p) }

// --- FNV-1a 64 ---

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Checksum is FNV-1a 64 over real bytes; Content.Checksum matches it for
// identical logical content.
func Checksum(p []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// hashZeros advances an FNV-1a state over n zero bytes in O(log n):
// hashing a zero byte multiplies the state by the prime, so n zeros
// multiply by prime^n.
func hashZeros(h uint64, n int64) uint64 {
	p := uint64(fnvPrime)
	for e := uint64(n); e > 0; e >>= 1 {
		if e&1 == 1 {
			h *= p
		}
		p *= p
	}
	return h
}

// --- spans ---

type srcKind uint8

const (
	srcFill srcKind = iota // bytes [pos, pos+n) of PRF stream `seed`
	srcLit                 // bytes [pos, pos+n) of literal `seed` in Content.lits
)

// span is one contiguous run of non-zero provenance inside a Content.
// Ranges not covered by any span read as zero. A span holds no pointers —
// literal bytes live in the owning Content's table — so span lists are
// never scanned by the garbage collector and shifting them is a plain
// memmove without write barriers.
type span struct {
	off  int64  // offset within the content
	n    int64  // length in bytes
	seed uint64 // srcFill: stream seed; srcLit: index into Content.lits
	pos  int64  // position of the span's first byte in its stream or literal
	kind srcKind
}

// trim returns the sub-span covering content range [a, b).
func (s span) trim(a, b int64) span {
	s.pos += a - s.off
	s.off, s.n = a, b-a
	return s
}

// mergeable reports whether b directly continues a (so the two can be one
// span). Literal spans are never merged, so a content's span count does
// not depend on how its literals are shared.
func mergeable(a, b span) bool {
	return a.kind == srcFill && b.kind == srcFill &&
		a.off+a.n == b.off && a.seed == b.seed && a.pos+a.n == b.pos
}

// litSlack is how many dead literal-table entries a Content tolerates
// beyond twice its live literal spans before compacting the table.
const litSlack = 16

// addPool holds the staging span lists CopyFrom, Gather and Scatter build
// before their single splice (source spans must be snapshotted before the
// destination is mutated: self-copies alias).
var addPool = sync.Pool{New: func() any { return new([]span) }}

// --- Content ---

// Content is a fixed-length lazy byte container. The zero-span Content
// reads as all zeros.
type Content struct {
	n     int64
	spans []span
	// lits is the literal table srcLit spans index. Entries are immutable
	// once attached, so copying a literal span into another Content
	// re-homes only the slice header. nlit counts the live srcLit spans;
	// the table is compacted when it outgrows them.
	lits [][]byte
	nlit int
}

// New returns an all-zero Content of n bytes.
func New(n int64) *Content {
	if n < 0 {
		panic(fmt.Sprintf("payload: negative content length %d", n))
	}
	return &Content{n: n}
}

// Len returns the content length in bytes.
func (c *Content) Len() int64 { return c.n }

// SpanCount reports the current span-list length (for leak/blowup tests).
func (c *Content) SpanCount() int { return len(c.spans) }

func (c *Content) checkRange(op string, off, n int64) {
	if n < 0 || off < 0 || off+n > c.n {
		panic(fmt.Sprintf("payload: %s range [%d,%d) out of content [0,%d)", op, off, off+n, c.n))
	}
}

// firstOverlap returns the index of the first span whose end is past off.
func (c *Content) firstOverlap(off int64) int {
	return sort.Search(len(c.spans), func(i int) bool { return c.spans[i].off+c.spans[i].n > off })
}

// lit returns the bytes of literal span s.
func (c *Content) lit(s span) []byte { return c.lits[s.seed][s.pos : s.pos+s.n] }

// homeLit returns the index of literal p in c's table, appending it unless
// it is the last entry already (consecutive spans from one source literal
// share one entry).
func (c *Content) homeLit(p []byte) uint64 {
	if k := len(c.lits) - 1; k >= 0 && len(c.lits[k]) == len(p) && &c.lits[k][0] == &p[0] {
		return uint64(k)
	}
	c.lits = append(c.lits, p)
	return uint64(len(c.lits) - 1)
}

// compactLits drops literal-table entries no span references, keeping the
// survivors in order and renumbering the spans that use them.
func (c *Content) compactLits() {
	idx := make([]int32, len(c.lits))
	for _, s := range c.spans {
		if s.kind == srcLit {
			idx[s.seed] = 1
		}
	}
	w := int32(0)
	for k, live := range idx {
		if live != 0 {
			idx[k] = w
			c.lits[w] = c.lits[k]
			w++
		}
	}
	clear(c.lits[w:])
	c.lits = c.lits[:w]
	for i := range c.spans {
		if s := &c.spans[i]; s.kind == srcLit {
			s.seed = uint64(idx[s.seed])
		}
	}
}

// splice replaces coverage of [off, end) with add (sorted, within
// [off, end)), splitting boundary spans, then coalesces mergeable fill
// spans at the seams. The span list is shifted in place: no temporary
// slice proportional to the tail is ever allocated, so a copy into a
// bundle holding thousands of spans stays O(spans moved), not O(bytes
// allocated) — the operation sits on the simulator's hottest path.
func (c *Content) splice(off, end int64, add []span) {
	i := c.firstOverlap(off)
	var left, right span
	var hasLeft, hasRight bool
	j := i
	for j < len(c.spans) && c.spans[j].off < end {
		if c.spans[j].kind == srcLit {
			c.nlit--
		}
		j++
	}
	if j > i {
		if c.spans[i].off < off {
			left = c.spans[i].trim(c.spans[i].off, off)
			hasLeft = true
		}
		if last := c.spans[j-1]; last.off+last.n > end {
			right = last.trim(end, last.off+last.n)
			hasRight = true
		}
	}
	newLen := len(add)
	if hasLeft {
		newLen++
	}
	if hasRight {
		newLen++
	}
	oldLen := len(c.spans)
	if d := newLen - (j - i); d > 0 {
		c.spans = append(c.spans, make([]span, d)...)
		copy(c.spans[i+newLen:], c.spans[j:oldLen])
	} else if d < 0 {
		copy(c.spans[i+newLen:], c.spans[j:])
		c.spans = c.spans[:oldLen+d]
	}
	w := i
	if hasLeft {
		c.spans[w] = left
		w++
	}
	copy(c.spans[w:], add)
	w += len(add)
	if hasRight {
		c.spans[w] = right
	}
	for _, s := range c.spans[i : i+newLen] {
		if s.kind == srcLit {
			c.nlit++
		}
	}
	c.coalesce(i, i+newLen)
	if len(c.lits) > 2*c.nlit+litSlack {
		c.compactLits()
	}
}

// coalesce merges mergeable neighbors around spans [from, to).
func (c *Content) coalesce(from, to int) {
	lo := from - 1
	if lo < 0 {
		lo = 0
	}
	hi := to + 1
	if hi > len(c.spans) {
		hi = len(c.spans)
	}
	w := lo
	for i := lo; i < hi; i++ {
		if w > lo && mergeable(c.spans[w-1], c.spans[i]) {
			c.spans[w-1].n += c.spans[i].n
			continue
		}
		c.spans[w] = c.spans[i]
		w++
	}
	if w < hi {
		c.spans = append(c.spans[:w], c.spans[hi:]...)
	}
}

// Reset makes c an all-zero content of n bytes, as New(n) would, but keeps
// the capacity of its span list and literal table so a reused buffer does
// not grow them from nothing again. No literal from before the reset stays
// reachable.
func (c *Content) Reset(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("payload: negative content length %d", n))
	}
	c.n = n
	c.spans = c.spans[:0]
	clear(c.lits)
	c.lits, c.nlit = c.lits[:0], 0
}

// Fill sets the whole content to bytes [0, Len) of PRF stream `seed`.
func (c *Content) Fill(seed uint64) {
	c.Reset(c.n)
	if c.n > 0 {
		c.spans = append(c.spans, span{off: 0, n: c.n, kind: srcFill, seed: seed})
	}
}

// FillRange sets [off, off+n) to bytes [pos, pos+n) of stream `seed`.
func (c *Content) FillRange(off, n int64, seed uint64, pos int64) {
	c.checkRange("FillRange", off, n)
	if n == 0 {
		return
	}
	c.splice(off, off+n, []span{{off: off, n: n, kind: srcFill, seed: seed, pos: pos}})
}

// Zero clears [off, off+n) back to zero bytes.
func (c *Content) Zero(off, n int64) {
	c.checkRange("Zero", off, n)
	if n == 0 {
		return
	}
	c.splice(off, off+n, nil)
}

// WriteBytes copies p into the content at off (p is cloned: literals are
// immutable so snapshots and slices can alias them safely).
func (c *Content) WriteBytes(off int64, p []byte) {
	c.checkRange("WriteBytes", off, int64(len(p)))
	if len(p) == 0 {
		return
	}
	k := c.homeLit(append([]byte(nil), p...))
	n := int64(len(p))
	c.splice(off, off+n, []span{{off: off, n: n, kind: srcLit, seed: k}})
}

// ReadAt materializes content range [off, off+len(p)) into p.
func (c *Content) ReadAt(p []byte, off int64) {
	n := int64(len(p))
	c.checkRange("ReadAt", off, n)
	if n == 0 {
		return
	}
	end := off + n
	pos := off
	for i := c.firstOverlap(off); i < len(c.spans) && c.spans[i].off < end; i++ {
		s := c.spans[i]
		a, b := max(s.off, off), min(s.off+s.n, end)
		clear(p[pos-off : a-off])
		t := s.trim(a, b)
		if t.kind == srcFill {
			StreamAt(t.seed, t.pos, p[a-off:b-off])
		} else {
			copy(p[a-off:b-off], c.lit(t))
		}
		pos = b
	}
	clear(p[pos-off:])
}

// appendSpans appends the spans of src covering [srcOff, srcOff+n), moved
// to start at dstOff, to add. Literal spans of another content are
// re-homed into c's table; a self-copy keeps its own indices.
func (c *Content) appendSpans(add []span, dstOff int64, src *Content, srcOff, n int64) []span {
	if n == 0 {
		return add
	}
	delta := dstOff - srcOff
	end := srcOff + n
	for i := src.firstOverlap(srcOff); i < len(src.spans) && src.spans[i].off < end; i++ {
		s := src.spans[i]
		t := s.trim(max(s.off, srcOff), min(s.off+s.n, end))
		t.off += delta
		if t.kind == srcLit && src != c {
			t.seed = c.homeLit(src.lits[t.seed])
		}
		add = append(add, t)
	}
	return add
}

// CopyFrom copies n bytes of src starting at srcOff into c at dstOff —
// the core algebra op behind pack/unpack/concat. Self-copies (src == c)
// are allowed; overlapping ranges behave like memmove.
func (c *Content) CopyFrom(dstOff int64, src *Content, srcOff, n int64) {
	c.checkRange("CopyFrom dst", dstOff, n)
	src.checkRange("CopyFrom src", srcOff, n)
	if n == 0 {
		return
	}
	p := addPool.Get().(*[]span)
	add := c.appendSpans((*p)[:0], dstOff, src, srcOff, n)
	c.splice(dstOff, dstOff+n, add)
	*p = add[:0]
	addPool.Put(p)
}

// Gather copies src's ranges at(0), …, at(nr-1), in list order, into c's
// contiguous range starting at dstOff: a whole block-list pack as one
// splice. The ranges may be unsorted or overlap, since src is only read.
// A self-gather whose ranges overlap the destination range falls back to
// one CopyFrom per range, which keeps sequential copy semantics.
func (c *Content) Gather(dstOff int64, src *Content, nr int, at func(i int) (off, n int64)) {
	var total int64
	for i := 0; i < nr; i++ {
		off, n := at(i)
		src.checkRange("Gather src", off, n)
		total += n
	}
	c.checkRange("Gather dst", dstOff, total)
	end := dstOff + total
	batch := true
	if src == c {
		for i := 0; i < nr && batch; i++ {
			off, n := at(i)
			batch = n == 0 || off >= end || off+n <= dstOff
		}
	}
	w := dstOff
	if !batch {
		for i := 0; i < nr; i++ {
			off, n := at(i)
			c.CopyFrom(w, src, off, n)
			w += n
		}
		return
	}
	if total == 0 {
		return
	}
	p := addPool.Get().(*[]span)
	add := (*p)[:0]
	for i := 0; i < nr; i++ {
		off, n := at(i)
		add = c.appendSpans(add, w, src, off, n)
		w += n
	}
	c.splice(dstOff, end, add)
	*p = add[:0]
	addPool.Put(p)
}

// Scatter copies src's contiguous range starting at srcOff into c's
// ranges at(0), …, at(nr-1), in list order: a whole block-list unpack as
// one splice, the gaps between the ranges keeping c's own spans. Ranges
// that are not ascending and disjoint, and a self-scatter whose source
// overlaps them, fall back to one CopyFrom per range.
func (c *Content) Scatter(nr int, at func(i int) (off, n int64), src *Content, srcOff int64) {
	var total int64
	lo, hi := int64(-1), int64(0)
	batch := true
	for i := 0; i < nr; i++ {
		off, n := at(i)
		c.checkRange("Scatter dst", off, n)
		total += n
		if n == 0 {
			continue
		}
		if lo < 0 {
			lo = off
		} else if off < hi {
			batch = false
		}
		hi = off + n
	}
	src.checkRange("Scatter src", srcOff, total)
	if batch && src == c && srcOff < hi && srcOff+total > lo {
		batch = false
	}
	r := srcOff
	if !batch {
		for i := 0; i < nr; i++ {
			off, n := at(i)
			c.CopyFrom(off, src, r, n)
			r += n
		}
		return
	}
	if total == 0 {
		return
	}
	p := addPool.Get().(*[]span)
	add := (*p)[:0]
	prev := lo
	for i := 0; i < nr; i++ {
		off, n := at(i)
		if n == 0 {
			continue
		}
		add = c.appendSpans(add, prev, c, prev, off-prev)
		add = c.appendSpans(add, off, src, r, n)
		r += n
		prev = off + n
	}
	c.splice(lo, prev, add)
	*p = add[:0]
	addPool.Put(p)
}

// Slice returns an immutable snapshot of content range [off, off+n) as a
// fresh Content of length n. O(spans in range); literal bytes are shared,
// never copied (they are immutable by construction).
func (c *Content) Slice(off, n int64) *Content {
	c.checkRange("Slice", off, n)
	out := New(n)
	out.CopyFrom(0, c, off, n)
	return out
}

// Concat returns a fresh Content holding a followed by b.
func Concat(a, b *Content) *Content {
	out := New(a.n + b.n)
	out.CopyFrom(0, a, 0, a.n)
	out.CopyFrom(a.n, b, 0, b.n)
	return out
}

// CorruptSplice deterministically damages range [off, off+n) in place —
// the span-algebra model of in-flight wire corruption. The byte at
// off + n/2 (the same index the byte-exact reliability layer flips) is
// XOR-ed with a non-zero mask drawn from PRF stream `seed` at that
// position and spliced back as a one-byte literal span. FNV-1a is a
// bijection per input byte, so a single-byte change always changes
// Checksum(): a spliced-corrupt payload can never slip past the
// receiver's CRC. Applying the same (off, n, seed) splice twice restores
// the original content exactly (XOR involution), which the fuzz target
// exploits.
func (c *Content) CorruptSplice(off, n int64, seed uint64) {
	c.checkRange("CorruptSplice", off, n)
	if n == 0 {
		return
	}
	pos := off + n/2
	var b, m [1]byte
	c.ReadAt(b[:], pos)
	StreamAt(seed, pos, m[:])
	if m[0] == 0 {
		m[0] = 0xa5
	}
	b[0] ^= m[0]
	c.WriteBytes(pos, b[:])
}

// Checksum returns the FNV-1a 64 hash of the full logical byte string,
// streamed from the spans without materializing the content. Zero gaps
// advance the hash in O(log gap).
func (c *Content) Checksum() uint64 { return c.ChecksumRange(0, c.n) }

// ChecksumRange hashes content range [off, off+n) the same way Checksum
// hashes the whole content.
func (c *Content) ChecksumRange(off, n int64) uint64 {
	c.checkRange("ChecksumRange", off, n)
	h := uint64(fnvOffset)
	end := off + n
	pos := off
	var buf [512]byte
	for i := c.firstOverlap(off); i < len(c.spans) && c.spans[i].off < end; i++ {
		s := c.spans[i]
		a, b := max(s.off, off), min(s.off+s.n, end)
		h = hashZeros(h, a-pos)
		t := s.trim(a, b)
		if t.kind == srcLit {
			for _, v := range c.lit(t) {
				h = (h ^ uint64(v)) * fnvPrime
			}
		} else {
			for w := int64(0); w < t.n; {
				k := t.n - w
				if k > int64(len(buf)) {
					k = int64(len(buf))
				}
				StreamAt(t.seed, t.pos+w, buf[:k])
				for _, v := range buf[:k] {
					h = (h ^ uint64(v)) * fnvPrime
				}
				w += k
			}
		}
		pos = b
	}
	return hashZeros(h, end-pos)
}
