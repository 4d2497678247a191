// Package payload implements the lazy-bytes content algebra: a byte
// container represented as a sorted list of provenance spans (seeded PRF
// stream ranges, strided vectors of PRF blocks, literal bytes, implicit
// zeros) instead of a real []byte.
//
// Copying, packing, unpacking, concatenating, and slicing lazy content are
// span-list manipulations — O(spans), independent of the byte count — which
// is what lets the simulator carry multi-gigabyte aggregate payloads across
// a 1024-rank cluster without ever allocating them. Correctness stays
// observable through an FNV-1a checksum computed by streaming the spans:
// for identical logical bytes it equals Checksum() over a real []byte, so a
// lazy run and a byte-exact run can be compared checksum-for-checksum.
//
// A span is 40 bytes of scalars (offset, length, seed, position, kind) in
// one of three kinds. A fill span reads a range of one PRF stream. A
// literal span reads a range of an immutable byte slice in its content's
// literal table; its seed is the table index. A vector span is count
// blocks of blk bytes, one every cstride content bytes, block k reading
// stream seed from pos + k*pstride, with zero bytes between the blocks;
// the shape (stream seed, blk, cstride, pstride) lives in its content's
// shape table and the span's seed is the table index. The list is kept in
// one canonical form (see Content), formed wherever spans are appended, so
// a strided leg packed into contiguous staging or unpacked into a zeroed
// buffer is one span, not one per block, whatever copies built it.
//
// A block-list copy walks strided runs, not pieces: a run of equal
// pieces at constant steps whose source is one stream run (inside one
// fill span, or inside the blocks of one vector span) and whose
// destination gaps hold no span is pushed as one span. Any other run is
// copied piece by piece; both ways build the same canonical list.
//
// The stream source is a position-addressable PRF (splitmix64 per 8-byte
// block), so a span copied to a new offset can still materialize or hash
// any sub-range in O(1) seek time. FillBytes writes the same stream into
// real bytes; workload.FillPattern is FillBytes, so exact and lazy runs
// fill the same bytes from the same seed.
package payload

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"repro/internal/datatype"
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
func Checksum(p []byte) uint64 { return hashBytes(fnvOffset, p) }

// hashBytes advances an FNV-1a state over p.
func hashBytes(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h
}

// hashStream advances an FNV-1a state over bytes [pos, pos+n) of stream
// `seed` in one pass, hashing each PRF word as it is computed: eight
// unrolled steps per whole word, a partial word only at the ends, and no
// byte ever materialized.
func hashStream(h, seed uint64, pos, n int64) uint64 {
	for end := pos + n; pos < end; {
		w := prfWord(seed, pos>>3) >> (8 * uint(pos&7))
		if k := min(8-pos&7, end-pos); k < 8 {
			for pos += k; k > 0; k-- {
				h = (h ^ w&0xff) * fnvPrime
				w >>= 8
			}
			continue
		}
		h = (h ^ w&0xff) * fnvPrime
		h = (h ^ w>>8&0xff) * fnvPrime
		h = (h ^ w>>16&0xff) * fnvPrime
		h = (h ^ w>>24&0xff) * fnvPrime
		h = (h ^ w>>32&0xff) * fnvPrime
		h = (h ^ w>>40&0xff) * fnvPrime
		h = (h ^ w>>48&0xff) * fnvPrime
		h = (h ^ w>>56) * fnvPrime
		pos += 8
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
	srcVec                 // blocks of shape `seed` in Content.vecs, block 0 reading its stream from pos
)

// span is one run of non-zero provenance inside a Content: a contiguous
// fill or literal range, or a vector of equal fill blocks whose gaps read
// as zero. Ranges not covered by any span read as zero. A span holds no
// pointers — literal bytes and vector shapes live in the owning Content's
// tables — so span lists are never scanned by the garbage collector and
// shifting them is a plain memmove without write barriers.
type span struct {
	off  int64  // offset within the content
	n    int64  // length in bytes; a vector's runs from its first block's start to its last block's end
	seed uint64 // srcFill: stream seed; srcLit: index into Content.lits; srcVec: index into Content.vecs
	pos  int64  // position of the span's first byte in its stream or literal
	kind srcKind
}

// trim returns the sub-span of a fill or literal span covering content
// range [a, b).
func (s span) trim(a, b int64) span {
	s.pos += a - s.off
	s.off, s.n = a, b-a
	return s
}

// shape is the stride pattern of a vector span: blocks of blk bytes, one
// every cstride content bytes, block k reading stream seed from the span's
// pos + k*pstride. A vector holds two or more blocks and never has
// cstride == pstride == blk (that is one fill span).
type shape struct {
	seed                  uint64
	blk, cstride, pstride int64
}

// count returns how many blocks vector s of shape sh holds.
func (sh shape) count(s span) int64 { return (s.n-sh.blk)/sh.cstride + 1 }

// block returns block k of vector s as a fill span.
func (sh shape) block(s span, k int64) span {
	return span{off: s.off + k*sh.cstride, n: sh.blk, seed: sh.seed, pos: s.pos + k*sh.pstride}
}

// blocks returns blocks k0 through k1 of vector s as one span: a vector
// when they are two or more, a fill span when one.
func (sh shape) blocks(s span, k0, k1 int64) span {
	b := sh.block(s, k0)
	if k1 > k0 {
		b.n, b.seed, b.kind = (k1-k0)*sh.cstride+sh.blk, s.seed, srcVec
	}
	return b
}

// overlap returns the first and last blocks of vector s that overlap
// content range [a, b); k0 > k1 when the range lies in one gap.
func (sh shape) overlap(s span, a, b int64) (k0, k1 int64) {
	a, b = max(a, s.off), min(b, s.off+s.n)
	return (a - s.off + sh.cstride - sh.blk) / sh.cstride, (b - s.off - 1) / sh.cstride
}

// continues reports whether fill span b starts where fill span a ends, in
// both the content and a's stream.
func continues(a, b span) bool {
	return a.seed == b.seed && a.off+a.n == b.off && a.pos+a.n == b.pos
}

// litSlack is how many dead entries the literal table, and the shape
// table, tolerate beyond twice their live spans before compaction.
const litSlack = 16

// seekWalk is how many spans seek walks forward from its hint before it
// falls back to a binary search.
const seekWalk = 8

// addPool holds the staging span lists every splice takes its new spans
// from (a copy's source spans must be snapshotted before the destination
// is mutated: self-copies alias) and rebuilds its window in.
var addPool = sync.Pool{New: func() any { return new([]span) }}

// --- Content ---

// Content is a fixed-length lazy byte container. The zero-span Content
// reads as all zeros.
//
// Its span list is canonical: the same bytes of provenance always give
// the same list, whatever sequence of copies built them. Fill spans are
// maximal (no fill span continues the one before it), and the maximal
// fill runs between literal spans are grouped greedily from the left:
// a run opens a group, and each following run joins it while it has the
// group's seed and length and steps by the group's content and stream
// strides. A group of one run is a fill span, a longer one a vector.
// Literal spans never merge.
type Content struct {
	n     int64
	spans []span
	// lits is the literal table srcLit spans index. Entries are immutable
	// once attached, so copying a literal span into another Content
	// re-homes only the slice header. nlit counts the live srcLit spans;
	// the table is compacted when it outgrows them.
	lits [][]byte
	nlit int
	// vecs is the shape table srcVec spans index, kept like lits: nvec
	// counts the live srcVec spans.
	vecs []shape
	nvec int
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

// checkRange panics unless [off, off+n) lies inside c. It inlines into
// the per-block checks of a batch copy; the panic text is built out of
// line.
func (c *Content) checkRange(op string, off, n int64) {
	if n < 0 || off < 0 || off+n > c.n {
		c.rangePanic(op, off, n)
	}
}

//go:noinline
func (c *Content) rangePanic(op string, off, n int64) {
	panic(fmt.Sprintf("payload: %s range [%d,%d) out of content [0,%d)", op, off, off+n, c.n))
}

// firstOverlap returns the index of the first span whose end is past off.
func (c *Content) firstOverlap(off int64) int {
	return sort.Search(len(c.spans), func(i int) bool { return c.spans[i].off+c.spans[i].n > off })
}

// seek returns firstOverlap(off), walking forward from span hint when
// every span before hint ends at or before off and the answer is near.
func (c *Content) seek(hint int, off int64) int {
	if hint > len(c.spans) || hint > 0 && c.spans[hint-1].off+c.spans[hint-1].n > off {
		return c.firstOverlap(off)
	}
	for stop := hint + seekWalk; hint < len(c.spans) && c.spans[hint].off+c.spans[hint].n <= off; hint++ {
		if hint == stop {
			return c.firstOverlap(off)
		}
	}
	return hint
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

// homeShape returns an index of shape sh, for a vector at content offset
// off, in c's table: the index of the vector c holds at off already, or
// of the table's last entry, when either has shape sh, and a new entry
// otherwise. A buffer rewritten with the same layouts step after step so
// reuses its entries instead of growing and compacting its table.
func (c *Content) homeShape(sh shape, off int64) uint64 {
	if i := c.firstOverlap(off); i < len(c.spans) && c.spans[i].kind == srcVec && c.vecs[c.spans[i].seed] == sh {
		return c.spans[i].seed
	}
	if k := len(c.vecs) - 1; k >= 0 && c.vecs[k] == sh {
		return uint64(k)
	}
	c.vecs = append(c.vecs, sh)
	return uint64(len(c.vecs) - 1)
}

// compact drops the entries of table tab that no span of kind k
// references, keeping the survivors in order and renumbering the spans
// that use them.
func compact[T any](tab []T, spans []span, k srcKind) []T {
	var buf [64]int32
	var idx []int32
	if len(tab) <= len(buf) {
		idx = buf[:len(tab)]
	} else {
		idx = make([]int32, len(tab))
	}
	for _, s := range spans {
		if s.kind == k {
			idx[s.seed] = 1
		}
	}
	w := int32(0)
	for i, live := range idx {
		if live != 0 {
			idx[i] = w
			tab[w] = tab[i]
			w++
		}
	}
	clear(tab[w:])
	for i := range spans {
		if s := &spans[i]; s.kind == k {
			s.seed = uint64(idx[s.seed])
		}
	}
	return tab[:w]
}

// stepPos returns how far into its stream a vector's block d content
// bytes after block 0 starts (d a multiple of cstride), dividing only
// when the two strides differ.
func (sh *shape) stepPos(d int64) int64 {
	if sh.pstride == sh.cstride {
		return d
	}
	return d / sh.cstride * sh.pstride
}

// link reports how fill span r, placed right after span last with nothing
// between, relates to it: r continues last's final block (cont), or r
// steps last — repeats a fill span's seed and length, or is the next
// block of a vector (step).
func (c *Content) link(last, r *span) (cont, step bool) {
	switch last.kind {
	case srcFill:
		cont = continues(*last, *r)
		return cont, !cont && last.seed == r.seed && last.n == r.n
	case srcVec:
		sh := &c.vecs[last.seed]
		bo := last.off + last.n - sh.blk // the final block's offset
		if sh.seed != r.seed {
			return false, false
		}
		if r.off != bo+sh.cstride && r.off != bo+sh.blk {
			return false, false
		}
		bp := last.pos + sh.stepPos(bo-last.off) // the final block's stream position
		cont = r.off == bo+sh.blk && r.pos == bp+sh.blk
		return cont, !cont && r.off == bo+sh.cstride && r.n == sh.blk && r.pos == bp+sh.pstride
	}
	return false, false
}

// pushRun appends fill span r, which starts at or after the end of the
// canonical list out, and keeps the list canonical. The last span of out
// is the only one r can change: r adds a block to a vector it steps,
// turns a fill span of r's seed and length into a vector, extends a fill
// span it continues, or takes the final block off a vector whose final
// block it continues.
func (c *Content) pushRun(out []span, r span) []span {
	l := len(out) - 1
	if l < 0 {
		return append(out, r)
	}
	last := &out[l]
	cont, step := c.link(last, &r)
	switch {
	case step && last.kind == srcVec:
		last.n += c.vecs[last.seed].cstride
		return out
	case step:
		last.seed = c.homeShape(shape{seed: r.seed, blk: r.n, cstride: r.off - last.off, pstride: r.pos - last.pos}, last.off)
		last.n, last.kind = r.off+r.n-last.off, srcVec
		return out
	case cont && last.kind == srcFill:
		// The longer fill span may now step the span before it.
		grown := *last
		grown.n += r.n
		return c.pushRun(out[:l], grown)
	case cont:
		sh := c.vecs[last.seed]
		k := sh.count(*last) - 1
		b := sh.block(*last, k)
		*last = sh.blocks(*last, 0, k-1)
		b.n += r.n
		return append(out, b)
	}
	return append(out, r)
}

// push appends span s (indices in c's tables), which starts at or after
// the end of the canonical list out, and keeps the list canonical. A
// vector costs O(1): only its first block can meet the list.
func (c *Content) push(out []span, s span) []span {
	switch s.kind {
	case srcLit:
		return append(out, s)
	case srcFill:
		return c.pushRun(out, s)
	}
	sh := c.vecs[s.seed]
	b0 := sh.block(s, 0)
	l := len(out)
	out = c.pushRun(out, b0)
	switch last := &out[len(out)-1]; {
	case len(out) == l+1 && *last == b0:
		*last = s // block 0 opens a span, so the whole vector does
	case last.kind == srcVec && last.off+last.n == b0.off+b0.n && c.vecs[last.seed] == sh:
		last.n = s.off + s.n - last.off // block 0 stepped a vector of the same shape
	default:
		out = append(out, sh.blocks(s, 1, sh.count(s)-1))
	}
	return out
}

// pushCut pushes the pieces of src's span s inside content range [a, b),
// moved by delta, re-homing literals and shapes when src is not c. A fill
// or literal span is one piece, and so is a range inside one block of a
// vector; a longer range of a vector is at most three — a partial head
// block, a vector of whole blocks and a partial tail block.
func (c *Content) pushCut(out []span, src *Content, s span, a, b, delta int64) []span {
	a, b = max(a, s.off), min(b, s.off+s.n)
	if a >= b {
		return out
	}
	if s.kind != srcVec {
		t := s.trim(a, b)
		t.off += delta
		if t.kind == srcLit {
			if src != c {
				t.seed = c.homeLit(src.lits[t.seed])
			}
			return append(out, t)
		}
		return c.pushRun(out, t)
	}
	sh := &src.vecs[s.seed]
	k := (a - s.off) / sh.cstride
	bo := s.off + k*sh.cstride // block k's offset
	if a >= bo+sh.blk {        // a lies in a gap
		k, bo = k+1, bo+sh.cstride
	}
	piece := func(k, bo, a, b int64) span { // bytes [a, b) of block k, at bo
		return span{off: a + delta, n: b - a, seed: sh.seed, pos: s.pos + k*sh.pstride + a - bo}
	}
	if b <= bo+sh.blk {
		if b <= bo {
			return out
		}
		return c.pushRun(out, piece(k, bo, max(a, bo), b))
	}
	if a > bo {
		out = c.pushRun(out, piece(k, bo, a, bo+sh.blk))
		k, bo = k+1, bo+sh.cstride
	}
	kt := (b - s.off - 1) / sh.cstride // the last block starting before b
	to := s.off + kt*sh.cstride
	cutTail, kh := b < to+sh.blk, kt
	if cutTail {
		kh--
	}
	if k <= kh {
		mid := sh.blocks(s, k, kh)
		mid.off += delta
		if mid.kind == srcVec && src != c {
			mid.seed = c.homeShape(*sh, mid.off)
		}
		out = c.push(out, mid)
	}
	if cutTail {
		out = c.pushRun(out, piece(kt, to, to, b))
	}
	return out
}

// joins reports whether pushing s onto out would change out's last span.
func (c *Content) joins(out []span, s span) bool {
	if len(out) == 0 || s.kind == srcLit {
		return false
	}
	if s.kind == srcVec {
		s = c.vecs[s.seed].block(s, 0)
	}
	cont, step := c.link(&out[len(out)-1], &s)
	return cont || step
}

// tally adds d to the live literal and vector counts of spans.
func (c *Content) tally(spans []span, d int) {
	for _, s := range spans {
		switch s.kind {
		case srcLit:
			c.nlit += d
		case srcVec:
			c.nvec += d
		}
	}
}

// splice replaces coverage of [off, end) with add (canonical, within
// [off, end), indices in c's tables) and restores the canonical form. It
// regroups from two spans left of the change (a fill span the change
// grows may join the one before it), cutting the boundary spans, and
// stops at the first old span right of the change that the regrouping
// leaves as it was, so an ascending append touches O(1) spans. The
// window is rebuilt in add's spare capacity, past its spans, and written
// back with one shift of the tail in place: no temporary proportional to
// the tail is ever allocated, so a copy into a bundle holding thousands of
// spans stays O(spans moved) — the operation sits on the simulator's
// hottest path. splice returns whichever of add and the window holds the
// larger array, emptied, for the caller to pool.
func (c *Content) splice(off, end int64, add []span) []span {
	i := c.firstOverlap(off)
	j := i
	for j < len(c.spans) && c.spans[j].off < end {
		j++
	}
	w := max(i-2, 0)
	if need := 2*len(add) + i - w + 8; cap(add) < need {
		// Room for the window past add, so the pooled list keeps it.
		add = append(make([]span, 0, need), add...)
	}
	out := append(add[len(add):], c.spans[w:i]...)
	if j > i {
		out = c.pushCut(out, c, c.spans[i], c.spans[i].off, off, 0)
	}
	for _, s := range add {
		out = c.push(out, s)
	}
	if j > i {
		s := c.spans[j-1]
		out = c.pushCut(out, c, s, end, s.off+s.n, 0)
	}
	for ; j < len(c.spans) && c.joins(out, c.spans[j]); j++ {
		out = c.push(out, c.spans[j])
	}
	c.replace(w, j, out)
	if len(c.lits) > 2*c.nlit+litSlack {
		c.lits = compact(c.lits, c.spans, srcLit)
	}
	if len(c.vecs) > 2*c.nvec+litSlack {
		c.vecs = compact(c.vecs, c.spans, srcVec)
	}
	if cap(out) > cap(add) {
		return out[:0]
	}
	return add[:0]
}

// put replaces coverage of [off, end) with span s, or with nothing when s
// is empty, through a pooled list.
func (c *Content) put(off, end int64, s span) {
	p := addPool.Get().(*[]span)
	add := (*p)[:0]
	if s.n > 0 {
		add = append(add, s)
	}
	*p = c.splice(off, end, add)
	addPool.Put(p)
}

// replace swaps spans [i, j) for repl, shifting the tail in place.
func (c *Content) replace(i, j int, repl []span) {
	c.tally(c.spans[i:j], -1)
	c.tally(repl, 1)
	oldLen := len(c.spans)
	if d := len(repl) - (j - i); d > 0 {
		c.spans = append(c.spans, make([]span, d)...)
		copy(c.spans[i+len(repl):], c.spans[j:oldLen])
	} else if d < 0 {
		copy(c.spans[i+len(repl):], c.spans[j:])
		c.spans = c.spans[:oldLen+d]
	}
	copy(c.spans[i:], repl)
}

// Reset makes c an all-zero content of n bytes, as New(n) would, but keeps
// the capacity of its span list and tables so a reused buffer does not
// grow them from nothing again. No literal from before the reset stays
// reachable.
func (c *Content) Reset(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("payload: negative content length %d", n))
	}
	c.n = n
	c.spans = c.spans[:0]
	clear(c.lits)
	c.lits, c.nlit = c.lits[:0], 0
	c.vecs, c.nvec = c.vecs[:0], 0
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
	c.put(off, off+n, span{off: off, n: n, kind: srcFill, seed: seed, pos: pos})
}

// Zero clears [off, off+n) back to zero bytes.
func (c *Content) Zero(off, n int64) {
	c.checkRange("Zero", off, n)
	if n == 0 {
		return
	}
	c.put(off, off+n, span{})
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
	c.put(off, off+n, span{off: off, n: n, kind: srcLit, seed: k})
}

// pieces calls fn with each contiguous fill or literal piece of content
// range [off, end), in order, walking vectors block by block.
func (c *Content) pieces(off, end int64, fn func(t span)) {
	for i := c.firstOverlap(off); i < len(c.spans) && c.spans[i].off < end; i++ {
		s := c.spans[i]
		if s.kind != srcVec {
			fn(s.trim(max(s.off, off), min(s.off+s.n, end)))
			continue
		}
		sh := c.vecs[s.seed]
		k0, k1 := sh.overlap(s, off, end)
		for k := k0; k <= k1; k++ {
			b := sh.block(s, k)
			fn(b.trim(max(b.off, off), min(b.off+b.n, end)))
		}
	}
}

// ReadAt materializes content range [off, off+len(p)) into p.
func (c *Content) ReadAt(p []byte, off int64) {
	n := int64(len(p))
	c.checkRange("ReadAt", off, n)
	clear(p)
	c.pieces(off, off+n, func(t span) {
		q := p[t.off-off : t.off-off+t.n]
		if t.kind == srcLit {
			copy(q, c.lit(t))
		} else {
			StreamAt(t.seed, t.pos, q)
		}
	})
}

// appendSpans pushes the spans of src covering [srcOff, srcOff+n), moved
// to start at dstOff, onto add. Literals and shapes of another content are
// re-homed into c's tables; a self-copy keeps its own indices. *cur is the
// span of src the walk resumes from, so ascending calls cost no search;
// it is left at the first span that may reach past the range.
func (c *Content) appendSpans(add []span, dstOff int64, src *Content, srcOff, n int64, cur *int) []span {
	if n == 0 {
		return add
	}
	delta, end := dstOff-srcOff, srcOff+n
	i := src.seek(*cur, srcOff)
	for ; i < len(src.spans) && src.spans[i].off < end; i++ {
		add = c.pushCut(add, src, src.spans[i], srcOff, end, delta)
	}
	if i > 0 && src.spans[i-1].off+src.spans[i-1].n > end {
		i--
	}
	*cur = i
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
	var cur int
	add := c.appendSpans((*p)[:0], dstOff, src, srcOff, n, &cur)
	*p = c.splice(dstOff, dstOff+n, add)
	addPool.Put(p)
}

// runPool holds the run lists CopyBlocks groups its block lists into.
var runPool = sync.Pool{New: func() any { return new([]datatype.Run) }}

// CopyBlocks copies src's blocks srcBlocks into c's blocks dstBlocks: the
// byte stream the source list reads, in list order, is written over the
// destination list, in list order. The two lists cover the same byte count
// but may be cut differently. It groups both lists into stride runs
// (datatype.Runs) and copies them with CopyRuns.
func (c *Content) CopyBlocks(dstBlocks []datatype.Block, src *Content, srcBlocks []datatype.Block) {
	dp, sp := runPool.Get().(*[]datatype.Run), runPool.Get().(*[]datatype.Run)
	*dp, *sp = datatype.Runs(dstBlocks, *dp), datatype.Runs(srcBlocks, *sp)
	c.CopyRuns(*dp, src, *sp)
	runPool.Put(dp)
	runPool.Put(sp)
}

// CopyRuns copies src's runs srcRuns into c's runs dstRuns, as CopyBlocks
// does between the blocks the runs expand to (a whole pack, unpack or
// DirectIPC copy), with checks and totals taken per run, not per block;
// every run holds at least one block. Source runs may be unsorted or
// overlap, since src is only read. When the non-empty destination blocks
// ascend without overlap, the copy is one splice, the gaps between them
// keeping c's own spans. It walks the pieces in runs (datatype.EachRun):
// a run of two or more pieces is one pushed span when its source is one
// stream run (runSource) and its destination gaps are clear (gapsClear);
// any other run is walked piece by piece, each piece resuming its span
// walks where the one before stopped. Any other destination list (a run
// with a negative stride or overlapping blocks, or one starting before
// the previous run ends), and a self-copy whose source runs reach into
// the destination's range, is one CopyFrom per piece in list order,
// which keeps sequential copy semantics.
func (c *Content) CopyRuns(dstRuns []datatype.Run, src *Content, srcRuns []datatype.Run) {
	lo, total, batch := c.checkRuns(dstRuns, src, srcRuns)
	if total == 0 {
		return
	}
	if !batch {
		c.copyPieces(dstRuns, src, srcRuns)
		return
	}
	p := addPool.Get().(*[]span)
	add := (*p)[:0]
	prev := lo
	var dc, sc int // span cursors into c's gaps and into src
	datatype.EachRun(dstRuns, srcRuns, func(r datatype.PieceRun) {
		if r.Count > 1 {
			if seed, pos, pstep, ok := src.runSource(r, &sc); ok && c.gapsClear(r, dc) {
				add = c.appendSpans(add, prev, c, prev, r.DstOff-prev, &dc)
				add = c.push(add, c.runSpan(r, seed, pos, pstep))
				prev = r.DstOff + (r.Count-1)*r.DstStep + r.N
				return
			}
		}
		for k := int64(0); k < r.Count; k++ {
			d := r.DstOff + k*r.DstStep
			add = c.appendSpans(add, prev, c, prev, d-prev, &dc)
			add = c.appendSpans(add, d, src, r.SrcOff+k*r.SrcStep, r.N, &sc)
			prev = d + r.N
		}
	})
	*p = c.splice(lo, prev, add)
	addPool.Put(p)
}

// checkRuns range-checks a CopyRuns and totals its bytes, run by run. It
// returns the first destination offset and whether the copy is one batch:
// the non-empty destination blocks ascend without overlap and, in a
// self-copy, no source run reaches into the destination's range.
func (c *Content) checkRuns(dstRuns []datatype.Run, src *Content, srcRuns []datatype.Run) (lo, total int64, batch bool) {
	var srcTotal, hi int64
	lo, batch = -1, true
	for _, r := range dstRuns {
		a, z := runEnds(r)
		c.checkRange("CopyRuns dst", a, r.Len)
		c.checkRange("CopyRuns dst", z, r.Len)
		total += r.Count * r.Len
		if r.Len == 0 {
			continue
		}
		if lo < 0 {
			lo = r.Offset
		} else if r.Offset < hi {
			batch = false
		}
		if r.Count > 1 && r.Stride < r.Len {
			batch = false
		}
		hi = z + r.Len
	}
	for _, r := range srcRuns {
		a, z := runEnds(r)
		src.checkRange("CopyRuns src", a, r.Len)
		src.checkRange("CopyRuns src", z, r.Len)
		srcTotal += r.Count * r.Len
		if src == c && r.Len > 0 && a < hi && z+r.Len > lo {
			batch = false
		}
	}
	if total != srcTotal {
		panic(fmt.Sprintf("payload: CopyRuns lists cover %d and %d bytes", total, srcTotal))
	}
	return lo, total, batch
}

// copyPieces is CopyRuns as one CopyFrom per piece, in list order.
func (c *Content) copyPieces(dstRuns []datatype.Run, src *Content, srcRuns []datatype.Run) {
	datatype.EachRun(dstRuns, srcRuns, func(r datatype.PieceRun) {
		for k := int64(0); k < r.Count; k++ {
			c.CopyFrom(r.DstOff+k*r.DstStep, src, r.SrcOff+k*r.SrcStep, r.N)
		}
	})
}

// runEnds returns the lowest and highest block offsets of run r.
func runEnds(r datatype.Run) (lo, hi int64) {
	last := r.Offset + (r.Count-1)*r.Stride
	return min(r.Offset, last), max(r.Offset, last)
}

// runSource reports where run r of a batch copy reads c when its source
// is one stream run: the whole source range inside one fill span, or
// inside one vector span with every piece inside one block (the pieces
// step by whole blocks, or all lie in one). Piece k then reads stream
// seed from pos + k*pstep. *cur is the span the search resumes from.
func (c *Content) runSource(r datatype.PieceRun, cur *int) (seed uint64, pos, pstep int64, ok bool) {
	last := r.SrcOff + (r.Count-1)*r.SrcStep
	a, b := min(r.SrcOff, last), max(r.SrcOff, last)+r.N
	i := c.seek(*cur, a)
	if i == len(c.spans) || c.spans[i].off > a || c.spans[i].off+c.spans[i].n < b {
		return 0, 0, 0, false
	}
	*cur = i
	s := c.spans[i]
	switch s.kind {
	case srcFill:
		return s.seed, s.pos + r.SrcOff - s.off, r.SrcStep, true
	case srcVec:
		sh := &c.vecs[s.seed]
		x := r.SrcOff - s.off
		k, ph := x/sh.cstride, x%sh.cstride // piece 0 is ph bytes into block k
		pos = s.pos + k*sh.pstride + ph
		switch {
		case ph+r.N > sh.blk:
			return 0, 0, 0, false
		case r.SrcStep%sh.cstride == 0:
			return sh.seed, pos, r.SrcStep / sh.cstride * sh.pstride, true
		case (a-s.off)/sh.cstride == k && (b-s.off-1)/sh.cstride == k && b-s.off-k*sh.cstride <= sh.blk:
			return sh.seed, pos, r.SrcStep, true
		}
	}
	return 0, 0, 0, false
}

// gapsClear reports whether c holds no span byte between the pieces of
// run r, whose destination pieces ascend without overlap: every span
// reaching into that interior lies inside one piece, or is a vector
// whose blocks all do. The search starts from span hint.
func (c *Content) gapsClear(r datatype.PieceRun, hint int) bool {
	if r.DstStep == r.N {
		return true
	}
	inPiece := func(a, b int64) bool { // [a, b) inside one piece
		x := a - r.DstOff
		return x >= 0 && b-a+x%r.DstStep <= r.N
	}
	end := r.DstOff + (r.Count-1)*r.DstStep
	for i := c.seek(hint, r.DstOff+r.N); i < len(c.spans) && c.spans[i].off < end; i++ {
		s := c.spans[i]
		if s.kind == srcVec {
			if sh := &c.vecs[s.seed]; sh.cstride == r.DstStep {
				ph := (s.off - r.DstOff) % r.DstStep
				if ph < 0 {
					ph += r.DstStep
				}
				if ph+sh.blk <= r.N {
					continue
				}
			}
		}
		if !inPiece(s.off, s.off+s.n) {
			return false
		}
	}
	return true
}

// runSpan returns the span run r of a batch copy writes when piece k
// reads stream seed from pos + k*pstep: one fill span when the pieces
// continue each other in content and stream, and one vector, its shape
// homed in c's table, otherwise.
func (c *Content) runSpan(r datatype.PieceRun, seed uint64, pos, pstep int64) span {
	if r.DstStep == r.N && pstep == r.N {
		return span{off: r.DstOff, n: r.Count * r.N, seed: seed, pos: pos}
	}
	sh := shape{seed: seed, blk: r.N, cstride: r.DstStep, pstride: pstep}
	return span{off: r.DstOff, n: (r.Count-1)*r.DstStep + r.N, seed: c.homeShape(sh, r.DstOff), pos: pos, kind: srcVec}
}

// WriteBlocks writes the bytes p's blocks srcBlocks read, in list order,
// over c's blocks dstBlocks, as CopyBlocks does between two contents: the
// lazy side of an exact-to-lazy pack, unpack or DirectIPC copy. The bytes
// are cloned once, into one literal that every piece's span shares, so a
// copy of many small pieces costs one clone and, when the destination
// blocks ascend, one splice.
func (c *Content) WriteBlocks(dstBlocks []datatype.Block, p []byte, srcBlocks []datatype.Block) {
	var n int64
	for _, b := range srcBlocks {
		n += b.Len
	}
	lit := make([]byte, 0, n)
	for _, b := range srcBlocks {
		lit = append(lit, p[b.Offset:b.Offset+b.Len]...)
	}
	src := &Content{n: n, lits: [][]byte{lit}, nlit: 1}
	if n > 0 {
		src.spans = []span{{n: n, kind: srcLit}}
	}
	c.CopyBlocks(dstBlocks, src, []datatype.Block{{Len: n}})
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

// equalChunk is how many bytes of each side Equal materializes at a time
// when the span lists differ.
const equalChunk = 64 << 10

// Equal reports whether c and o hold the same logical bytes. When the
// lengths match and the span lists match span for span (fill seeds and
// positions, vector shapes, literal bytes, each read through its own
// content's tables), that is the answer in O(spans); otherwise the bytes
// are compared chunk by chunk, so Equal is exactly byte equality.
func (c *Content) Equal(o *Content) bool {
	if c.n != o.n {
		return false
	}
	if c.sameSpans(o) {
		return true
	}
	a, b := make([]byte, min(equalChunk, c.n)), make([]byte, min(equalChunk, c.n))
	for off := int64(0); off < c.n; off += equalChunk {
		n := min(equalChunk, c.n-off)
		c.ReadAt(a[:n], off)
		o.ReadAt(b[:n], off)
		if !bytes.Equal(a[:n], b[:n]) {
			return false
		}
	}
	return true
}

// sameSpans reports whether c's and o's span lists describe the same
// provenance span for span; it implies byte equality.
func (c *Content) sameSpans(o *Content) bool {
	if len(c.spans) != len(o.spans) {
		return false
	}
	for i, s := range c.spans {
		t := o.spans[i]
		if s.off != t.off || s.n != t.n || s.kind != t.kind {
			return false
		}
		switch s.kind {
		case srcFill:
			if s.seed != t.seed || s.pos != t.pos {
				return false
			}
		case srcLit:
			if !bytes.Equal(c.lit(s), o.lit(t)) {
				return false
			}
		case srcVec:
			if c.vecs[s.seed] != o.vecs[t.seed] || s.pos != t.pos {
				return false
			}
		}
	}
	return true
}

// Checksum returns the FNV-1a 64 hash of the full logical byte string,
// streamed from the spans without materializing the content. Zero gaps
// advance the hash in O(log gap).
func (c *Content) Checksum() uint64 { return c.ChecksumRange(0, c.n) }

// ChecksumRange hashes content range [off, off+n) the same way Checksum
// hashes the whole content.
func (c *Content) ChecksumRange(off, n int64) uint64 {
	c.checkRange("ChecksumRange", off, n)
	h, at := uint64(fnvOffset), off
	c.pieces(off, off+n, func(t span) {
		h = hashZeros(h, t.off-at)
		if t.kind == srcLit {
			h = hashBytes(h, c.lit(t))
		} else {
			h = hashStream(h, t.seed, t.pos, t.n)
		}
		at = t.off + t.n
	})
	return hashZeros(h, off+n-at)
}
