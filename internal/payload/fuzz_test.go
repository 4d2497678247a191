package payload

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/datatype"
)

// checkSpanInvariants asserts the structural health of a span list:
// sorted, non-overlapping, non-empty, inside [0, Len), every literal span
// inside its entry of the literal table, fully coalesced (no two adjacent
// mergeable fill spans), the live-literal count exact and the literal
// table within its compaction bound.
func checkSpanInvariants(t *testing.T, c *Content) {
	t.Helper()
	prevEnd := int64(0)
	nlit := 0
	for i, s := range c.spans {
		if s.n <= 0 {
			t.Fatalf("span %d: non-positive length %d", i, s.n)
		}
		if s.off < prevEnd {
			t.Fatalf("span %d: offset %d overlaps previous end %d", i, s.off, prevEnd)
		}
		if s.off+s.n > c.n {
			t.Fatalf("span %d: [%d,%d) exceeds content length %d", i, s.off, s.off+s.n, c.n)
		}
		if s.kind == srcLit {
			nlit++
			if s.seed >= uint64(len(c.lits)) {
				t.Fatalf("span %d: literal index %d outside table of %d", i, s.seed, len(c.lits))
			}
			if l := int64(len(c.lits[s.seed])); s.pos < 0 || s.pos+s.n > l {
				t.Fatalf("span %d: literal range [%d,%d) outside literal of %d bytes", i, s.pos, s.pos+s.n, l)
			}
		}
		if i > 0 && mergeable(c.spans[i-1], s) {
			t.Fatalf("span %d: mergeable neighbor survived coalescing", i)
		}
		prevEnd = s.off + s.n
	}
	if nlit != c.nlit {
		t.Fatalf("live literal count %d, content records %d", nlit, c.nlit)
	}
	if len(c.lits) > 2*nlit+litSlack {
		t.Fatalf("literal table holds %d entries for %d literal spans", len(c.lits), nlit)
	}
}

// FuzzLazyCorruptSplice drives the deterministic corrupt-splice primitive
// the reliability layer models in-flight corruption with: for any content
// built from a fill + literal-write program, a splice must (1) keep the
// span invariants, (2) keep the span checksum consistent with the
// materialized bytes, (3) always change the checksum — the CRC-reject
// guarantee — while touching exactly one byte, and (4) undo itself when
// applied twice with the same parameters (XOR involution).
func FuzzLazyCorruptSplice(f *testing.F) {
	f.Add(uint16(128), uint64(7), uint16(0), uint16(128), []byte{1, 2, 3})
	f.Add(uint16(257), uint64(0xdead), uint16(31), uint16(64), []byte{})
	f.Add(uint16(1), uint64(1), uint16(0), uint16(1), []byte{0xa5})
	f.Add(uint16(4096), uint64(42), uint16(1000), uint16(2048), bytes.Repeat([]byte{9}, 33))
	f.Fuzz(func(t *testing.T, size uint16, seed uint64, off, n uint16, lit []byte) {
		ln := int64(size)
		if ln == 0 {
			ln = 1
		}
		c := New(ln)
		c.Fill(seed ^ 0x9e37)
		if len(lit) > 0 {
			wo := int64(off) % ln
			w := lit
			if int64(len(w)) > ln-wo {
				w = w[:ln-wo]
			}
			c.WriteBytes(wo, w)
		}
		so := int64(off) % ln
		sn := int64(n) % (ln - so + 1)
		if sn == 0 {
			return // empty splice range is a no-op by contract
		}
		before := make([]byte, ln)
		c.ReadAt(before, 0)
		sumBefore := c.Checksum()
		if sumBefore != Checksum(before) {
			t.Fatal("pre-splice checksum diverges from materialized bytes")
		}

		c.CorruptSplice(so, sn, seed)
		checkSpanInvariants(t, c)
		after := make([]byte, ln)
		c.ReadAt(after, 0)
		sumAfter := c.Checksum()
		if sumAfter != Checksum(after) {
			t.Fatal("post-splice checksum diverges from materialized bytes")
		}
		if sumAfter == sumBefore {
			t.Fatal("corrupt splice left the checksum unchanged — CRC could not reject it")
		}
		diffs := 0
		for i := range before {
			if before[i] != after[i] {
				if int64(i) < so || int64(i) >= so+sn {
					t.Fatalf("splice touched byte %d outside [%d,%d)", i, so, so+sn)
				}
				diffs++
			}
		}
		if diffs != 1 {
			t.Fatalf("splice changed %d bytes, want exactly 1", diffs)
		}

		c.CorruptSplice(so, sn, seed)
		checkSpanInvariants(t, c)
		restored := make([]byte, ln)
		c.ReadAt(restored, 0)
		if !bytes.Equal(restored, before) || c.Checksum() != sumBefore {
			t.Fatal("double splice did not restore the original content")
		}
	})
}

// FuzzLazyChecksumAlgebra interprets the fuzz input as a little op program
// over a Content and a []byte shadow model, then requires the lazy and
// exact views to agree on bytes, checksum, and a range checksum. Ops are
// 6-byte records: opcode, two offsets, a length, and two payload bytes —
// all taken modulo the live content length so every input is valid.
func FuzzLazyChecksumAlgebra(f *testing.F) {
	f.Add([]byte{0, 10, 20, 30, 1, 2})
	f.Add([]byte{1, 0, 0, 255, 7, 7, 2, 5, 0, 100, 0, 0})
	f.Add([]byte{3, 0, 64, 64, 0, 0, 4, 32, 96, 32, 0, 0})
	f.Add(bytes.Repeat([]byte{1, 0, 0, 8, 9, 1}, 40))
	f.Fuzz(func(t *testing.T, program []byte) {
		const n = int64(257) // prime-ish, exercises block boundaries
		c := New(n)
		b := make([]byte, n)
		aux := New(n)
		ab := make([]byte, n)
		aux.Fill(99)
		FillBytes(ab, 99)

		for len(program) >= 6 {
			op := program[0]
			o1 := int64(program[1]) % n
			o2 := int64(program[2]) % n
			ln := int64(program[3])
			p1, p2 := program[4], program[5]
			program = program[6:]
			if ln > n-o1 {
				ln = n - o1
			}
			if ln > n-o2 {
				ln = n - o2
			}
			switch op % 7 {
			case 0: // write literal bytes
				lit := bytes.Repeat([]byte{p1 ^ p2}, int(ln))
				for i := range lit {
					lit[i] += byte(i)
				}
				c.WriteBytes(o1, lit)
				copy(b[o1:o1+ln], lit)
			case 1: // fill a range from a PRF stream
				seed := uint64(binary.LittleEndian.Uint16([]byte{p1, p2}))
				c.FillRange(o1, ln, seed, o2)
				StreamAt(seed, o2, b[o1:o1+ln])
			case 2: // zero a range
				c.Zero(o1, ln)
				for i := o1; i < o1+ln; i++ {
					b[i] = 0
				}
			case 3: // overlapping self-copy
				c.CopyFrom(o2, c, o1, ln)
				copy(b[o2:o2+ln], append([]byte(nil), b[o1:o1+ln]...))
			case 4: // cross-content copy from the aux stream
				c.CopyFrom(o1, aux, o2, ln)
				copy(b[o1:o1+ln], ab[o2:o2+ln])
			case 5: // slice snapshot law
				s := c.Slice(o1, ln)
				if s.Checksum() != Checksum(b[o1:o1+ln]) {
					t.Fatal("slice checksum diverges from model")
				}
			case 6: // concat law over two live slices
				s := Concat(c.Slice(o1, ln), aux.Slice(o2, ln))
				cat := append(append([]byte(nil), b[o1:o1+ln]...), ab[o2:o2+ln]...)
				if s.Checksum() != Checksum(cat) {
					t.Fatal("concat checksum diverges from model")
				}
			}
		}

		got := make([]byte, n)
		c.ReadAt(got, 0)
		if !bytes.Equal(got, b) {
			t.Fatal("lazy bytes diverge from exact model")
		}
		if c.Checksum() != Checksum(b) {
			t.Fatal("lazy checksum diverges from exact model")
		}
		if c.ChecksumRange(n/3, n/3) != Checksum(b[n/3:n/3+n/3]) {
			t.Fatal("lazy range checksum diverges from exact model")
		}
	})
}

// blockCopyCase is one decoded FuzzLazyBlockCopy input: a CopyBlocks
// between two literal-bearing contents, or within one.
type blockCopyCase struct {
	self     bool
	dst, src []datatype.Block
}

// blockCopySize is the content length of FuzzLazyBlockCopy.
const blockCopySize = int64(199)

// decodeBlocks turns byte pairs into at most 32 blocks of at most 31
// bytes, each inside the content, covering at most limit bytes in total.
// An ascending list places each block 0–7 bytes after the previous one
// (touching blocks included); a free list takes offsets mod the content
// size, so unsorted and overlapping lists appear.
func decodeBlocks(p []byte, ascending bool, limit int64) (bl []datatype.Block, total int64) {
	const n = blockCopySize
	var prev int64
	for len(p) >= 2 && len(bl) < 32 {
		off, ln := int64(p[0])%n, min(int64(p[1])%32, limit-total)
		if ascending {
			off = prev + int64(p[0])%8
		}
		p = p[2:]
		if off+ln > n {
			break
		}
		bl = append(bl, datatype.Block{Offset: off, Len: ln})
		prev, total = off+ln, total+ln
	}
	return bl, total
}

// decodeBlockCopy turns fuzz bytes into a case: mode bit 0 makes it a
// self-copy, bits 1 and 2 make the destination and source lists
// ascending, and the rest place the block that pads the source list to
// the byte count of the destination list.
func decodeBlockCopy(mode uint8, dst, src []byte) blockCopyCase {
	bc := blockCopyCase{self: mode&1 != 0}
	var total, got int64
	bc.dst, total = decodeBlocks(dst, mode&2 != 0, blockCopySize)
	bc.src, got = decodeBlocks(src, mode&4 != 0, total)
	if rest := total - got; rest > 0 {
		off := int64(mode>>3) * 13 % (blockCopySize - rest + 1)
		bc.src = append(bc.src, datatype.Block{Offset: off, Len: rest})
	}
	return bc
}

// blockCopyContents builds the fuzz target's starting contents from a
// seed and literal bytes: a PRF fill with literal patches, and a second
// content (or the same one for a self-copy) with a half fill and its own
// patches.
func blockCopyContents(self bool, seed uint64, lits []byte) (dst, src *Content) {
	const n = blockCopySize
	patch := func(c *Content, salt int64) {
		for i := int64(0); i+1 < int64(len(lits)) && i < 12; i += 2 {
			off := (int64(lits[i]) + salt) % n
			ln := min(int64(lits[i+1])%9+1, n-off, int64(len(lits))-i)
			c.WriteBytes(off, lits[i:i+ln])
		}
	}
	dst = New(n)
	dst.Fill(seed)
	patch(dst, 0)
	if self {
		return dst, dst
	}
	src = New(n)
	src.FillRange(n/4, n/2, seed+1, 3)
	patch(src, 61)
	return dst, src
}

// FuzzLazyBlockCopy checks CopyBlocks between two block lists cut
// differently against two references: a []byte model of one copy per
// piece in list order, and the same pieces copied with one CopyFrom each.
// All three must agree on bytes and Checksum, and CopyBlocks and the
// per-piece copies on SpanCount, with the span invariants (literal table
// included) intact; CopyRuns over the lists' canonical runs must leave
// the bytes and span list CopyBlocks leaves. It then resets the
// destination, which must equal a fresh content before and after the
// same copy. The corpus holds the one-block gathers and scatters this op
// replaced.
func FuzzLazyBlockCopy(f *testing.F) {
	// Both lists multi-block, cut differently, ascending.
	f.Add(uint8(6), uint64(1), []byte{3, 4, 50, 9}, []byte{10, 20, 3, 5, 90, 23, 1, 30}, []byte{4, 13, 5, 7, 0, 31, 2, 9})
	// Unsorted, overlapping destination blocks.
	f.Add(uint8(4), uint64(2), []byte{100, 7}, []byte{40, 20, 30, 20, 35, 10}, []byte{1, 16, 0, 16, 7, 3})
	// Self-copies: source inside the destination's range, and outside it.
	f.Add(uint8(7), uint64(3), []byte{9, 9, 9}, []byte{20, 12, 2, 12}, []byte{24, 10, 1, 14})
	f.Add(uint8(3), uint64(4), []byte{60, 8, 61, 8}, []byte{10, 10, 2, 10}, []byte{150, 25, 180, 15})
	// Unsorted source, padded by the last block.
	f.Add(uint8(0x52), uint64(5), []byte{20, 3}, []byte{80, 23, 10, 23}, []byte{120, 9, 30, 9})
	f.Fuzz(func(t *testing.T, mode uint8, seed uint64, lits, dstBlocks, srcBlocks []byte) {
		bc := decodeBlockCopy(mode, dstBlocks, srcBlocks)

		dst, src := blockCopyContents(bc.self, seed, lits)
		refDst, refSrc := blockCopyContents(bc.self, seed, lits)
		db := make([]byte, blockCopySize)
		dst.ReadAt(db, 0)
		sb := db
		if !bc.self {
			sb = make([]byte, blockCopySize)
			src.ReadAt(sb, 0)
		}

		datatype.EachPiece(bc.dst, bc.src, func(d, s, n int64) {
			refDst.CopyFrom(d, refSrc, s, n)
			copy(db[d:d+n], append([]byte(nil), sb[s:s+n]...))
		})
		dst.CopyBlocks(bc.dst, src, bc.src)

		checkSpanInvariants(t, dst)
		checkSpanInvariants(t, refDst)
		got := make([]byte, blockCopySize)
		dst.ReadAt(got, 0)
		if !bytes.Equal(got, db) {
			t.Fatal("CopyBlocks diverges from the byte model")
		}
		if dst.Checksum() != Checksum(db) || refDst.Checksum() != Checksum(db) {
			t.Fatal("checksums diverge from the byte model")
		}
		if dst.SpanCount() != refDst.SpanCount() {
			t.Fatalf("CopyBlocks leaves %d spans, per-piece copies %d", dst.SpanCount(), refDst.SpanCount())
		}
		// CopyRuns over the canonical runs of both lists is the same copy.
		runDst, runSrc := blockCopyContents(bc.self, seed, lits)
		runDst.CopyRuns(datatype.Canonicalize(bc.dst, blockCopySize).Runs, runSrc, datatype.Canonicalize(bc.src, blockCopySize).Runs)
		checkSpanInvariants(t, runDst)
		runDst.ReadAt(got, 0)
		if !bytes.Equal(got, db) || runDst.Checksum() != Checksum(db) {
			t.Fatal("CopyRuns diverges from the byte model")
		}
		if !slices.Equal(resolved(runDst), resolved(dst)) {
			t.Fatalf("CopyRuns spans %+v, CopyBlocks spans %+v", resolved(runDst), resolved(dst))
		}

		// Reset must leave exactly New(n): zero bytes, its checksum, no
		// spans, and no literal from before still reachable.
		rn := int64(seed%uint64(2*blockCopySize)) + int64(mode)%2
		dst.Reset(rn)
		checkSpanInvariants(t, dst)
		zeros := make([]byte, rn)
		got = make([]byte, rn)
		dst.ReadAt(got, 0)
		if !bytes.Equal(got, zeros) || dst.Checksum() != New(rn).Checksum() || dst.SpanCount() != 0 {
			t.Fatal("reset content differs from New(n)")
		}
		for _, l := range dst.lits[:cap(dst.lits)] {
			if l != nil {
				t.Fatal("a literal from before the reset is still reachable")
			}
		}
		if bc.self {
			return
		}
		// A reset content takes the same copy as a fresh one.
		dst.Reset(blockCopySize)
		fresh := New(blockCopySize)
		for _, c := range []*Content{dst, fresh} {
			c.CopyBlocks(bc.dst, src, bc.src)
		}
		checkSpanInvariants(t, dst)
		if dst.Checksum() != fresh.Checksum() || dst.SpanCount() != fresh.SpanCount() {
			t.Fatal("a copy into a reset content differs from one into a fresh content")
		}
	})
}

// resolvedSpan is a span with its table index replaced by what it
// indexes: the shape of a vector, the bytes of a literal.
type resolvedSpan struct {
	off, n, pos int64
	kind        srcKind
	seed        uint64
	sh          shape
	lit         string
}

// resolved returns c's span list with every table index resolved, so
// two contents can be compared span for span whatever their tables hold.
func resolved(c *Content) []resolvedSpan {
	out := make([]resolvedSpan, 0, len(c.spans))
	for _, s := range c.spans {
		r := resolvedSpan{off: s.off, n: s.n, pos: s.pos, kind: s.kind, seed: s.seed}
		switch s.kind {
		case srcVec:
			r.seed, r.sh = 0, c.vecs[s.seed]
		case srcLit:
			r.seed, r.pos, r.lit = 0, 0, string(c.lit(s))
		}
		out = append(out, r)
	}
	return out
}

// canonicalForm rebuilds c's span list from scratch by the rule the
// Content doc states: expand every vector into its blocks, join fill
// runs that continue each other, then group the runs greedily from the
// left — a run opens a group and each following run joins it while it
// has the group's seed and length and steps by the group's strides.
func canonicalForm(c *Content) []resolvedSpan {
	var runs []span
	for _, s := range c.spans {
		blocks := []span{s}
		if s.kind == srcVec {
			sh := c.vecs[s.seed]
			blocks = blocks[:0]
			for k := int64(0); k < sh.count(s); k++ {
				blocks = append(blocks, sh.block(s, k))
			}
		}
		for _, b := range blocks {
			if l := len(runs) - 1; l >= 0 && b.kind == srcFill && runs[l].kind == srcFill && continues(runs[l], b) {
				runs[l].n += b.n
				continue
			}
			runs = append(runs, b)
		}
	}
	var out []resolvedSpan
	for i := 0; i < len(runs); {
		r := runs[i]
		if r.kind == srcLit {
			out = append(out, resolvedSpan{off: r.off, n: r.n, kind: srcLit, lit: string(c.lit(r))})
			i++
			continue
		}
		j := i + 1
		next := func(k int) bool {
			return k < len(runs) && runs[k].kind == srcFill && runs[k].seed == r.seed && runs[k].n == r.n
		}
		if !next(j) {
			out = append(out, resolvedSpan{off: r.off, n: r.n, pos: r.pos, kind: srcFill, seed: r.seed})
			i = j
			continue
		}
		cs, ps := runs[j].off-r.off, runs[j].pos-r.pos
		for next(j+1) && runs[j+1].off-runs[j].off == cs && runs[j+1].pos-runs[j].pos == ps {
			j++
		}
		out = append(out, resolvedSpan{off: r.off, n: runs[j].off + r.n - r.off, pos: r.pos, kind: srcVec,
			sh: shape{seed: r.seed, blk: r.n, cstride: cs, pstride: ps}})
		i = j + 1
	}
	return out
}

// checkCanonical asserts checkSpanInvariants plus the vector ones: every
// vector's shape inside the table, well-formed (two or more whole blocks,
// never one fill span in disguise), the live-vector count exact, the
// shape table within its compaction bound, and the list equal to the
// canonical form rebuilt from scratch.
func checkCanonical(t *testing.T, c *Content) {
	t.Helper()
	checkSpanInvariants(t, c)
	nvec := 0
	for i, s := range c.spans {
		if s.kind != srcVec {
			continue
		}
		nvec++
		if s.seed >= uint64(len(c.vecs)) {
			t.Fatalf("span %d: shape index %d outside table of %d", i, s.seed, len(c.vecs))
		}
		sh := c.vecs[s.seed]
		if sh.blk <= 0 || sh.cstride < sh.blk || (s.n-sh.blk)%sh.cstride != 0 || sh.count(s) < 2 ||
			sh.cstride == sh.blk && sh.pstride == sh.blk {
			t.Fatalf("span %d: malformed vector of %d bytes, shape %+v", i, s.n, sh)
		}
	}
	if nvec != c.nvec {
		t.Fatalf("live vector count %d, content records %d", nvec, c.nvec)
	}
	if len(c.vecs) > 2*nvec+litSlack {
		t.Fatalf("shape table holds %d entries for %d vector spans", len(c.vecs), nvec)
	}
	if got, want := resolved(c), canonicalForm(c); !slices.Equal(got, want) {
		t.Fatalf("span list is not canonical:\n got %+v\nwant %+v", got, want)
	}
}

// canonicalSize is the content length of FuzzLazyCanonicalSpans.
const canonicalSize = int64(211)

// decodeStrided turns 4-byte records into strided block lists, up to six
// equal blocks each, every block inside the content, covering at most
// limit bytes. Ascending records start 0–15 bytes after the previous
// record's last block; free ones anywhere.
func decodeStrided(p []byte, ascending bool, limit int64) (bl []datatype.Block, total int64) {
	const n = canonicalSize
	var prev int64
	for ; len(p) >= 4 && len(bl) < 48; p = p[4:] {
		off, blk := int64(p[0])%n, int64(p[1])%12+1
		stride, count := blk+int64(p[2])%6, int64(p[3])%6+1
		if ascending {
			off = prev + int64(p[0])%16
		}
		for k := int64(0); k < count; k++ {
			o, ln := off+k*stride, min(blk, limit-total)
			if o+ln > n || ln == 0 {
				return bl, total
			}
			bl = append(bl, datatype.Block{Offset: o, Len: ln})
			prev, total = o+ln, total+ln
		}
	}
	return bl, total
}

// canonicalContents replays the fill program of FuzzLazyCanonicalSpans:
// 5-byte records each fill or zero a strided run of ranges in the
// destination or the source — bit 0 of the first byte picks the content,
// bit 1 zeroes, bits 2–3 pick one of four seeds and bits 4–5 the stream
// step beyond the range length.
func canonicalContents(mode uint8, fills []byte) (dst, src *Content) {
	const n = canonicalSize
	dst, src = New(n), New(n)
	if mode&4 != 0 {
		src.Fill(3)
	}
	for ; len(fills) >= 5; fills = fills[5:] {
		op := fills[0]
		c := dst
		if op&1 != 0 {
			c = src
		}
		off, ln, pos := int64(fills[1])%n, int64(fills[2])%24+1, int64(fills[3])
		reps, cstride := int64(fills[4])%6+1, ln+int64(fills[4])/6%5
		pstride := ln + int64(op>>4)%4
		for k := int64(0); k < reps && off+k*cstride+ln <= n; k++ {
			if op&2 != 0 {
				c.Zero(off+k*cstride, ln)
			} else {
				c.FillRange(off+k*cstride, ln, uint64(op>>2&3), pos+k*pstride)
			}
		}
	}
	return dst, src
}

// FuzzLazyCanonicalSpans checks that a content's span list depends only
// on its bytes' provenance, not on how the copies that built it were
// ordered. A fill-and-copy program (no literal writes) builds two
// contents and a strided CopyBlocks between them, which is then applied
// as one CopyBlocks, as one CopyFrom per piece in list order, and — when
// the destination pieces are disjoint — one CopyFrom per piece in reverse
// order. All must read the byte model and hold identical span lists, with
// shapes resolved through the table, in the canonical form rebuilt from
// scratch. Mode bits 0 and 1 make the destination and source lists
// ascending; bit 2 fills the source before the program runs.
//
// Content.Equal is checked against bytes.Equal on the result: against
// the per-piece copies (same spans), the source, and a twin of the
// result whose middle third bit 3 rewrites as a literal of its own bytes
// (other spans, same bytes) and bit 4 then damages by one byte.
func FuzzLazyCanonicalSpans(f *testing.F) {
	// A strided gather into zero staging: one vector.
	f.Add(uint8(5), []byte{}, []byte{0, 7, 0, 5}, []byte{10, 7, 5, 5})
	// A strided scatter into zero gaps, then a run continuing the last block.
	f.Add(uint8(7), []byte{}, []byte{0, 7, 3, 5, 0, 4, 0, 0}, []byte{10, 7, 0, 5})
	// Vectors already in the destination, cut by the copy's blocks.
	f.Add(uint8(1), []byte{0, 10, 5, 0, 17, 1, 40, 10, 8, 5}, []byte{12, 3, 2, 4, 2, 11, 0, 1}, []byte{40, 3, 0, 2})
	// A copy landing in the gaps of a vector of the same stream.
	f.Add(uint8(4), []byte{0, 20, 6, 3, 23}, []byte{26, 3, 1, 3}, []byte{26, 3, 3, 3})
	f.Fuzz(canonicalCopy)
}

// canonicalCopy is the body of FuzzLazyCanonicalSpans.
func canonicalCopy(t *testing.T, mode uint8, fills, dstBlocks, srcBlocks []byte) {
	dl, total := decodeStrided(dstBlocks, mode&1 != 0, canonicalSize)
	sl, covered := decodeStrided(srcBlocks, mode&2 != 0, total)
	if rest := total - covered; rest > 0 {
		sl = append(sl, datatype.Block{Offset: (canonicalSize - rest) / 2, Len: rest})
	}

	dst, src := canonicalContents(mode, fills)
	checkCanonical(t, dst)
	checkCanonical(t, src)
	db := make([]byte, canonicalSize)
	sb := make([]byte, canonicalSize)
	dst.ReadAt(db, 0)
	src.ReadAt(sb, 0)
	var pieces [][3]int64
	datatype.EachPiece(dl, sl, func(d, s, n int64) {
		pieces = append(pieces, [3]int64{d, s, n})
		copy(db[d:d+n], sb[s:s+n])
	})
	dst.CopyBlocks(dl, src, sl)

	orders := [][][3]int64{pieces}
	byDst := slices.Clone(pieces)
	slices.SortFunc(byDst, func(a, b [3]int64) int { return int(a[0] - b[0]) })
	disjoint := true
	for k := 1; k < len(byDst); k++ {
		disjoint = disjoint && byDst[k-1][0]+byDst[k-1][2] <= byDst[k][0]
	}
	if disjoint {
		orders = append(orders, slices.Clone(pieces))
		slices.Reverse(orders[1])
	}
	for k, order := range orders {
		ref, rsrc := canonicalContents(mode, fills)
		for _, pc := range order {
			ref.CopyFrom(pc[0], rsrc, pc[1], pc[2])
		}
		checkCanonical(t, ref)
		if !slices.Equal(resolved(dst), resolved(ref)) {
			t.Fatalf("order %d: CopyBlocks spans %+v, per-piece copies %+v", k, resolved(dst), resolved(ref))
		}
		if !dst.Equal(ref) {
			t.Fatalf("order %d: Equal is false for identical span lists", k)
		}
	}
	checkCanonical(t, dst)
	got := make([]byte, canonicalSize)
	dst.ReadAt(got, 0)
	if !bytes.Equal(got, db) || dst.Checksum() != Checksum(db) {
		t.Fatal("CopyBlocks diverges from the byte model")
	}

	twin := dst.Slice(0, canonicalSize)
	if mode&8 != 0 {
		a, b := canonicalSize/3, 2*canonicalSize/3
		twin.WriteBytes(a, got[a:b])
	}
	if mode&16 != 0 {
		twin.CorruptSplice(0, canonicalSize, 1)
	}
	for name, o := range map[string]*Content{"source": src, "twin": twin} {
		ob := make([]byte, canonicalSize)
		o.ReadAt(ob, 0)
		if want := bytes.Equal(got, ob); dst.Equal(o) != want || o.Equal(dst) != want {
			t.Fatalf("%s: Equal = %v/%v, bytes.Equal = %v", name, dst.Equal(o), o.Equal(dst), want)
		}
	}
}
