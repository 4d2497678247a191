package datatype

// Canonical datatype representation, after TEMPI (PAPERS.md): a committed
// layout's flattened block list is normalized into a minimal sequence of
// *stride runs* — maximal arithmetic progressions of equal-length blocks —
// so that distinct spellings of the same memory access pattern (a
// Vector(4,2,8,Byte) and the equivalent Hindexed, a Subarray face and the
// hand-rolled Indexed it matches) collapse to one identity. The canonical
// form carries a stable hash and a compact signature string; the layout
// cache keys on the signature, so one cached flatten + one compiled pack
// plan serve the whole family of equivalent types.
//
// Canonicalization never reorders blocks: MPI pack order is definition
// order, and for indexed types with unordered displacements that order is
// part of the wire semantics. A run therefore encodes a *consecutive*
// stretch of the pack sequence, and Expand reproduces the original
// coalesced block list byte-for-byte.

import (
	"fmt"
	"strings"
)

// Run is one stride run of a canonical form: Count blocks of Len bytes
// whose starts are Stride bytes apart, the first at Offset. Count == 1
// runs carry Stride 0. Stride may be negative (descending indexed
// displacements) or smaller than Len (overlapping blocks); both are
// preserved exactly.
type Run struct {
	Offset int64
	Len    int64
	Stride int64
	Count  int64
}

// Canonical is the minimal stride-run description of a committed layout:
// the normal form under which equivalent DDT spellings compare equal.
type Canonical struct {
	// Runs cover the pack sequence in order.
	Runs []Run
	// SizeBytes is the payload (sum over runs of Count*Len).
	SizeBytes int64
	// ExtentBytes is the memory span of one element — part of the
	// identity, because Repeat lays elements out at extent stride.
	ExtentBytes int64

	hash uint64
	sig  string
}

// Canonicalize normalizes a coalesced block list (pack order, as produced
// by Commit or Layout.Repeat) plus its extent into the canonical form.
func Canonicalize(blocks []Block, extent int64) *Canonical {
	c := &Canonical{ExtentBytes: extent, Runs: Runs(blocks, nil)}
	for _, r := range c.Runs {
		c.SizeBytes += r.Count * r.Len
	}
	c.sig = c.buildSig()
	c.hash = fnv1a64(c.sig)
	return c
}

// Runs groups blocks, in list order, into maximal stride runs and appends
// them to buf[:0]: a block opens a run, the next block of the same length
// joins it and fixes its stride, and each later block joins while it has
// that length and lies one stride past the last. Expanding the runs gives
// blocks back.
func Runs(blocks []Block, buf []Run) []Run {
	buf = buf[:0]
	for i := 0; i < len(blocks); {
		b := blocks[i]
		run := Run{Offset: b.Offset, Len: b.Len, Count: 1}
		if j := i + 1; j < len(blocks) && blocks[j].Len == b.Len {
			run.Stride, run.Count = blocks[j].Offset-b.Offset, 2
			for j+1 < len(blocks) && blocks[j+1].Len == b.Len && blocks[j+1].Offset-blocks[j].Offset == run.Stride {
				run.Count++
				j++
			}
		}
		buf = append(buf, run)
		i += int(run.Count)
	}
	return buf
}

// buildSig renders the canonical identity as a compact stable string:
// "e<extent>|<off>+<len>x<count>@<stride>;...". Single-block runs elide
// the xCount@Stride suffix.
func (c *Canonical) buildSig() string {
	var b strings.Builder
	fmt.Fprintf(&b, "e%d", c.ExtentBytes)
	for _, r := range c.Runs {
		if r.Count == 1 {
			fmt.Fprintf(&b, "|%d+%d", r.Offset, r.Len)
		} else {
			fmt.Fprintf(&b, "|%d+%dx%d@%d", r.Offset, r.Len, r.Count, r.Stride)
		}
	}
	return b.String()
}

// fnv1a64 hashes a string with FNV-1a (the repo's checksum lineage).
func fnv1a64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Hash is the stable 64-bit identity hash; equal canonical forms hash
// equal across processes and sessions.
func (c *Canonical) Hash() uint64 { return c.hash }

// Signature is the collision-free identity string the layout cache keys
// on.
func (c *Canonical) Signature() string { return c.sig }

// String renders the form for debug output and test-failure naming:
// the family, not the spelling.
func (c *Canonical) String() string {
	return fmt.Sprintf("canon{%d runs, %dB/%dB, %#x}", len(c.Runs), c.SizeBytes, c.ExtentBytes, c.hash)
}

// NumBlocks is the contiguous-segment count the runs expand to.
func (c *Canonical) NumBlocks() int {
	var n int64
	for _, r := range c.Runs {
		n += r.Count
	}
	return int(n)
}

// Equal reports structural identity — the equivalence relation over
// committed datatypes.
func (c *Canonical) Equal(o *Canonical) bool {
	if c == nil || o == nil {
		return c == o
	}
	return c.sig == o.sig
}

// Expand reconstructs the coalesced block list the form was built from —
// the round-trip the conformance property test asserts byte-for-byte.
func (c *Canonical) Expand() []Block {
	out := make([]Block, 0, c.NumBlocks())
	for _, r := range c.Runs {
		off := r.Offset
		for i := int64(0); i < r.Count; i++ {
			out = append(out, Block{Offset: off, Len: r.Len})
			off += r.Stride
		}
	}
	return out
}
