package gpu

import (
	"bytes"
	"fmt"

	"repro/internal/datatype"
	"repro/internal/payload"
)

// A buffer's content is real bytes (Data) or a lazy span algebra (Lazy),
// and which one is this package's decision: Alloc and Staging pick it from
// the device's LazyThreshold. Every verb that reads or writes content is
// in this file, and each chooses its exact or lazy form once per call, so
// no caller branches on the payload mode. Both forms hold the same logical
// bytes: a lazy run and a byte-exact run of one scenario checksum alike.

// Len returns the buffer length in bytes.
func (b *Buffer) Len() int {
	if b.Lazy != nil {
		return int(b.Lazy.Len())
	}
	return len(b.Data)
}

// IsLazy reports whether the buffer carries lazy-bytes content.
func (b *Buffer) IsLazy() bool { return b.Lazy != nil }

// Materialize converts a lazy buffer to real bytes in place and returns
// them; on a byte-exact buffer it just returns Data. It is the escape
// hatch for code that must address real bytes (size-table headers,
// reductions) regardless of payload mode.
func (b *Buffer) Materialize() []byte {
	b.Data, b.Lazy = b.readAll(), nil
	return b.Data
}

// readAll returns the buffer's content as real bytes: Data itself, or a
// fresh copy of a lazy buffer's content.
func (b *Buffer) readAll() []byte {
	if b.Lazy == nil {
		return b.Data
	}
	data := make([]byte, b.Lazy.Len())
	b.Lazy.ReadAt(data, 0)
	return data
}

// FillStream sets the buffer's whole content to PRF stream `seed`,
// regardless of payload mode — the mode-independent way to seed test and
// benchmark data so exact and lazy runs see identical logical bytes.
func (b *Buffer) FillStream(seed uint64) {
	if b.Lazy != nil {
		b.Lazy.Fill(seed)
		return
	}
	payload.FillBytes(b.Data, seed)
}

// Checksum returns the FNV-1a 64 hash of the buffer's logical content,
// identical between a lazy buffer and a byte-exact buffer holding the same
// bytes.
func (b *Buffer) Checksum() uint64 {
	if b.Lazy != nil {
		return b.Lazy.Checksum()
	}
	return payload.Checksum(b.Data)
}

// ChecksumRange hashes buffer range [off, off+n) the same way Checksum
// hashes the whole buffer: FNV-1a over real bytes in exact mode, the
// composable span-algebra checksum in lazy mode — identical values for
// identical logical content, without ever materializing lazy payloads.
func (b *Buffer) ChecksumRange(off, n int64) uint64 {
	if b.Lazy != nil {
		return b.Lazy.ChecksumRange(off, n)
	}
	return payload.Checksum(b.Data[off : off+n])
}

// Equal reports whether b and o hold the same logical bytes, whatever
// their payload modes. Two lazy buffers compare span lists first, in
// O(spans) when they match.
func (b *Buffer) Equal(o *Buffer) bool {
	if b.Lazy != nil && o.Lazy != nil {
		return b.Lazy.Equal(o.Lazy)
	}
	return bytes.Equal(b.readAll(), o.readAll())
}

// CopyRange copies n bytes from src at srcOff into dst at dstOff, handling
// every real/lazy combination. It is the single copy primitive the pack
// kernels and MPI runtime use once lazy mode is in play.
func CopyRange(dst *Buffer, dstOff int64, src *Buffer, srcOff, n int64) {
	if n == 0 {
		return
	}
	switch {
	case dst.Lazy != nil && src.Lazy != nil:
		dst.Lazy.CopyFrom(dstOff, src.Lazy, srcOff, n)
	case dst.Lazy != nil:
		dst.Lazy.WriteBytes(dstOff, src.Data[srcOff:srcOff+n])
	case src.Lazy != nil:
		src.Lazy.ReadAt(dst.Data[dstOff:dstOff+n], srcOff)
	default:
		copy(dst.Data[dstOff:dstOff+n], src.Data[srcOff:srcOff+n])
	}
}

// Layout is where the bytes of a layout copy lie in one buffer: Blocks in
// stream order, with Plan their compiled form when a plan describes them,
// or the contiguous range a Contig layout names.
type Layout struct {
	Blocks []datatype.Block
	Plan   *datatype.Plan
	// off, n and contig are a Contig layout's range.
	off, n int64
	contig bool
}

// Contig is the layout of n contiguous bytes at off: the packed side of a
// pack or unpack.
func Contig(off, n int64) Layout { return Layout{off: off, n: n, contig: true} }

// blocks returns l's block list, with one the backing store of a Contig
// layout's single block.
func (l *Layout) blocks(one *[1]datatype.Block) []datatype.Block {
	if !l.contig {
		return l.Blocks
	}
	one[0] = datatype.Block{Offset: l.off, Len: l.n}
	return one[:]
}

// runs returns l's stride runs, with one the backing store of a Contig
// layout's single run, or nil when l has no plan.
func (l *Layout) runs(one *[1]datatype.Run) []datatype.Run {
	switch {
	case l.contig:
		one[0] = datatype.Run{Offset: l.off, Len: l.n, Count: 1}
		return one[:]
	case l.Plan != nil:
		return l.Plan.Canon.Runs
	}
	return nil
}

// CopyLayout copies the bytes of src at layout s, in stream order, over
// dst at layout d. The two layouts cover the same number of bytes but may
// be cut differently. It picks its copy once per call. Between real bytes
// a contiguous side runs the other side's compiled plan when it has one,
// and the block lists are walked piece by piece otherwise. With a lazy
// side the copy is span bookkeeping: over stride runs when both sides have
// them, so the work scales with runs, over the block lists otherwise.
func CopyLayout(dst *Buffer, d Layout, src *Buffer, s Layout) {
	if dst.Lazy == nil && src.Lazy == nil {
		copyExact(dst.Data, &d, src.Data, &s)
		return
	}
	copyLazy(dst, &d, src, &s)
}

// copyExact is CopyLayout between real bytes.
func copyExact(dst []byte, d *Layout, src []byte, s *Layout) {
	switch {
	case d.contig && s.contig:
		copy(dst[d.off:d.off+d.n], src[s.off:s.off+s.n])
	case d.contig && s.Plan != nil:
		s.Plan.Pack(src, dst[d.off:])
	case d.contig:
		w := d.off
		for _, b := range s.Blocks {
			copy(dst[w:w+b.Len], src[b.Offset:b.Offset+b.Len])
			w += b.Len
		}
	case s.contig && d.Plan != nil:
		d.Plan.Unpack(src[s.off:], dst)
	case s.contig:
		r := s.off
		for _, b := range d.Blocks {
			copy(dst[b.Offset:b.Offset+b.Len], src[r:r+b.Len])
			r += b.Len
		}
	default:
		datatype.EachPiece(d.Blocks, s.Blocks, func(dOff, sOff, n int64) { copy(dst[dOff:dOff+n], src[sOff:sOff+n]) })
	}
}

// copyLazy is CopyLayout with a lazy side: one span copy when both are
// lazy, one WriteBlocks into a lazy destination from real bytes, and one
// walk of ReadAt pieces from a lazy source into real bytes. It is apart
// from CopyLayout so the span algebra, which runs deep on a simulated
// rank's small stack, does not carry the exact copy's frame.
func copyLazy(dst *Buffer, d *Layout, src *Buffer, s *Layout) {
	var db, sb [1]datatype.Block
	switch {
	case src.Lazy == nil:
		dst.Lazy.WriteBlocks(d.blocks(&db), src.Data, s.blocks(&sb))
	case dst.Lazy == nil:
		datatype.EachPiece(d.blocks(&db), s.blocks(&sb), func(dOff, sOff, n int64) {
			src.Lazy.ReadAt(dst.Data[dOff:dOff+n], sOff)
		})
	default:
		var dr, sr [1]datatype.Run
		if druns, sruns := d.runs(&dr), s.runs(&sr); druns != nil && sruns != nil {
			dst.Lazy.CopyRuns(druns, src.Lazy, sruns)
			return
		}
		dst.Lazy.CopyBlocks(d.blocks(&db), src.Lazy, s.blocks(&sb))
	}
}

// Snapshot is an immutable copy of a buffer range, 32 B and held by
// value: a private byte copy in exact mode, a span slice in lazy mode.
// Nothing read from it sees a later write to the buffer.
type Snapshot struct {
	data []byte
	lazy *payload.Content
}

// Snapshot captures buffer range [off, off+n).
func (b *Buffer) Snapshot(off, n int64) Snapshot {
	if b.Lazy != nil {
		return Snapshot{lazy: b.Lazy.Slice(off, n)}
	}
	return Snapshot{data: append([]byte(nil), b.Data[off:off+n]...)}
}

// buffer views the snapshot as a buffer, for the buffer verbs that only
// read it.
func (s Snapshot) buffer() *Buffer { return &Buffer{Data: s.data, Lazy: s.lazy} }

// Len returns the snapshot's length in bytes.
func (s Snapshot) Len() int64 { return int64(s.buffer().Len()) }

// Checksum is the FNV-1a hash of the snapshot's bytes, as
// Buffer.Checksum hashes a buffer.
func (s Snapshot) Checksum() uint64 { return s.buffer().Checksum() }

// CopyTo writes the snapshot's bytes into dst at off, whatever mode dst
// is in.
func (s Snapshot) CopyTo(dst *Buffer, off int64) { CopyRange(dst, off, s.buffer(), 0, s.Len()) }

// Restore writes the snapshot back over the whole of dst. It fails,
// writing nothing, when dst is not in the payload mode the snapshot was
// taken in or not the snapshot's length.
func (s Snapshot) Restore(dst *Buffer) error {
	if dst.IsLazy() != (s.lazy != nil) {
		return fmt.Errorf("payload-mode mismatch restoring %s", dst.Name)
	}
	if int64(dst.Len()) != s.Len() {
		return fmt.Errorf("size mismatch restoring %s: have %d want %d", dst.Name, dst.Len(), s.Len())
	}
	s.CopyTo(dst, 0)
	return nil
}

// CorruptionUndetected models the snapshot corrupted in flight; see
// Buffer.CorruptionUndetected.
func (s Snapshot) CorruptionUndetected() bool { return s.buffer().CorruptionUndetected(0, s.Len()) }

// CorruptionUndetected models bytes [off, off+n) of b corrupted in flight
// and reports whether the receiver's CRC (FNV-1a, payload.Checksum over
// real bytes) would still, impossibly, accept them: it hashes the range
// and a damaged copy, one byte flipped in exact mode, the deterministic PRF
// corrupt splice seeded by the range's checksum on a span clone in lazy
// mode. FNV-1a changes on any single-byte change, so the callers turn a
// true result into a sanity panic. It runs only on a corrupt delivery, the
// one branch that reads a checksum, and must read what was posted: an
// immutable snapshot, or a range nothing writes before the send completes.
func (b *Buffer) CorruptionUndetected(off, n int64) bool {
	switch {
	case n == 0:
		return false // header-only frame: nothing to mis-verify
	case b.Lazy != nil:
		want := b.Lazy.ChecksumRange(off, n)
		dam := b.Lazy.Slice(off, n)
		dam.CorruptSplice(0, n, want)
		return dam.Checksum() == want
	}
	dam := append([]byte(nil), b.Data[off:off+n]...)
	dam[n/2] ^= 0xa5
	return payload.Checksum(dam) == payload.Checksum(b.Data[off:off+n])
}
