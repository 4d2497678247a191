// Package datatype implements an MPI derived-datatype (DDT) engine: type
// constructors mirroring MPI_Type_create_* (contiguous, vector, hvector,
// indexed, hindexed, indexed-block, struct, subarray), arbitrary nesting,
// and commit-time flattening to a canonical list of contiguous byte blocks
// — the representation the GPU packing kernels and the layout cache consume
// (the "flattening on the fly" lineage the paper builds on).
package datatype

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrInvalidType is the sentinel every *InvalidTypeError unwraps to:
// errors.Is(err, ErrInvalidType) matches any malformed-constructor error.
var ErrInvalidType = errors.New("datatype: invalid constructor input")

// InvalidTypeError is the typed validation error CommitE returns for a
// malformed constructor input (negative counts, mismatched slice lengths,
// out-of-range subarray bounds). Constructors defer the report — they
// return a poisoned Type carrying the error — so building a type never
// panics; Commit (the panicking wrapper) and CommitE (the typed-error
// form) surface it, mirroring the Alloc/AllocE convention of the facade.
type InvalidTypeError struct {
	// Constructor names the offending MPI-style constructor.
	Constructor string
	// Reason describes what was malformed.
	Reason string
}

func (e *InvalidTypeError) Error() string {
	return fmt.Sprintf("datatype: %s: %s", e.Constructor, e.Reason)
}

// Unwrap lets errors.Is(err, ErrInvalidType) match.
func (e *InvalidTypeError) Unwrap() error { return ErrInvalidType }

// invalidType is the poisoned Type a constructor returns for malformed
// input. It is inert (zero size and extent, no blocks) so accidental use
// before Commit cannot corrupt anything; Commit/CommitE report the error.
type invalidType struct {
	err *InvalidTypeError
}

func invalid(constructor, format string, args ...any) Type {
	return invalidType{&InvalidTypeError{Constructor: constructor, Reason: fmt.Sprintf(format, args...)}}
}

func (t invalidType) Size() int64                      { return 0 }
func (t invalidType) Extent() int64                    { return 0 }
func (t invalidType) TypeName() string                 { return fmt.Sprintf("invalid(%s)", t.err.Constructor) }
func (t invalidType) flatten(base int64, out *[]Block) {}
func (t invalidType) check() *InvalidTypeError         { return t.err }

// Block is one contiguous span of a flattened layout: Offset bytes from the
// buffer base, Len bytes long.
type Block struct {
	Offset int64
	Len    int64
}

// EachPiece walks two block lists that cut one byte stream differently and
// calls fn(dstOff, srcOff, n) for each maximal piece inside one block of
// each, in stream order; empty blocks are skipped. It panics when the
// lists cover different byte counts.
func EachPiece(dst, src []Block, fn func(dstOff, srcOff, n int64)) {
	si, di := 0, 0
	var so, do int64
	for {
		for si < len(src) && so == src[si].Len {
			si, so = si+1, 0
		}
		for di < len(dst) && do == dst[di].Len {
			di, do = di+1, 0
		}
		if si == len(src) || di == len(dst) {
			break
		}
		sb, db := src[si], dst[di]
		n := min(sb.Len-so, db.Len-do)
		fn(db.Offset+do, sb.Offset+so, n)
		so += n
		do += n
	}
	if si < len(src) || di < len(dst) {
		panic("datatype: block lists cover different byte counts")
	}
}

// PieceRun is Count pieces of N bytes each: piece k copies the bytes at
// SrcOff + k*SrcStep to DstOff + k*DstStep. A run of one piece has zero
// steps.
type PieceRun struct {
	DstOff, SrcOff, N int64
	Count             int64
	DstStep, SrcStep  int64
}

// runCursor is a position in a run list: byte o of block k of run i.
type runCursor struct {
	runs []Run
	i    int
	k, o int64
}

// settle moves the cursor past a finished block, and past finished and
// empty runs, and reports whether a byte is left.
func (c *runCursor) settle() bool {
	for ; c.i < len(c.runs); c.i, c.k, c.o = c.i+1, 0, 0 {
		r := &c.runs[c.i]
		if r.Len == 0 {
			continue
		}
		if c.o == r.Len {
			c.k, c.o = c.k+1, 0
		}
		if c.k < r.Count {
			return true
		}
	}
	return false
}

// at returns the offset of the cursor's byte.
func (c *runCursor) at() int64 {
	r := &c.runs[c.i]
	return r.Offset + c.k*r.Stride + c.o
}

// EachRun walks two run lists that cut one byte stream differently and
// calls fn once per PieceRun, in stream order; expanding the runs gives
// exactly EachPiece's pieces over the expanded lists. Its grouping is
// arithmetic on the runs, never a walk over blocks: where both cursors
// start a block of the same length, the whole blocks both runs have left
// make one run; where one cursor starts a block that fits in what is left
// of the other's block, the consecutive such blocks make one run, packed
// back to back on the other side; any other piece is a run of one. It
// panics when the lists cover different byte counts.
func EachRun(dst, src []Run, fn func(r PieceRun)) {
	d, s := runCursor{runs: dst}, runCursor{runs: src}
	for {
		dl, sl := d.settle(), s.settle()
		if !dl || !sl {
			if dl || sl {
				panic("datatype: run lists cover different byte counts")
			}
			return
		}
		dr, sr := &d.runs[d.i], &s.runs[s.i]
		p := PieceRun{DstOff: d.at(), SrcOff: s.at(), Count: 1}
		switch dLeft, sLeft := dr.Len-d.o, sr.Len-s.o; {
		case d.o == 0 && s.o == 0 && dr.Len == sr.Len:
			p.N, p.Count = dr.Len, min(dr.Count-d.k, sr.Count-s.k)
			p.DstStep, p.SrcStep = dr.Stride, sr.Stride
			d.k += p.Count
			s.k += p.Count
		case s.o == 0 && sr.Len <= dLeft:
			p.N, p.Count = sr.Len, min(sr.Count-s.k, dLeft/sr.Len)
			p.DstStep, p.SrcStep = sr.Len, sr.Stride
			d.o += p.Count * sr.Len
			s.k += p.Count
		case d.o == 0 && dr.Len <= sLeft:
			p.N, p.Count = dr.Len, min(dr.Count-d.k, sLeft/dr.Len)
			p.DstStep, p.SrcStep = dr.Stride, dr.Len
			d.k += p.Count
			s.o += p.Count * dr.Len
		default:
			p.N = min(dLeft, sLeft)
			d.o += p.N
			s.o += p.N
		}
		if p.Count == 1 {
			p.DstStep, p.SrcStep = 0, 0
		}
		fn(p)
	}
}

// Type is an uncommitted datatype description. Types are immutable once
// built; Commit produces the flattened Layout used everywhere else.
type Type interface {
	// Size is the number of bytes of actual data in one element.
	Size() int64
	// Extent is the span one element covers in memory, including holes
	// (lb..ub in MPI terms; we assume lb = 0).
	Extent() int64
	// TypeName is a human-readable constructor description.
	TypeName() string
	// flatten appends the element's blocks, shifted by base, to out.
	flatten(base int64, out *[]Block)
	// check reports a deferred constructor-validation error (nil when the
	// type tree is well-formed). CommitE surfaces it as a typed error;
	// Commit panics on it.
	check() *InvalidTypeError
}

// --- primitives ---

type primitive struct {
	name string
	size int64
}

func (p primitive) Size() int64      { return p.size }
func (p primitive) Extent() int64    { return p.size }
func (p primitive) TypeName() string { return p.name }
func (p primitive) flatten(base int64, out *[]Block) {
	*out = append(*out, Block{Offset: base, Len: p.size})
}
func (p primitive) check() *InvalidTypeError { return nil }

// Predefined primitive types (sizes per the usual MPI bindings).
var (
	Byte       Type = primitive{"MPI_BYTE", 1}
	Char       Type = primitive{"MPI_CHAR", 1}
	Int32      Type = primitive{"MPI_INT32", 4}
	Int64      Type = primitive{"MPI_INT64", 8}
	Float32    Type = primitive{"MPI_FLOAT", 4}
	Float64    Type = primitive{"MPI_DOUBLE", 8}
	Complex64  Type = primitive{"MPI_COMPLEX", 8}
	Complex128 Type = primitive{"MPI_DOUBLE_COMPLEX", 16}
)

// --- contiguous ---

type contiguous struct {
	count int
	base  Type
}

// Contiguous replicates base count times back to back
// (MPI_Type_contiguous).
func Contiguous(count int, base Type) Type {
	if count < 0 {
		return invalid("Contiguous", "negative count %d", count)
	}
	return contiguous{count, base}
}

func (c contiguous) Size() int64   { return int64(c.count) * c.base.Size() }
func (c contiguous) Extent() int64 { return int64(c.count) * c.base.Extent() }
func (c contiguous) TypeName() string {
	return fmt.Sprintf("contiguous(%d,%s)", c.count, c.base.TypeName())
}
func (c contiguous) check() *InvalidTypeError { return c.base.check() }
func (c contiguous) flatten(base int64, out *[]Block) {
	// Dense composition (gap-free primitives back to back) flattens to one
	// block in O(1) instead of one block per element — contiguous byte
	// layouts over megabyte staging bundles are committed on hot paths.
	if d := denseLen(c); d > 0 {
		*out = append(*out, Block{Offset: base, Len: d})
		return
	}
	ext := c.base.Extent()
	for i := 0; i < c.count; i++ {
		c.base.flatten(base+int64(i)*ext, out)
	}
}

// denseLen reports the length of t when it flattens to exactly one block
// covering its whole extent (a primitive, or a contiguous composition of
// dense types with no padding), 0 otherwise.
func denseLen(t Type) int64 {
	switch v := t.(type) {
	case primitive:
		return v.size
	case contiguous:
		if v.count == 0 {
			return 0
		}
		if d := denseLen(v.base); d > 0 && d == v.base.Extent() {
			return int64(v.count) * d
		}
	}
	return 0
}

// --- vector / hvector ---

type vector struct {
	count, blocklen int
	strideBytes     int64 // between block starts
	base            Type
}

// Vector is MPI_Type_vector: count blocks of blocklen base elements whose
// starts are stride base-extents apart.
func Vector(count, blocklen, stride int, base Type) Type {
	return vector{count, blocklen, int64(stride) * base.Extent(), base}
}

// Hvector is MPI_Type_create_hvector: stride given directly in bytes.
func Hvector(count, blocklen int, strideBytes int64, base Type) Type {
	return vector{count, blocklen, strideBytes, base}
}

func (v vector) Size() int64 { return int64(v.count) * int64(v.blocklen) * v.base.Size() }
func (v vector) Extent() int64 {
	if v.count <= 0 || v.strideBytes < 0 {
		// Invalid shapes (check reports them) stay inert: a negative
		// stride would span from before the base, which the engine
		// refuses — the workloads never need it.
		return 0
	}
	return int64(v.count-1)*v.strideBytes + int64(v.blocklen)*v.base.Extent()
}
func (v vector) check() *InvalidTypeError {
	switch {
	case v.count < 0:
		return &InvalidTypeError{Constructor: "Vector", Reason: fmt.Sprintf("negative count %d", v.count)}
	case v.blocklen < 0:
		return &InvalidTypeError{Constructor: "Vector", Reason: fmt.Sprintf("negative blocklen %d", v.blocklen)}
	case v.strideBytes < 0:
		return &InvalidTypeError{Constructor: "Vector", Reason: fmt.Sprintf("negative stride %d bytes unsupported", v.strideBytes)}
	}
	return v.base.check()
}
func (v vector) TypeName() string {
	return fmt.Sprintf("hvector(%d,%d,%d,%s)", v.count, v.blocklen, v.strideBytes, v.base.TypeName())
}
func (v vector) flatten(base int64, out *[]Block) {
	inner := Contiguous(v.blocklen, v.base)
	for i := 0; i < v.count; i++ {
		inner.flatten(base+int64(i)*v.strideBytes, out)
	}
}

// --- indexed family ---

type hindexed struct {
	blocklens []int
	displs    []int64 // bytes
	base      Type
}

// Indexed is MPI_Type_indexed: displacements counted in base extents.
func Indexed(blocklens, displs []int, base Type) Type {
	if len(blocklens) != len(displs) {
		return invalid("Indexed", "%d blocklens vs %d displacements", len(blocklens), len(displs))
	}
	d := make([]int64, len(displs))
	for i, v := range displs {
		d[i] = int64(v) * base.Extent()
	}
	return hindexed{appendCopy(blocklens), d, base}
}

// Hindexed is MPI_Type_create_hindexed: displacements in bytes.
func Hindexed(blocklens []int, displsBytes []int64, base Type) Type {
	if len(blocklens) != len(displsBytes) {
		return invalid("Hindexed", "%d blocklens vs %d displacements", len(blocklens), len(displsBytes))
	}
	return hindexed{appendCopy(blocklens), append([]int64(nil), displsBytes...), base}
}

// IndexedBlock is MPI_Type_create_indexed_block: constant block length.
func IndexedBlock(blocklen int, displs []int, base Type) Type {
	lens := make([]int, len(displs))
	for i := range lens {
		lens[i] = blocklen
	}
	return Indexed(lens, displs, base)
}

func appendCopy(s []int) []int { return append([]int(nil), s...) }

func (h hindexed) Size() int64 {
	var n int64
	for _, l := range h.blocklens {
		n += int64(l)
	}
	return n * h.base.Size()
}
func (h hindexed) Extent() int64 {
	var ub int64
	for i, l := range h.blocklens {
		end := h.displs[i] + int64(l)*h.base.Extent()
		if end > ub {
			ub = end
		}
	}
	return ub
}
func (h hindexed) TypeName() string {
	return fmt.Sprintf("hindexed(%d blocks,%s)", len(h.blocklens), h.base.TypeName())
}
func (h hindexed) check() *InvalidTypeError {
	for i, l := range h.blocklens {
		if l < 0 {
			return &InvalidTypeError{Constructor: "Indexed", Reason: fmt.Sprintf("negative blocklen %d at block %d", l, i)}
		}
	}
	return h.base.check()
}
func (h hindexed) flatten(base int64, out *[]Block) {
	for i, l := range h.blocklens {
		Contiguous(l, h.base).flatten(base+h.displs[i], out)
	}
}

// --- struct ---

type structT struct {
	blocklens []int
	displs    []int64
	types     []Type
}

// Struct is MPI_Type_create_struct: heterogeneous fields at byte
// displacements.
func Struct(blocklens []int, displsBytes []int64, types []Type) Type {
	if len(blocklens) != len(displsBytes) || len(blocklens) != len(types) {
		return invalid("Struct", "%d blocklens vs %d displacements vs %d types",
			len(blocklens), len(displsBytes), len(types))
	}
	return structT{appendCopy(blocklens), append([]int64(nil), displsBytes...), append([]Type(nil), types...)}
}

func (s structT) Size() int64 {
	var n int64
	for i, l := range s.blocklens {
		n += int64(l) * s.types[i].Size()
	}
	return n
}
func (s structT) Extent() int64 {
	var ub int64
	for i, l := range s.blocklens {
		end := s.displs[i] + int64(l)*s.types[i].Extent()
		if end > ub {
			ub = end
		}
	}
	return ub
}
func (s structT) TypeName() string {
	return fmt.Sprintf("struct(%d fields)", len(s.blocklens))
}
func (s structT) check() *InvalidTypeError {
	for i, l := range s.blocklens {
		if l < 0 {
			return &InvalidTypeError{Constructor: "Struct", Reason: fmt.Sprintf("negative blocklen %d at field %d", l, i)}
		}
		if err := s.types[i].check(); err != nil {
			return err
		}
	}
	return nil
}
func (s structT) flatten(base int64, out *[]Block) {
	for i, l := range s.blocklens {
		Contiguous(l, s.types[i]).flatten(base+s.displs[i], out)
	}
}

// --- subarray ---

type subarray struct {
	sizes, subsizes, starts []int
	base                    Type
}

// Subarray is MPI_Type_create_subarray with C (row-major) order: the last
// dimension is contiguous in memory.
func Subarray(sizes, subsizes, starts []int, base Type) Type {
	if len(sizes) == 0 || len(sizes) != len(subsizes) || len(sizes) != len(starts) {
		return invalid("Subarray", "dimension mismatch: %d sizes, %d subsizes, %d starts",
			len(sizes), len(subsizes), len(starts))
	}
	for d := range sizes {
		if subsizes[d] < 0 || starts[d] < 0 || starts[d]+subsizes[d] > sizes[d] {
			return invalid("Subarray", "dim %d out of range: start %d + subsize %d vs size %d",
				d, starts[d], subsizes[d], sizes[d])
		}
	}
	return subarray{appendCopy(sizes), appendCopy(subsizes), appendCopy(starts), base}
}

func (s subarray) Size() int64 {
	n := int64(1)
	for _, v := range s.subsizes {
		n *= int64(v)
	}
	return n * s.base.Size()
}
func (s subarray) Extent() int64 {
	n := int64(1)
	for _, v := range s.sizes {
		n *= int64(v)
	}
	return n * s.base.Extent()
}
func (s subarray) TypeName() string {
	return fmt.Sprintf("subarray(%v of %v)", s.subsizes, s.sizes)
}
func (s subarray) check() *InvalidTypeError { return s.base.check() }
func (s subarray) flatten(base int64, out *[]Block) {
	for _, v := range s.subsizes {
		if v == 0 {
			return // empty slab in any dimension: zero payload, no blocks
		}
	}
	ext := s.base.Extent()
	nd := len(s.sizes)
	// Row-major strides in elements.
	stride := make([]int64, nd)
	stride[nd-1] = 1
	for d := nd - 2; d >= 0; d-- {
		stride[d] = stride[d+1] * int64(s.sizes[d+1])
	}
	// Iterate all but the innermost dimension; the innermost run is a
	// contiguous span of subsizes[nd-1] elements.
	idx := make([]int, nd-1)
	for {
		var off int64
		for d := 0; d < nd-1; d++ {
			off += int64(s.starts[d]+idx[d]) * stride[d]
		}
		off += int64(s.starts[nd-1]) * stride[nd-1]
		Contiguous(s.subsizes[nd-1], s.base).flatten(base+off*ext, out)
		// advance odometer
		d := nd - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < s.subsizes[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			break
		}
	}
}

// --- resized ---

type resized struct {
	base   Type
	extent int64
}

// Resized overrides a type's extent (MPI_Type_create_resized with lb = 0):
// the payload is unchanged but consecutive elements are laid out
// `extent` bytes apart, which is how applications space strided sends.
func Resized(base Type, extent int64) Type {
	if extent < 0 {
		return invalid("Resized", "negative extent %d", extent)
	}
	return resized{base: base, extent: extent}
}

func (r resized) Size() int64   { return r.base.Size() }
func (r resized) Extent() int64 { return r.extent }
func (r resized) TypeName() string {
	return fmt.Sprintf("resized(%s,%d)", r.base.TypeName(), r.extent)
}
func (r resized) check() *InvalidTypeError         { return r.base.check() }
func (r resized) flatten(base int64, out *[]Block) { r.base.flatten(base, out) }

// --- commit / layout ---

var uidCounter atomic.Int64

// Layout is a committed datatype: the canonical flattened block list for
// one element, with adjacent blocks coalesced. It is immutable.
type Layout struct {
	// UID is unique per Commit call. Identity for caching is the
	// canonical signature, not the UID: distinct commits of equivalent
	// spellings share one cache entry.
	UID int64
	// Name echoes the constructor tree.
	Name string
	// Blocks are sorted by offset and non-overlapping for well-formed
	// types; adjacent blocks are merged.
	Blocks []Block
	// SizeBytes is the payload (sum of block lengths).
	SizeBytes int64
	// ExtentBytes is the memory span of one element.
	ExtentBytes int64
	// MaxBlockBytes is the largest single block.
	MaxBlockBytes int64

	canon *Canonical
}

// CommitE flattens t into a Layout (MPI_Type_commit), returning a typed
// *InvalidTypeError (unwrapping to ErrInvalidType) when any constructor in
// the tree was given malformed input — negative counts, mismatched slice
// lengths, out-of-range subarray bounds. Commit is the panicking wrapper,
// mirroring the Alloc/AllocE convention on the facade.
func CommitE(t Type) (*Layout, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	var raw []Block
	t.flatten(0, &raw)
	blocks := Coalesce(raw)
	l := &Layout{
		UID:         uidCounter.Add(1),
		Name:        t.TypeName(),
		Blocks:      blocks,
		ExtentBytes: t.Extent(),
	}
	for _, b := range blocks {
		l.SizeBytes += b.Len
		if b.Len > l.MaxBlockBytes {
			l.MaxBlockBytes = b.Len
		}
	}
	if l.SizeBytes != t.Size() {
		panic(fmt.Sprintf("datatype: flatten lost bytes for %s: %d != %d", t.TypeName(), l.SizeBytes, t.Size()))
	}
	l.canon = Canonicalize(blocks, l.ExtentBytes)
	return l, nil
}

// Commit flattens t into a Layout and panics on malformed constructor
// input. Use CommitE for the error-returning variant.
func Commit(t Type) *Layout {
	l, err := CommitE(t)
	if err != nil {
		panic(err.Error())
	}
	return l
}

// CanonicalForm is the stride-run normal form computed at commit.
func (l *Layout) CanonicalForm() *Canonical { return l.canon }

// Canonical is the canonical identity string: equivalent spellings of the
// same memory access pattern (at equal extent) return equal strings.
func (l *Layout) Canonical() string { return l.canon.Signature() }

// String names the layout for debug output: the spelling plus the family.
func (l *Layout) String() string {
	return fmt.Sprintf("%s %s", l.Name, l.canon.String())
}

// Equivalent reports whether two type spellings commit to the same
// canonical form (same pack sequence, same extent). Malformed types are
// equivalent to nothing, including themselves.
func Equivalent(a, b Type) bool {
	la, err := CommitE(a)
	if err != nil {
		return false
	}
	lb, err := CommitE(b)
	if err != nil {
		return false
	}
	return la.canon.Equal(lb.canon)
}

// Coalesce merges blocks that are exactly adjacent (b.Offset == prev end).
// Input order is preserved — MPI pack order is definition order, and for
// the supported constructors that is also ascending offset per element.
func Coalesce(raw []Block) []Block {
	out := make([]Block, 0, len(raw))
	for _, b := range raw {
		if b.Len == 0 {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Offset+out[n-1].Len == b.Offset {
			out[n-1].Len += b.Len
			continue
		}
		out = append(out, b)
	}
	return out
}

// NumBlocks returns the contiguous-segment count of one element.
func (l *Layout) NumBlocks() int { return len(l.Blocks) }

// Repeat returns the block list for `count` consecutive elements laid out
// at extent stride, coalescing across element boundaries.
func (l *Layout) Repeat(count int) []Block {
	if count < 0 {
		panic("datatype: negative repeat count")
	}
	raw := make([]Block, 0, count*len(l.Blocks))
	for i := 0; i < count; i++ {
		base := int64(i) * l.ExtentBytes
		for _, b := range l.Blocks {
			raw = append(raw, Block{Offset: base + b.Offset, Len: b.Len})
		}
	}
	return Coalesce(raw)
}

// Pack gathers one element's payload from src (a buffer at least
// ExtentBytes long) into dst (at least SizeBytes long), returning the bytes
// written. This is the reference CPU implementation the simulated kernels
// execute.
func (l *Layout) Pack(src, dst []byte) int64 {
	var w int64
	for _, b := range l.Blocks {
		copy(dst[w:w+b.Len], src[b.Offset:b.Offset+b.Len])
		w += b.Len
	}
	return w
}

// Unpack scatters a packed payload from src back into dst according to the
// layout, returning the bytes read.
func (l *Layout) Unpack(src, dst []byte) int64 {
	var r int64
	for _, b := range l.Blocks {
		copy(dst[b.Offset:b.Offset+b.Len], src[r:r+b.Len])
		r += b.Len
	}
	return r
}
