package datatype

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPrimitiveSizes(t *testing.T) {
	cases := []struct {
		ty   Type
		size int64
	}{
		{Byte, 1}, {Char, 1}, {Int32, 4}, {Int64, 8},
		{Float32, 4}, {Float64, 8}, {Complex64, 8}, {Complex128, 16},
	}
	for _, c := range cases {
		if c.ty.Size() != c.size || c.ty.Extent() != c.size {
			t.Errorf("%s: size=%d extent=%d, want %d", c.ty.TypeName(), c.ty.Size(), c.ty.Extent(), c.size)
		}
	}
}

func TestContiguousFlattensToOneBlock(t *testing.T) {
	l := Commit(Contiguous(16, Float64))
	if l.NumBlocks() != 1 {
		t.Fatalf("contiguous committed to %d blocks, want 1", l.NumBlocks())
	}
	if l.SizeBytes != 128 || l.ExtentBytes != 128 || l.MaxBlockBytes != 128 {
		t.Fatalf("bad layout: %+v", l)
	}
}

func TestVectorLayout(t *testing.T) {
	// 4 blocks of 2 doubles, stride 5 doubles.
	l := Commit(Vector(4, 2, 5, Float64))
	if l.NumBlocks() != 4 {
		t.Fatalf("blocks = %d, want 4", l.NumBlocks())
	}
	if l.SizeBytes != 4*2*8 {
		t.Fatalf("size = %d, want 64", l.SizeBytes)
	}
	if l.ExtentBytes != (3*5+2)*8 {
		t.Fatalf("extent = %d, want %d", l.ExtentBytes, (3*5+2)*8)
	}
	for i, b := range l.Blocks {
		if b.Offset != int64(i)*40 || b.Len != 16 {
			t.Fatalf("block %d = %+v", i, b)
		}
	}
}

func TestVectorStrideEqualsBlocklenCoalesces(t *testing.T) {
	l := Commit(Vector(8, 3, 3, Float32))
	if l.NumBlocks() != 1 {
		t.Fatalf("fully dense vector should coalesce to 1 block, got %d", l.NumBlocks())
	}
}

func TestHvectorByteStride(t *testing.T) {
	l := Commit(Hvector(3, 1, 100, Int32))
	want := []Block{{0, 4}, {100, 4}, {200, 4}}
	if len(l.Blocks) != len(want) {
		t.Fatalf("blocks = %v", l.Blocks)
	}
	for i := range want {
		if l.Blocks[i] != want[i] {
			t.Fatalf("block %d = %+v, want %+v", i, l.Blocks[i], want[i])
		}
	}
}

func TestIndexedLayout(t *testing.T) {
	l := Commit(Indexed([]int{2, 1, 3}, []int{0, 4, 8}, Float64))
	want := []Block{{0, 16}, {32, 8}, {64, 24}}
	if len(l.Blocks) != 3 {
		t.Fatalf("blocks = %v", l.Blocks)
	}
	for i := range want {
		if l.Blocks[i] != want[i] {
			t.Fatalf("block %d = %+v, want %+v", i, l.Blocks[i], want[i])
		}
	}
	if l.MaxBlockBytes != 24 {
		t.Fatalf("max block = %d, want 24", l.MaxBlockBytes)
	}
}

func TestIndexedBlockConstantLens(t *testing.T) {
	l := Commit(IndexedBlock(2, []int{0, 3, 6}, Int32))
	if l.NumBlocks() != 3 || l.SizeBytes != 24 {
		t.Fatalf("layout: %+v", l)
	}
}

func TestIndexedAdjacentCoalesce(t *testing.T) {
	l := Commit(Indexed([]int{2, 2}, []int{0, 2}, Int32))
	if l.NumBlocks() != 1 || l.SizeBytes != 16 {
		t.Fatalf("adjacent indexed blocks should merge: %+v", l)
	}
}

func TestStructLayout(t *testing.T) {
	// struct { 3 int32 at 0; 2 float64 at 16 }
	l := Commit(Struct([]int{3, 2}, []int64{0, 16}, []Type{Int32, Float64}))
	if l.SizeBytes != 3*4+2*8 {
		t.Fatalf("size = %d", l.SizeBytes)
	}
	if l.ExtentBytes != 32 {
		t.Fatalf("extent = %d, want 32", l.ExtentBytes)
	}
	want := []Block{{0, 12}, {16, 16}}
	for i := range want {
		if l.Blocks[i] != want[i] {
			t.Fatalf("block %d = %+v, want %+v", i, l.Blocks[i], want[i])
		}
	}
}

func TestStructOfIndexedNesting(t *testing.T) {
	// The specfem3D_cm shape: a struct of indexed types.
	idx := Indexed([]int{1, 1}, []int{0, 2}, Float32)
	l := Commit(Struct([]int{1, 1}, []int64{0, 64}, []Type{idx, idx}))
	if l.NumBlocks() != 4 {
		t.Fatalf("blocks = %v", l.Blocks)
	}
	if l.SizeBytes != 16 {
		t.Fatalf("size = %d, want 16", l.SizeBytes)
	}
}

func TestSubarray2D(t *testing.T) {
	// 4x6 array, take the 2x3 corner starting at (1,2); row-major.
	l := Commit(Subarray([]int{4, 6}, []int{2, 3}, []int{1, 2}, Float64))
	if l.NumBlocks() != 2 {
		t.Fatalf("blocks = %v", l.Blocks)
	}
	want := []Block{{(1*6 + 2) * 8, 24}, {(2*6 + 2) * 8, 24}}
	for i := range want {
		if l.Blocks[i] != want[i] {
			t.Fatalf("block %d = %+v, want %+v", i, l.Blocks[i], want[i])
		}
	}
	if l.ExtentBytes != 4*6*8 {
		t.Fatalf("extent = %d", l.ExtentBytes)
	}
}

func TestSubarray3DColumnCount(t *testing.T) {
	// A z-face of an n^3 grid: n*n blocks of 1 element each.
	n := 8
	l := Commit(Subarray([]int{n, n, n}, []int{n, n, 1}, []int{0, 0, 0}, Float64))
	if l.NumBlocks() != n*n {
		t.Fatalf("blocks = %d, want %d", l.NumBlocks(), n*n)
	}
	// An x-face (contiguous innermost plane) coalesces fully.
	lx := Commit(Subarray([]int{n, n, n}, []int{1, n, n}, []int{0, 0, 0}, Float64))
	if lx.NumBlocks() != 1 {
		t.Fatalf("x-face blocks = %d, want 1", lx.NumBlocks())
	}
}

func TestSubarrayOutOfRangePanics(t *testing.T) {
	// Construction is total: the error surfaces at commit time.
	tt := Subarray([]int{4}, []int{3}, []int{2}, Byte)
	if _, err := CommitE(tt); !errors.Is(err, ErrInvalidType) {
		t.Fatalf("CommitE err = %v, want ErrInvalidType", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Commit(tt)
}

func TestNestedVectorOfVector(t *testing.T) {
	// MILC-like: vector of vectors.
	inner := Vector(2, 3, 4, Float32) // extent 11 floats? (1*4+3)*4 = 28 bytes... compute: (2-1)*4*4+3*4 = 16+12 = 28
	if inner.Extent() != 28 {
		t.Fatalf("inner extent = %d", inner.Extent())
	}
	outer := Commit(Vector(3, 1, 2, inner))
	if outer.SizeBytes != 3*inner.Size() {
		t.Fatalf("outer size = %d", outer.SizeBytes)
	}
	if outer.NumBlocks() != 6 {
		t.Fatalf("outer blocks = %d, want 6", outer.NumBlocks())
	}
}

func TestCommitUIDsUnique(t *testing.T) {
	a := Commit(Contiguous(1, Byte))
	b := Commit(Contiguous(1, Byte))
	if a.UID == b.UID {
		t.Fatal("UIDs must be unique per commit")
	}
}

// TestDensity: payload bytes over extent is 1 for a contiguous layout and
// under 1/2 for a sparse vector.
func TestDensity(t *testing.T) {
	dense := Commit(Contiguous(64, Byte))
	if dense.SizeBytes != dense.ExtentBytes {
		t.Fatalf("dense layout: %d of %d bytes", dense.SizeBytes, dense.ExtentBytes)
	}
	sparse := Commit(Vector(4, 1, 16, Byte))
	if 2*sparse.SizeBytes >= sparse.ExtentBytes {
		t.Fatalf("sparse layout: %d of %d bytes, want under half", sparse.SizeBytes, sparse.ExtentBytes)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	l := Commit(Vector(4, 2, 5, Float64))
	src := make([]byte, l.ExtentBytes)
	for i := range src {
		src[i] = byte(i + 1)
	}
	packed := make([]byte, l.SizeBytes)
	if w := l.Pack(src, packed); w != l.SizeBytes {
		t.Fatalf("packed %d bytes, want %d", w, l.SizeBytes)
	}
	dst := make([]byte, l.ExtentBytes)
	if r := l.Unpack(packed, dst); r != l.SizeBytes {
		t.Fatalf("unpacked %d bytes, want %d", r, l.SizeBytes)
	}
	// Every byte inside a block must round-trip; holes stay zero.
	for _, b := range l.Blocks {
		for off := b.Offset; off < b.Offset+b.Len; off++ {
			if dst[off] != src[off] {
				t.Fatalf("byte %d: got %d want %d", off, dst[off], src[off])
			}
		}
	}
}

func TestRepeatCoalescesAcrossElements(t *testing.T) {
	l := Commit(Contiguous(4, Byte))
	blocks := l.Repeat(3)
	if len(blocks) != 1 || blocks[0].Len != 12 {
		t.Fatalf("repeat of contiguous should fuse: %v", blocks)
	}
	// Vector(2,1,2,Byte) has extent 3, so the second element's first
	// block ({3,1}) merges with the first element's last block ({2,1}).
	lv := Commit(Vector(2, 1, 2, Byte))
	bv := lv.Repeat(2)
	want2 := []Block{{0, 1}, {2, 2}, {5, 1}}
	if len(bv) != len(want2) {
		t.Fatalf("vector repeat blocks = %v, want %v", bv, want2)
	}
	for i := range want2 {
		if bv[i] != want2[i] {
			t.Fatalf("vector repeat blocks = %v, want %v", bv, want2)
		}
	}
}

func TestPackNUnpackN(t *testing.T) {
	l := Commit(Indexed([]int{1, 2}, []int{0, 2}, Int32))
	count := 5
	src := make([]byte, int(l.ExtentBytes)*count)
	rng := rand.New(rand.NewSource(7))
	rng.Read(src)
	packed := make([]byte, int(l.SizeBytes)*count)
	if w := packN(l, src, packed, count); w != l.SizeBytes*int64(count) {
		t.Fatalf("PackN wrote %d", w)
	}
	dst := make([]byte, len(src))
	if r := unpackN(l, packed, dst, count); r != l.SizeBytes*int64(count) {
		t.Fatalf("UnpackN read %d", r)
	}
	for e := 0; e < count; e++ {
		base := int64(e) * l.ExtentBytes
		for _, b := range l.Blocks {
			got := dst[base+b.Offset : base+b.Offset+b.Len]
			want := src[base+b.Offset : base+b.Offset+b.Len]
			if !bytes.Equal(got, want) {
				t.Fatalf("element %d block %+v mismatch", e, b)
			}
		}
	}
}

func TestCoalesceDropsEmpty(t *testing.T) {
	out := Coalesce([]Block{{0, 0}, {0, 4}, {4, 4}, {10, 0}, {12, 2}})
	want := []Block{{0, 8}, {12, 2}}
	if len(out) != 2 || out[0] != want[0] || out[1] != want[1] {
		t.Fatalf("coalesce = %v, want %v", out, want)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	// Constructors are total; CommitE surfaces the typed error and Commit
	// panics with it.
	for _, tt := range []Type{
		Indexed([]int{1}, []int{0, 1}, Byte),
		Hindexed([]int{1, 2}, []int64{0}, Byte),
		Struct([]int{1}, []int64{0, 8}, []Type{Byte}),
	} {
		if _, err := CommitE(tt); !errors.Is(err, ErrInvalidType) {
			t.Errorf("CommitE(%s) err = %v, want ErrInvalidType", tt.TypeName(), err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			Commit(tt)
		}()
	}
}

// randomType builds a random nested datatype from a seed (bounded depth).
func randomType(rng *rand.Rand, depth int) Type {
	prims := []Type{Byte, Int32, Float64}
	if depth <= 0 || rng.Intn(3) == 0 {
		return prims[rng.Intn(len(prims))]
	}
	base := randomType(rng, depth-1)
	switch rng.Intn(4) {
	case 0:
		return Contiguous(rng.Intn(4)+1, base)
	case 1:
		bl := rng.Intn(3) + 1
		return Vector(rng.Intn(4)+1, bl, bl+rng.Intn(4), base)
	case 2:
		n := rng.Intn(4) + 1
		lens := make([]int, n)
		displs := make([]int, n)
		pos := 0
		for i := range lens {
			lens[i] = rng.Intn(3) + 1
			displs[i] = pos
			pos += lens[i] + rng.Intn(3)
		}
		return Indexed(lens, displs, base)
	default:
		n := rng.Intn(3) + 1
		lens := make([]int, n)
		displs := make([]int64, n)
		types := make([]Type, n)
		var pos int64
		for i := range lens {
			lens[i] = rng.Intn(2) + 1
			types[i] = randomType(rng, depth-1)
			displs[i] = pos
			pos += int64(lens[i])*types[i].Extent() + int64(rng.Intn(16))
		}
		return Struct(lens, displs, types)
	}
}

// Property: for any supported nested type, pack→unpack restores exactly the
// bytes covered by the layout, and the flattened size equals Type.Size().
func TestPropertyPackUnpackIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := randomType(rng, 3)
		l := Commit(ty)
		if l.SizeBytes != ty.Size() {
			return false
		}
		if l.ExtentBytes == 0 {
			return l.SizeBytes == 0
		}
		src := make([]byte, l.ExtentBytes)
		rng.Read(src)
		packed := make([]byte, l.SizeBytes)
		l.Pack(src, packed)
		dst := make([]byte, l.ExtentBytes)
		l.Unpack(packed, dst)
		for _, b := range l.Blocks {
			if !bytes.Equal(dst[b.Offset:b.Offset+b.Len], src[b.Offset:b.Offset+b.Len]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: blocks never overlap and stay within the extent for the random
// type family above (which constructs non-overlapping displacements).
func TestPropertyBlocksWithinExtent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := Commit(randomType(rng, 3))
		var prevEnd int64 = -1
		for _, b := range l.Blocks {
			if b.Offset < 0 || b.Offset+b.Len > l.ExtentBytes {
				return false
			}
			if b.Offset <= prevEnd { // coalesced ⇒ strictly increasing with gaps
				return false
			}
			prevEnd = b.Offset + b.Len
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResizedChangesExtentOnly(t *testing.T) {
	base := Vector(2, 1, 3, Int32) // size 8, extent 16
	r := Resized(base, 64)
	if r.Size() != base.Size() {
		t.Fatalf("size changed: %d", r.Size())
	}
	if r.Extent() != 64 {
		t.Fatalf("extent = %d", r.Extent())
	}
	l := Commit(r)
	if l.ExtentBytes != 64 || l.SizeBytes != 8 {
		t.Fatalf("layout: %+v", l)
	}
	// Repeat spaces elements at the resized extent.
	blocks := l.Repeat(2)
	if blocks[len(blocks)-1].Offset < 64 {
		t.Fatalf("second element not spaced by resized extent: %v", blocks)
	}
}

func TestResizedNegativePanics(t *testing.T) {
	tt := Resized(Byte, -1)
	var ite *InvalidTypeError
	if _, err := CommitE(tt); !errors.As(err, &ite) {
		t.Fatalf("CommitE err = %v, want *InvalidTypeError", err)
	} else if ite.Constructor != "Resized" {
		t.Fatalf("constructor = %q, want Resized", ite.Constructor)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Commit(tt)
}

// packN packs count consecutive elements of l.
func packN(l *Layout, src, dst []byte, count int) int64 {
	var w int64
	for i := 0; i < count; i++ {
		w += l.Pack(src[int64(i)*l.ExtentBytes:], dst[w:])
	}
	return w
}

// unpackN unpacks count consecutive elements of l.
func unpackN(l *Layout, src, dst []byte, count int) int64 {
	var r int64
	for i := 0; i < count; i++ {
		r += l.Unpack(src[r:], dst[int64(i)*l.ExtentBytes:])
	}
	return r
}
