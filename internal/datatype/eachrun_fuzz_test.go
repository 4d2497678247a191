package datatype_test

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/datatype"
)

// encodeBlocks writes blocks as the 4-byte records decodeRunBlocks reads.
func encodeBlocks(bl []datatype.Block) []byte {
	var p []byte
	for _, b := range bl {
		p = binary.LittleEndian.AppendUint16(p, uint16(b.Offset))
		p = binary.LittleEndian.AppendUint16(p, uint16(b.Len))
	}
	return p
}

// decodeRunBlocks reads up to 64 blocks from 4-byte records: a
// little-endian 16-bit offset and a 16-bit length (zero allowed).
func decodeRunBlocks(p []byte) (bl []datatype.Block, total int64) {
	for ; len(p) >= 4 && len(bl) < 64; p = p[4:] {
		b := datatype.Block{Offset: int64(binary.LittleEndian.Uint16(p)), Len: int64(binary.LittleEndian.Uint16(p[2:]))}
		bl = append(bl, b)
		total += b.Len
	}
	return bl, total
}

// ascends reports whether the non-empty blocks of bl ascend without
// overlap, the destination lists CopyBlocks copies in one splice.
func ascends(bl []datatype.Block) bool {
	hi := int64(-1)
	for _, b := range bl {
		if b.Len == 0 {
			continue
		}
		if b.Offset < hi {
			return false
		}
		hi = b.Offset + b.Len
	}
	return true
}

// FuzzEachRun checks EachRun against EachPiece on two block lists cut
// differently (the shorter padded by one block to the longer's byte
// count), each grouped into stride runs by Runs: the runs expand back to
// the blocks; the piece runs, expanded, are EachPiece's pieces in order;
// every piece run has positive length, a one-piece run zero steps, and a
// run of an ascending destination list a destination step of at least its
// length (its pieces ascend without overlap); and two one-run lists make
// one piece run when their blocks have equal length or one of them is a
// single block.
func FuzzEachRun(f *testing.F) {
	vec := datatype.Commit(datatype.Vector(8, 2, 4, datatype.Int32)).Blocks
	staging := []datatype.Block{{Len: 64}}
	// A strided pack into staging and the matching unpack.
	f.Add(encodeBlocks(staging), encodeBlocks(vec))
	f.Add(encodeBlocks(vec), encodeBlocks(staging))
	// A subarray face against an indexed layout cut another way.
	face := datatype.Commit(datatype.Subarray([]int{6, 5}, []int{3, 4}, []int{1, 1}, datatype.Int32)).Blocks
	idx := datatype.Commit(datatype.Indexed([]int{2, 2, 2, 2, 2, 2}, []int{0, 3, 6, 9, 12, 15}, datatype.Int32)).Blocks
	f.Add(encodeBlocks(face), encodeBlocks(idx))
	// Two vectors whose blocks cut each other.
	f.Add(encodeBlocks(datatype.Commit(datatype.Vector(4, 3, 5, datatype.Int32)).Blocks),
		encodeBlocks(datatype.Commit(datatype.Vector(3, 4, 6, datatype.Int32)).Blocks))
	// Descending offsets, and zero-length blocks inside a strided list.
	desc := datatype.Commit(datatype.Indexed([]int{1, 1, 1, 1}, []int{30, 20, 10, 0}, datatype.Int64)).Blocks
	f.Add(encodeBlocks(nil), encodeBlocks(desc))
	f.Add(encodeBlocks([]datatype.Block{{0, 8}, {16, 0}, {16, 8}, {32, 8}, {40, 0}, {48, 8}}), encodeBlocks([]datatype.Block{{100, 32}}))
	// Two vectors of equal block length and different strides.
	f.Add(encodeBlocks(vec), encodeBlocks(datatype.Commit(datatype.Vector(8, 2, 6, datatype.Int32)).Blocks))
	f.Fuzz(func(t *testing.T, dstRecs, srcRecs []byte) {
		dst, dt := decodeRunBlocks(dstRecs)
		src, st := decodeRunBlocks(srcRecs)
		if dt < st {
			dst = append(dst, datatype.Block{Offset: 0x11000, Len: st - dt})
		} else if st < dt {
			src = append(src, datatype.Block{Offset: 0x11000, Len: dt - st})
		}
		dr, sr := datatype.Runs(dst, nil), datatype.Runs(src, nil)
		for _, c := range []struct {
			bl []datatype.Block
			rl []datatype.Run
		}{{dst, dr}, {src, sr}} {
			if got := (&datatype.Canonical{Runs: c.rl}).Expand(); !slices.Equal(got, c.bl) {
				t.Fatalf("runs %+v expand to %v, not %v", c.rl, got, c.bl)
			}
		}

		var pieces, expanded [][3]int64
		datatype.EachPiece(dst, src, func(d, s, n int64) { pieces = append(pieces, [3]int64{d, s, n}) })
		var runs []datatype.PieceRun
		datatype.EachRun(dr, sr, func(r datatype.PieceRun) {
			runs = append(runs, r)
			for k := int64(0); k < r.Count; k++ {
				expanded = append(expanded, [3]int64{r.DstOff + k*r.DstStep, r.SrcOff + k*r.SrcStep, r.N})
			}
		})
		if !slices.Equal(expanded, pieces) {
			t.Fatalf("runs %+v expand to %v, EachPiece walks %v", runs, expanded, pieces)
		}
		asc := ascends(dst)
		for i, r := range runs {
			switch {
			case r.N <= 0 || r.Count <= 0:
				t.Fatalf("run %d: %+v is empty", i, r)
			case r.Count == 1 && (r.DstStep != 0 || r.SrcStep != 0):
				t.Fatalf("run %d: one piece with steps %+v", i, r)
			case r.Count > 1 && asc && r.DstStep < r.N:
				t.Fatalf("run %d: %+v of an ascending list steps back or overlaps", i, r)
			}
		}
		if len(dr) == 1 && len(sr) == 1 && dr[0].Len > 0 && sr[0].Len > 0 &&
			(dr[0].Len == sr[0].Len || dr[0].Count == 1 || sr[0].Count == 1) && len(runs) != 1 {
			t.Fatalf("one-run lists %+v and %+v walk in %d runs %+v", dr, sr, len(runs), runs)
		}
	})
}
