package pack_test

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/conformance"
	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/pack"
	"repro/internal/sim"
)

// blockSpan returns the buffer length a block list needs.
func blockSpan(blocks []datatype.Block) int64 {
	n := int64(1)
	for _, b := range blocks {
		n = max(n, b.Offset+b.Len)
	}
	return n
}

// recut cuts the byte stream of blocks into a differently shaped,
// ascending block list with random gaps and piece lengths.
func recut(rng *rand.Rand, blocks []datatype.Block) []datatype.Block {
	var total int64
	for _, b := range blocks {
		total += b.Len
	}
	var out []datatype.Block
	var off int64
	for rem := total; rem > 0; {
		n := rng.Int63n(rem) + 1
		out = append(out, datatype.Block{Offset: off, Len: n})
		off += n + rng.Int63n(5)
		rem -= n
	}
	return out
}

// jobSums runs OpPack, OpUnpack and three OpDirectIPC jobs over one block
// list on buffers in the given payload mode and returns the checksum of
// every written buffer. The IPC jobs copy to a recut layout, gather into
// one block and scatter out of one block.
func jobSums(lazy bool, blocks, cut []datatype.Block, seed uint64) []uint64 {
	d := gpu.NewDevice(sim.NewEnv(), cluster.VoltaV100NVLink(), 0, 0)
	if lazy {
		d.LazyThreshold = 1
	}
	var size int64
	for _, b := range blocks {
		size += b.Len
	}
	one := []datatype.Block{{Offset: 3, Len: size}}
	alloc := func(name string, n int64, fill uint64) *gpu.Buffer {
		b := d.Alloc(name, int(n))
		b.FillStream(fill)
		return b
	}
	src := alloc("src", blockSpan(blocks), seed)
	packed := alloc("packed", size, seed+1)
	out := alloc("out", blockSpan(blocks), seed+2)
	pack.NewJob(pack.OpPack, src, packed, blocks).Execute()
	pack.NewJob(pack.OpUnpack, packed, out, blocks).Execute()

	recutDst := alloc("recut", blockSpan(cut), seed+3)
	j := pack.NewJob(pack.OpDirectIPC, src, recutDst, blocks)
	j.TargetBlocks = cut
	j.Execute()
	gathered := alloc("gathered", size+3, seed+4)
	j = pack.NewJob(pack.OpDirectIPC, src, gathered, blocks)
	j.TargetBlocks = one
	j.Execute()
	scattered := alloc("scattered", blockSpan(blocks), seed+5)
	j = pack.NewJob(pack.OpDirectIPC, gathered, scattered, one)
	j.TargetBlocks = blocks
	j.Execute()

	return []uint64{packed.Checksum(), out.Checksum(), recutDst.Checksum(), gathered.Checksum(), scattered.Checksum()}
}

// TestPropertyJobRoundTripLazy is the lazy twin of TestPropertyJobRoundTrip
// over conformance-generator layouts, whose unsorted and overlapping
// indexed types reach the payload fallbacks: every job leaves the same
// checksums with exact and with lazy buffers.
func TestPropertyJobRoundTripLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ran := 0
	for iter := 0; iter < 400; iter++ {
		data := make([]byte, 24)
		rng.Read(data)
		l := datatype.Commit(conformance.DecodeType(data))
		blocks := make([]datatype.Block, 0, len(l.Blocks))
		lo := int64(0)
		for _, b := range l.Blocks {
			lo = min(lo, b.Offset)
		}
		var size int64
		for _, b := range l.Blocks {
			blocks = append(blocks, datatype.Block{Offset: b.Offset - lo, Len: b.Len})
			size += b.Len
		}
		if size == 0 {
			continue
		}
		ran++
		cut := recut(rng, blocks)
		seed := rng.Uint64()
		exact, lazy := jobSums(false, blocks, cut, seed), jobSums(true, blocks, cut, seed)
		for k := range exact {
			if exact[k] != lazy[k] {
				t.Fatalf("layout %s (%d blocks): job %d checksum exact %#x lazy %#x",
					l.Name, len(blocks), k, exact[k], lazy[k])
			}
		}
	}
	if ran < 100 {
		t.Fatalf("only %d of 400 generated layouts carried bytes", ran)
	}
}
