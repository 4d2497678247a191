package pack_test

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/conformance"
	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/layoutcache"
	"repro/internal/pack"
	"repro/internal/payload"
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

// entryFor builds the layout-cache entry a cache would hold for blocks:
// their aggregates and the plan compiled from their canonical form.
func entryFor(blocks []datatype.Block) *layoutcache.Entry {
	e := &layoutcache.Entry{Shape: layoutcache.NewShape(blocks), Extent: blockSpan(blocks)}
	e.Canon = datatype.Canonicalize(blocks, e.Extent)
	e.Plan = datatype.CompilePlan(e.Canon)
	return e
}

// peerOf is the Peer of a DirectIPC job writing the raw block list blocks.
func peerOf(blocks []datatype.Block) *pack.Peer {
	s := layoutcache.NewShape(blocks)
	return &pack.Peer{Shape: &s}
}

// jobSums runs OpPack, OpUnpack and three OpDirectIPC jobs over one block
// list on buffers in the given payload mode and returns the checksum of
// every written buffer. The IPC jobs copy to a recut layout, gather into
// one block and scatter out of one block. The last three sums are a pack,
// an unpack and a recut IPC copy of JobFor jobs over the same blocks,
// which take their aggregates and runs from cache entries; they must
// equal the first three.
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
	j.Peer = peerOf(cut)
	j.Execute()
	gathered := alloc("gathered", size+3, seed+4)
	j = pack.NewJob(pack.OpDirectIPC, src, gathered, blocks)
	j.Peer = peerOf(one)
	j.Execute()
	scattered := alloc("scattered", blockSpan(blocks), seed+5)
	j = pack.NewJob(pack.OpDirectIPC, gathered, scattered, one)
	j.Peer = peerOf(blocks)
	j.Execute()

	e, ce := entryFor(blocks), entryFor(cut)
	packedFor := alloc("packed-for", size, seed+1)
	outFor := alloc("out-for", blockSpan(blocks), seed+2)
	recutFor := alloc("recut-for", blockSpan(cut), seed+3)
	for _, j := range []pack.Job{
		pack.JobFor(pack.OpPack, src, packedFor, e),
		pack.JobFor(pack.OpUnpack, packedFor, outFor, e),
		directFor(src, recutFor, e, ce),
	} {
		j.Execute()
	}

	return []uint64{packed.Checksum(), out.Checksum(), recutDst.Checksum(), gathered.Checksum(), scattered.Checksum(),
		packedFor.Checksum(), outFor.Checksum(), recutFor.Checksum()}
}

// directFor is a DirectIPC job from entry e's layout of origin into entry
// dst's layout of target, both plans from the cache entries.
func directFor(origin, target *gpu.Buffer, e, dst *layoutcache.Entry) pack.Job {
	j := pack.JobFor(pack.OpDirectIPC, origin, target, e)
	j.Peer = &pack.Peer{Shape: &dst.Shape}
	return j
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
		for k := 5; k < len(lazy); k++ {
			if lazy[k] != lazy[k-5] {
				t.Fatalf("layout %s (%d blocks): JobFor job %d checksum %#x, NewJob %#x",
					l.Name, len(blocks), k-5, lazy[k], lazy[k-5])
			}
		}
	}
	if ran < 100 {
		t.Fatalf("only %d of 400 generated layouts carried bytes", ran)
	}
}

// TestLazyPlanJobAllocatesNothing pins the warm lazy path of jobs built
// from cache entries: a JobFor pack and unpack of the ddtperf leg layout
// and a DirectIPC job carrying both plans copy over stride runs without
// allocating, so the run walk and the splice state stay on the stack.
func TestLazyPlanJobAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled span lists, so allocation counts do not hold")
	}
	cache := layoutcache.New()
	leg, _ := cache.Get(datatype.Commit(datatype.Vector(64, 64, 128, datatype.Float64)), 1)
	wide, _ := cache.Get(datatype.Commit(datatype.Vector(32, 128, 192, datatype.Float64)), 1)
	lazy := func(n, seed int64) *gpu.Buffer {
		b := &gpu.Buffer{Name: "lazy", Lazy: payload.New(n)}
		b.FillStream(uint64(seed))
		return b
	}
	src, packed := lazy(leg.Extent, 1), lazy(leg.Bytes, 2)
	out, ipc := lazy(leg.Extent, 3), lazy(wide.Extent, 4)
	for _, tc := range []struct {
		name string
		job  pack.Job
	}{
		{"pack", pack.JobFor(pack.OpPack, src, packed, leg)},
		{"unpack", pack.JobFor(pack.OpUnpack, packed, out, leg)},
		{"direct-ipc", directFor(src, ipc, leg, wide)},
	} {
		tc.job.Execute() // warm: span lists and shape tables reach their size
		if n := testing.AllocsPerRun(100, tc.job.Execute); n != 0 {
			t.Errorf("%s: a warm lazy plan job allocates %.1f times per run, want 0", tc.name, n)
		}
	}
}
