package pack

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/layoutcache"
	"repro/internal/sim"
)

// rawPeer is the Peer of a DirectIPC job writing the raw block list
// blocks.
func rawPeer(blocks []datatype.Block) *Peer {
	s := layoutcache.NewShape(blocks)
	return &Peer{Shape: &s}
}

func newDev() (*sim.Env, *gpu.Device) {
	env := sim.NewEnv()
	return env, gpu.NewDevice(env, cluster.VoltaV100NVLink(), 0, 0)
}

func fillPattern(b *gpu.Buffer, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Read(b.Data)
}

func TestNewJobAggregates(t *testing.T) {
	_, d := newDev()
	l := datatype.Commit(datatype.Vector(4, 2, 5, datatype.Float64))
	src := d.Alloc("src", int(l.ExtentBytes))
	dst := d.Alloc("dst", int(l.SizeBytes))
	j := NewJob(OpPack, src, dst, l.Blocks)
	if j.Bytes != l.SizeBytes || j.Segments != 4 || j.MaxBlock != 16 {
		t.Fatalf("aggregates wrong: %+v", j)
	}
}

func TestPackExecuteGathers(t *testing.T) {
	_, d := newDev()
	l := datatype.Commit(datatype.Indexed([]int{2, 1, 3}, []int{0, 4, 8}, datatype.Float64))
	src := d.Alloc("src", int(l.ExtentBytes))
	dst := d.Alloc("dst", int(l.SizeBytes))
	fillPattern(src, 1)
	NewJob(OpPack, src, dst, l.Blocks).Execute()
	ref := make([]byte, l.SizeBytes)
	l.Pack(src.Data, ref)
	if !bytes.Equal(dst.Data, ref) {
		t.Fatal("gather result differs from reference Pack")
	}
}

func TestUnpackExecuteScatters(t *testing.T) {
	_, d := newDev()
	l := datatype.Commit(datatype.Vector(3, 2, 4, datatype.Int32))
	packed := d.Alloc("packed", int(l.SizeBytes))
	dst := d.Alloc("dst", int(l.ExtentBytes))
	fillPattern(packed, 2)
	NewJob(OpUnpack, packed, dst, l.Blocks).Execute()
	ref := make([]byte, l.ExtentBytes)
	l.Unpack(packed.Data, ref)
	if !bytes.Equal(dst.Data, ref) {
		t.Fatal("scatter result differs from reference Unpack")
	}
}

func TestPackWithTargetOffset(t *testing.T) {
	_, d := newDev()
	l := datatype.Commit(datatype.Vector(2, 1, 2, datatype.Byte))
	src := d.Alloc("src", int(l.ExtentBytes))
	dst := d.Alloc("dst", 16)
	src.Data[0], src.Data[2] = 0xAA, 0xBB
	j := NewJob(OpPack, src, dst, l.Blocks)
	j.TargetOff = 8
	j.Execute()
	if dst.Data[8] != 0xAA || dst.Data[9] != 0xBB {
		t.Fatalf("offset pack wrong: %v", dst.Data)
	}
}

func TestUnpackWithOriginOffset(t *testing.T) {
	_, d := newDev()
	l := datatype.Commit(datatype.Vector(2, 1, 2, datatype.Byte))
	packed := d.Alloc("packed", 16)
	dst := d.Alloc("dst", int(l.ExtentBytes))
	packed.Data[4], packed.Data[5] = 0x11, 0x22
	j := NewJob(OpUnpack, packed, dst, l.Blocks)
	j.OriginOff = 4
	j.Execute()
	if dst.Data[0] != 0x11 || dst.Data[2] != 0x22 {
		t.Fatalf("offset unpack wrong: %v", dst.Data)
	}
}

func TestDirectIPCDifferentLayouts(t *testing.T) {
	_, d := newDev()
	// Source: two blocks of 3; destination: three blocks of 2.
	src := d.Alloc("src", 32)
	dst := d.Alloc("dst", 32)
	for i := range src.Data {
		src.Data[i] = byte(i)
	}
	j := NewJob(OpDirectIPC, src, dst, []datatype.Block{{Offset: 0, Len: 3}, {Offset: 10, Len: 3}})
	j.Peer = rawPeer([]datatype.Block{{Offset: 0, Len: 2}, {Offset: 8, Len: 2}, {Offset: 16, Len: 2}})
	j.Execute()
	want := []byte{0, 1, 2, 10, 11, 12}
	got := []byte{dst.Data[0], dst.Data[1], dst.Data[8], dst.Data[9], dst.Data[16], dst.Data[17]}
	if !bytes.Equal(got, want) {
		t.Fatalf("IPC copy got %v want %v", got, want)
	}
}

// TestDirectIPCMismatchedBytesPanics: the byte-count check holds in both
// payload modes, including the lazy Gather (one destination block),
// Scatter (one source block) and piece-by-piece paths.
func TestDirectIPCMismatchedBytesPanics(t *testing.T) {
	b := func(off, n int64) datatype.Block { return datatype.Block{Offset: off, Len: n} }
	for _, lazy := range []bool{false, true} {
		for _, c := range []struct{ from, to []datatype.Block }{
			{[]datatype.Block{b(0, 4)}, []datatype.Block{b(0, 2)}},
			{[]datatype.Block{b(0, 4), b(8, 4)}, []datatype.Block{b(0, 6)}},
			{[]datatype.Block{b(0, 6)}, []datatype.Block{b(0, 4), b(8, 4)}},
			{[]datatype.Block{b(0, 4), b(8, 4)}, []datatype.Block{b(0, 2), b(8, 2)}},
		} {
			t.Run(fmt.Sprintf("lazy=%v/%d-to-%d", lazy, len(c.from), len(c.to)), func(t *testing.T) {
				_, d := newDev()
				if lazy {
					d.LazyThreshold = 1
				}
				j := NewJob(OpDirectIPC, d.Alloc("src", 32), d.Alloc("dst", 32), c.from)
				j.Peer = rawPeer(c.to)
				defer func() {
					if recover() == nil {
						t.Fatal("expected panic")
					}
				}()
				j.Execute()
			})
		}
	}
}

func TestKernelSpecCarriesIPCFloor(t *testing.T) {
	_, d := newDev()
	src := d.Alloc("src", 1<<20)
	dst := d.Alloc("dst", 1<<20)
	j := NewJob(OpDirectIPC, src, dst, []datatype.Block{{Offset: 0, Len: 1 << 20}})
	j.Peer = &Peer{BWBytesPerNs: 50, LatencyNs: 700}
	spec := j.KernelSpec()
	wantFloor := int64(700 + (1<<20)/50)
	if spec.MinDurationNs != wantFloor {
		t.Fatalf("floor = %d, want %d", spec.MinDurationNs, wantFloor)
	}
	// Pack jobs have no floor.
	if NewJob(OpPack, src, dst, []datatype.Block{{Offset: 0, Len: 64}}).KernelSpec().MinDurationNs != 0 {
		t.Fatal("pack job must not carry an IPC floor")
	}
}

// TestGPUEngineMovesBytesAtKernelCompletion: a pack job's kernel, launched
// on a stream, moves the bytes when it retires, not at launch.
func TestGPUEngineMovesBytesAtKernelCompletion(t *testing.T) {
	env, d := newDev()
	st := d.NewStream("pack")
	l := datatype.Commit(datatype.Vector(8, 4, 8, datatype.Float32))
	src := d.Alloc("src", int(l.ExtentBytes))
	dst := d.Alloc("dst", int(l.SizeBytes))
	fillPattern(src, 3)
	env.Spawn("host", func(p *sim.Proc) {
		c := st.Launch(p, NewJob(OpPack, src, dst, l.Blocks).KernelSpec())
		if c.Done() {
			t.Error("kernel retired instantly")
		}
		st.Synchronize(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	ref := make([]byte, l.SizeBytes)
	l.Pack(src.Data, ref)
	if !bytes.Equal(dst.Data, ref) {
		t.Fatal("GPU engine pack wrong")
	}
}

func TestCPUEngineBlocksForCostAndMoves(t *testing.T) {
	env, d := newDev()
	e := &CPUEngine{Dev: d}
	l := datatype.Commit(datatype.Vector(4, 2, 4, datatype.Float64))
	src := d.Alloc("src", int(l.ExtentBytes))
	dst := d.Alloc("dst", int(l.SizeBytes))
	fillPattern(src, 4)
	j := NewJob(OpPack, src, dst, l.Blocks)
	var took int64
	env.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		e.Run(p, j)
		took = p.Now() - start
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if took != e.CostNs(j) {
		t.Fatalf("blocked %dns, want %dns", took, e.CostNs(j))
	}
	ref := make([]byte, l.SizeBytes)
	l.Pack(src.Data, ref)
	if !bytes.Equal(dst.Data, ref) {
		t.Fatal("CPU engine pack wrong")
	}
	if d.Stats.KernelLaunches != 0 {
		t.Fatal("CPU engine must not touch the GPU driver")
	}
}

func TestCPUBeatsGPUForTinyDenseAndLosesForLarge(t *testing.T) {
	// The hybrid baseline's rationale (paper Fig. 10): GDRCopy wins for
	// small dense layouts because it skips launch+sync, loses at scale
	// because its bandwidth is tiny.
	_, d := newDev()
	cpu := &CPUEngine{Dev: d}
	small := &Job{Op: OpPack, Shape: &layoutcache.Shape{Bytes: 4 << 10, Segments: 8, MaxBlock: 512}}
	gpuSmall := d.EstimateKernelNs(small.Bytes, small.Segments, small.MaxBlock) +
		d.Arch.LaunchOverheadNs + d.Arch.StreamSyncBaseNs
	if cpu.CostNs(small) >= gpuSmall {
		t.Fatalf("CPU small (%d) should beat GPU small (%d)", cpu.CostNs(small), gpuSmall)
	}
	large := &Job{Op: OpPack, Shape: &layoutcache.Shape{Bytes: 8 << 20, Segments: 64, MaxBlock: 128 << 10}}
	gpuLarge := d.EstimateKernelNs(large.Bytes, large.Segments, large.MaxBlock) +
		d.Arch.LaunchOverheadNs + d.Arch.StreamSyncBaseNs
	if cpu.CostNs(large) <= gpuLarge {
		t.Fatalf("CPU large (%d) should lose to GPU large (%d)", cpu.CostNs(large), gpuLarge)
	}
}

// Property: pack followed by unpack through jobs restores all covered bytes
// for arbitrary vector shapes.
func TestPropertyJobRoundTrip(t *testing.T) {
	f := func(count, blocklen, extra uint8, seed int64) bool {
		c := int(count%16) + 1
		bl := int(blocklen%8) + 1
		st := bl + int(extra%8)
		l := datatype.Commit(datatype.Vector(c, bl, st, datatype.Float32))
		_, d := newDev()
		src := d.Alloc("src", int(l.ExtentBytes))
		packed := d.Alloc("packed", int(l.SizeBytes))
		out := d.Alloc("out", int(l.ExtentBytes))
		fillPattern(src, seed)
		NewJob(OpPack, src, packed, l.Blocks).Execute()
		NewJob(OpUnpack, packed, out, l.Blocks).Execute()
		for _, b := range l.Blocks {
			if !bytes.Equal(out.Data[b.Offset:b.Offset+b.Len], src.Data[b.Offset:b.Offset+b.Len]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: gpu.CopyLayout between two block lists of real bytes is a
// permutation-preserving stream copy — the concatenated payload read
// equals the concatenated payload written — for random compatible cuts.
func TestPropertyCopyBlocksStreamEquality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := rng.Intn(200) + 1
		cut := func() []datatype.Block {
			var blocks []datatype.Block
			var off int64
			rem := total
			for rem > 0 {
				n := rng.Intn(rem) + 1
				blocks = append(blocks, datatype.Block{Offset: off, Len: int64(n)})
				off += int64(n) + int64(rng.Intn(5))
				rem -= n
			}
			return blocks
		}
		srcBlocks, dstBlocks := cut(), cut()
		need := func(blocks []datatype.Block) int {
			var max int64
			for _, b := range blocks {
				if end := b.Offset + b.Len; end > max {
					max = end
				}
			}
			return int(max)
		}
		src := make([]byte, need(srcBlocks))
		dst := make([]byte, need(dstBlocks))
		rng.Read(src)
		gpu.CopyLayout(&gpu.Buffer{Data: dst}, gpu.Layout{Blocks: dstBlocks}, &gpu.Buffer{Data: src}, gpu.Layout{Blocks: srcBlocks})
		read := make([]byte, 0, total)
		for _, b := range srcBlocks {
			read = append(read, src[b.Offset:b.Offset+b.Len]...)
		}
		written := make([]byte, 0, total)
		for _, b := range dstBlocks {
			written = append(written, dst[b.Offset:b.Offset+b.Len]...)
		}
		return bytes.Equal(read, written)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
