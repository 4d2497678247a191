// Package conformance is the differential correctness layer promised by
// DESIGN §5: every DDT scheme must produce byte-identical receive buffers,
// and the same seed must produce bit-identical simulated timings. The
// package provides
//
//   - a seeded random derived-datatype generator (bounded nested
//     vector/hvector/indexed/hindexed/struct/subarray types, depth <= 4)
//     driven by a byte-stream decoder so the same machinery serves both
//     seeded property tests and native go-fuzz targets;
//   - a differential runner that executes one exchange over every scheme
//     in internal/schemes and reports the first diverging
//     (offset, scheme-pair) on failure;
//   - a determinism oracle that replays a scenario and asserts identical
//     final sim-clock readings and per-category trace totals.
//
// TEMPI-style canonical flattening of nested datatypes is exactly where
// silent corruption hides (zero counts, zero-length blocks, overlapping
// extents, resized types whose payload outruns their extent), so the
// generator is deliberately biased toward those shapes.
package conformance

import (
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mpi"
)

// Generation bounds. Depth and extent budgets keep every generated type
// small enough that a full differential run over all schemes stays cheap.
const (
	maxDepth       = 4
	extentBudget   = 32 << 10 // bytes of memory span per element
	maxConstructor = 10
)

// reader yields bounded values from a byte stream. When the stream is
// exhausted it returns zeros, so every input — including the empty one —
// decodes to a well-formed type. This makes the decoder total: fuzzers can
// feed arbitrary bytes and only engine bugs, never decoder artifacts, can
// fail a target.
type reader struct {
	data []byte
	pos  int
}

func (r *reader) next() byte {
	if r.pos >= len(r.data) {
		r.pos++
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// intn returns a value in [0, n).
func (r *reader) intn(n int) int {
	if n <= 1 {
		r.next()
		return 0
	}
	return int(r.next()) % n
}

// signed returns a value in (-128, 127] — used to exercise the
// negative-stride decode path, which the engine normalizes away.
func (r *reader) signed() int { return int(int8(r.next())) }

// amp occasionally multiplies a replication count so a useful fraction of
// scenarios crosses the eager and pipeline thresholds instead of the whole
// population clustering at tens of bytes. Zero stays zero.
func (r *reader) amp(n int) int {
	switch r.next() & 3 {
	case 0:
		return n * 16
	case 1:
		return n * 4
	}
	return n
}

var primitives = []datatype.Type{
	datatype.Byte, datatype.Char, datatype.Int32, datatype.Int64,
	datatype.Float32, datatype.Float64, datatype.Complex64, datatype.Complex128,
}

// capCount shrinks a decoded replication count so count*unit stays inside
// budget. Zero counts survive: they are a deliberately covered edge.
func capCount(n int, unit, budget int64) int {
	if n < 0 {
		n = 0
	}
	if unit <= 0 {
		unit = 1
	}
	if max := budget / unit; int64(n) > max {
		n = int(max)
	}
	return n
}

// DecodeType decodes an arbitrary byte string into a bounded derived
// datatype: nesting depth <= 4, per-element extent <= extentBudget. The
// mapping is stable so committed fuzz corpora keep meaning what their
// comments say.
func DecodeType(data []byte) datatype.Type {
	r := &reader{data: data}
	return decodeType(r, maxDepth, extentBudget)
}

func decodeType(r *reader, depth int, budget int64) datatype.Type {
	if depth <= 0 || budget < 32 {
		return primitives[r.intn(len(primitives))]
	}
	switch r.intn(maxConstructor) {
	case 0: // primitive leaf
		return primitives[r.intn(len(primitives))]

	case 1: // contiguous
		base := decodeType(r, depth-1, budget/4)
		count := capCount(r.amp(r.intn(7)), base.Extent(), budget)
		return datatype.Contiguous(count, base)

	case 2: // vector; negative decoded strides normalize to 0 (overlap)
		base := decodeType(r, depth-1, budget/8)
		count, blocklen := r.intn(10), r.intn(5)
		stride := r.signed() % 8
		if stride < 0 {
			stride = 0
		}
		span := int64(stride+blocklen) + 1
		count = capCount(r.amp(count), span*base.Extent(), budget)
		return datatype.Vector(count, blocklen, stride, base)

	case 3: // hvector with a byte stride decoupled from the base extent
		base := decodeType(r, depth-1, budget/8)
		count, blocklen := r.intn(10), r.intn(5)
		strideBytes := int64(r.signed())
		if strideBytes < 0 {
			strideBytes = 0
		}
		span := strideBytes + int64(blocklen)*base.Extent() + 1
		count = capCount(r.amp(count), span, budget)
		return datatype.Hvector(count, blocklen, strideBytes, base)

	case 4: // indexed: unordered displacements (descending and overlapping)
		base := decodeType(r, depth-1, budget/8)
		n := r.intn(7)
		maxDispl := capCount(64, base.Extent(), budget)
		lens := make([]int, n)
		displs := make([]int, n)
		for i := 0; i < n; i++ {
			lens[i] = capCount(r.intn(5), base.Extent(), budget/int64(n+1))
			displs[i] = r.intn(maxDispl + 1)
		}
		return datatype.Indexed(lens, displs, base)

	case 5: // hindexed: byte displacements
		base := decodeType(r, depth-1, budget/8)
		n := r.intn(7)
		lens := make([]int, n)
		displs := make([]int64, n)
		for i := 0; i < n; i++ {
			lens[i] = capCount(r.intn(5), base.Extent(), budget/int64(n+1))
			displs[i] = int64(r.intn(int(budget/2 + 1)))
		}
		return datatype.Hindexed(lens, displs, base)

	case 6: // indexed-block: constant block length
		base := decodeType(r, depth-1, budget/8)
		n := r.intn(7)
		blocklen := capCount(r.intn(4), base.Extent(), budget/int64(n+1))
		displs := make([]int, n)
		maxDispl := capCount(64, base.Extent(), budget)
		for i := 0; i < n; i++ {
			displs[i] = r.intn(maxDispl + 1)
		}
		return datatype.IndexedBlock(blocklen, displs, base)

	case 7: // struct: heterogeneous fields, gaps, possible overlap
		nf := 1 + r.intn(3)
		lens := make([]int, nf)
		displs := make([]int64, nf)
		types := make([]datatype.Type, nf)
		var pos int64
		for i := 0; i < nf; i++ {
			types[i] = decodeType(r, depth-1, budget/int64(2*nf))
			lens[i] = capCount(r.intn(4), types[i].Extent(), budget/int64(nf))
			if r.next()&1 == 0 {
				displs[i] = pos // sequential with a decoded gap
				pos += int64(lens[i])*types[i].Extent() + int64(r.intn(16))
			} else {
				displs[i] = int64(r.intn(int(budget/4 + 1))) // unordered
			}
		}
		return datatype.Struct(lens, displs, types)

	case 8: // subarray, 1-3 dims, row-major
		nd := 1 + r.intn(3)
		sizes := make([]int, nd)
		subsizes := make([]int, nd)
		starts := make([]int, nd)
		vol := int64(1)
		for d := 0; d < nd; d++ {
			sizes[d] = 1 + r.intn(6)
			vol *= int64(sizes[d])
		}
		base := decodeType(r, depth-1, budget/(vol+1))
		for d := 0; d < nd; d++ {
			subsizes[d] = r.intn(sizes[d] + 1) // zero-width slabs allowed
			starts[d] = r.intn(sizes[d] - subsizes[d] + 1)
		}
		return datatype.Subarray(sizes, subsizes, starts, base)

	default: // resized: extent override in [ext/2, ~1.5*ext]
		base := decodeType(r, depth-1, budget/2)
		ext := base.Extent()
		newExt := ext/2 + int64(r.intn(int(ext+2)))
		if newExt > budget {
			newExt = budget
		}
		return datatype.Resized(base, newExt)
	}
}

// Scenario is one decoded differential-exchange setup: a send datatype, a
// wire-compatible receive datatype (usually the same one), the element
// count, and the MPI-runtime knobs that select different protocol paths.
type Scenario struct {
	SendType, RecvType datatype.Type
	Send, Recv         *datatype.Layout
	Count              int
	Rendezvous         mpi.RendezvousMode
	// EagerLimit overrides the runtime eager threshold (0 = default):
	// forcing tiny limits drives small payloads down the rendezvous path,
	// huge limits drive large payloads down the eager path.
	EagerLimit int64
	DisableIPC bool
	// IntraNode exchanges between two GPUs of one node (DirectIPC path)
	// instead of across the fabric.
	IntraNode bool
	// Pipeline enables chunked rendezvous (small chunk size so even the
	// bounded generated payloads split into multiple chunks).
	Pipeline bool
	// Seed drives the deterministic buffer fill patterns.
	Seed uint64
	// Faults, when non-nil, injects deterministic fabric/NIC/GPU faults
	// and activates the MPI reliability layer (chaos conformance).
	Faults *fault.Plan
	// StallTimeoutNs overrides the sim watchdog timeout for this run.
	// Zero keeps the runner's default (2 s of virtual time, generous
	// enough for the slowest fuzzed baselines); negative disables it.
	StallTimeoutNs int64
}

// DecodeScenario decodes an arbitrary byte string into a bounded scenario.
// Like DecodeType it is total: every input yields a runnable scenario.
func DecodeScenario(data []byte) Scenario {
	r := &reader{data: data}
	t := decodeType(r, maxDepth, extentBudget)
	l := datatype.Commit(t)
	sc := Scenario{SendType: t, RecvType: t, Send: l, Recv: l}
	sc.Count = 1 + r.intn(3)
	if r.next()&1 == 1 {
		sc.Rendezvous = mpi.RPUT
	}
	switch r.intn(3) {
	case 1:
		sc.EagerLimit = 256 // force rendezvous for almost everything
	case 2:
		sc.EagerLimit = 1 << 20 // force eager for everything generated
	}
	sc.DisableIPC = r.next()&1 == 1
	sc.IntraNode = r.next()&1 == 1
	sc.Pipeline = r.next()&1 == 1
	sc.Seed = uint64(r.next())<<8 | uint64(r.next()) | 1
	if r.intn(4) == 0 && l.NumBlocks() > 0 {
		// Cross-type exchange: receive into an hindexed rearrangement
		// with the identical wire signature but different displacements.
		sc.RecvType = rearrange(r, l)
		sc.Recv = datatype.Commit(sc.RecvType)
	}
	return sc
}

// rearrange builds an hindexed-of-bytes type whose block-length sequence
// (the wire signature) matches l's, but whose displacements are re-dealt
// with decoded gaps — the receive side scatters the same bytes elsewhere.
func rearrange(r *reader, l *datatype.Layout) datatype.Type {
	lens := make([]int, len(l.Blocks))
	displs := make([]int64, len(l.Blocks))
	var pos int64
	for i, b := range l.Blocks {
		lens[i] = int(b.Len)
		displs[i] = pos
		pos += b.Len + int64(r.intn(8))
	}
	return datatype.Hindexed(lens, displs, datatype.Byte)
}

// lcg is the deterministic byte source behind GenBytes.
type lcg uint64

func (g *lcg) next() byte {
	*g = *g*6364136223846793005 + 1442695040888963407
	return byte(uint64(*g) >> 33)
}

// GenBytes deterministically expands a seed into n decoder-input bytes, so
// seeded property tests draw from exactly the space fuzzing explores.
func GenBytes(seed int64, n int) []byte {
	g := lcg(uint64(seed)*2862933555777941757 + 3037000493)
	out := make([]byte, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// GenScenario decodes the scenario for a seed.
func GenScenario(seed int64) Scenario {
	return DecodeScenario(GenBytes(seed, 96))
}

// SeedInputs are the committed known-tricky decoder inputs, mirrored in the
// fuzz corpora under testdata/fuzz. Byte positions follow decodeType's
// consumption order; the leading byte selects the constructor (mod 10).
var SeedInputs = [][]byte{
	// zero-count vector of float64 (constructor 2; count byte = 0)
	{2, 0, 5, 0, 3, 2},
	// zero-length blocks: indexed with all lens decoding to 0
	{4, 0, 2, 4, 0, 7, 0, 3, 0, 11},
	// negative stride (0x85 = -123 as int8) normalized by the decoder
	{2, 0, 4, 3, 2, 0x85},
	// overlapping extents: vector with stride 0 < blocklen 3
	{2, 0, 1, 4, 3, 0},
	// resized type whose payload end exceeds its extent (constructor 9)
	{9, 1, 0, 3, 3, 0},
	// struct-on-indexed, the specfem3D_cm shape family
	{7, 2, 4, 0, 1, 3, 1, 5, 0, 4, 0, 2, 2, 2, 9, 1, 7},
	// 3-D subarray slab
	{8, 2, 3, 2, 1, 0, 4, 2, 1, 1, 0, 1, 1, 0},
	// deep nesting: hvector of contiguous of vector
	{3, 1, 2, 2, 1, 3, 2, 4, 3, 2, 12},
	// empty input: decoder zero-padding must still yield a valid scenario
	{},
}
