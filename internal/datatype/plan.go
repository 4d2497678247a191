package datatype

// Compiled pack plans: per-canonical-form block-copy loops specialized by
// stride structure, the TEMPI move of turning "interpret a block list" into
// "run the routine compiled for this family". A Plan is compiled once per
// (canonical form, count) cache entry and then serves every equivalent
// datatype spelling; the simulated cost model is untouched (plans change
// how fast the host executes the byte movement, not the virtual-time
// charges), so the simulated clock never depends on which path packed.

// PlanKind classifies the specialization a canonical form compiled to.
type PlanKind int

const (
	// PlanEmpty is a zero-payload layout: pack/unpack are no-ops.
	PlanEmpty PlanKind = iota
	// PlanContig is a single contiguous block: one memmove.
	PlanContig
	// PlanStrided is one constant-stride run: a tight 2D loop with the
	// inner copy specialized for power-of-two block lengths.
	PlanStrided
	// PlanGather is the irregular form: a loop over stride runs.
	PlanGather

	// NumPlanKinds bounds per-kind counters.
	NumPlanKinds = int(PlanGather) + 1
)

func (k PlanKind) String() string {
	switch k {
	case PlanEmpty:
		return "empty"
	case PlanContig:
		return "contig"
	case PlanStrided:
		return "strided"
	default:
		return "gather"
	}
}

// Plan is a compiled pack/unpack routine for one canonical form.
type Plan struct {
	Kind  PlanKind
	Canon *Canonical
	// Bytes is the payload the plan moves per execution.
	Bytes int64

	// flat is the flattened-gather specialization: compilation expands the
	// runs into one source offset per block so pack/unpack is a single
	// loop with no per-run dispatch. The sparse workloads are dominated by
	// tiny blocks (specfem3D packs thousands of 4-12 byte blocks), where
	// fixed-size array assignments beat a memmove call per block.
	flat []int64
	// flatLen is the uniform block length (all runs agree); 0 means mixed
	// lengths, recorded per block in flatLens.
	flatLen  int64
	flatLens []int32
}

// flatGatherMax bounds the compiled offset-array size (~12 B per block).
const flatGatherMax = 1 << 18

// CompilePlan selects the specialization for a canonical form.
func CompilePlan(c *Canonical) *Plan {
	p := &Plan{Canon: c, Bytes: c.SizeBytes}
	switch {
	case len(c.Runs) == 0 || c.SizeBytes == 0:
		p.Kind = PlanEmpty
	case len(c.Runs) == 1 && c.Runs[0].Count == 1:
		p.Kind = PlanContig
	case len(c.Runs) == 1:
		p.Kind = PlanStrided
	default:
		p.Kind = PlanGather
		p.compileFlat()
	}
	return p
}

// compileFlat builds the flattened-gather arrays when the block count is
// bounded. Uniform-length forms record only the offsets; mixed-length
// forms also record a per-block length.
func (p *Plan) compileFlat() {
	c := p.Canon
	ln := c.Runs[0].Len
	uniform := true
	var n int64
	for _, r := range c.Runs {
		if r.Len != ln {
			uniform = false
		}
		if r.Len > 1<<30 {
			return // keep per-block lengths in int32 range
		}
		n += r.Count
	}
	if n > flatGatherMax {
		return
	}
	flat := make([]int64, 0, n)
	var lens []int32
	if !uniform {
		lens = make([]int32, 0, n)
	}
	for _, r := range c.Runs {
		o := r.Offset
		for i := int64(0); i < r.Count; i++ {
			flat = append(flat, o)
			if !uniform {
				lens = append(lens, int32(r.Len))
			}
			o += r.Stride
		}
	}
	p.flat, p.flatLens = flat, lens
	if uniform {
		p.flatLen = ln
	}
}

// Pack gathers the plan's blocks from src into contiguous dst, returning
// the bytes written. Byte-identical to the legacy block-list gather by
// construction (the runs expand to the same sequence in the same order).
func (p *Plan) Pack(src, dst []byte) int64 {
	switch p.Kind {
	case PlanEmpty:
		return 0
	case PlanContig:
		r := p.Canon.Runs[0]
		copy(dst[:r.Len], src[r.Offset:r.Offset+r.Len])
		return r.Len
	}
	if p.flat != nil {
		return p.packFlat(src, dst)
	}
	var w int64
	for _, r := range p.Canon.Runs {
		w += packRun(r, src, dst[w:])
	}
	return w
}

// packFlat is the flattened-gather fast path: one loop over per-block
// source offsets, with the inner copy specialized for the tiny block
// lengths that dominate the sparse workloads.
func (p *Plan) packFlat(src, dst []byte) int64 {
	w := int64(0)
	switch p.flatLen {
	case 0: // mixed lengths
		for i, o := range p.flat {
			switch l := int64(p.flatLens[i]); l {
			case 4:
				*(*[4]byte)(dst[w:]) = *(*[4]byte)(src[o:])
				w += 4
			case 8:
				*(*[8]byte)(dst[w:]) = *(*[8]byte)(src[o:])
				w += 8
			case 12:
				*(*[12]byte)(dst[w:]) = *(*[12]byte)(src[o:])
				w += 12
			case 16:
				*(*[16]byte)(dst[w:]) = *(*[16]byte)(src[o:])
				w += 16
			default:
				copy(dst[w:w+l], src[o:o+l])
				w += l
			}
		}
	case 4:
		for _, o := range p.flat {
			*(*[4]byte)(dst[w:]) = *(*[4]byte)(src[o:])
			w += 4
		}
	case 8:
		for _, o := range p.flat {
			*(*[8]byte)(dst[w:]) = *(*[8]byte)(src[o:])
			w += 8
		}
	case 16:
		for _, o := range p.flat {
			*(*[16]byte)(dst[w:]) = *(*[16]byte)(src[o:])
			w += 16
		}
	default: // uniform larger blocks: flat loop of memmoves
		l := p.flatLen
		for _, o := range p.flat {
			copy(dst[w:w+l], src[o:o+l])
			w += l
		}
	}
	return w
}

func (p *Plan) unpackFlat(src, dst []byte) int64 {
	rd := int64(0)
	switch p.flatLen {
	case 0: // mixed lengths
		for i, o := range p.flat {
			switch l := int64(p.flatLens[i]); l {
			case 4:
				*(*[4]byte)(dst[o:]) = *(*[4]byte)(src[rd:])
				rd += 4
			case 8:
				*(*[8]byte)(dst[o:]) = *(*[8]byte)(src[rd:])
				rd += 8
			case 12:
				*(*[12]byte)(dst[o:]) = *(*[12]byte)(src[rd:])
				rd += 12
			case 16:
				*(*[16]byte)(dst[o:]) = *(*[16]byte)(src[rd:])
				rd += 16
			default:
				copy(dst[o:o+l], src[rd:rd+l])
				rd += l
			}
		}
	case 4:
		for _, o := range p.flat {
			*(*[4]byte)(dst[o:]) = *(*[4]byte)(src[rd:])
			rd += 4
		}
	case 8:
		for _, o := range p.flat {
			*(*[8]byte)(dst[o:]) = *(*[8]byte)(src[rd:])
			rd += 8
		}
	case 16:
		for _, o := range p.flat {
			*(*[16]byte)(dst[o:]) = *(*[16]byte)(src[rd:])
			rd += 16
		}
	default:
		l := p.flatLen
		for _, o := range p.flat {
			copy(dst[o:o+l], src[rd:rd+l])
			rd += l
		}
	}
	return rd
}

// Unpack scatters contiguous src through the plan's blocks into dst,
// returning the bytes read.
func (p *Plan) Unpack(src, dst []byte) int64 {
	switch p.Kind {
	case PlanEmpty:
		return 0
	case PlanContig:
		r := p.Canon.Runs[0]
		copy(dst[r.Offset:r.Offset+r.Len], src[:r.Len])
		return r.Len
	}
	if p.flat != nil {
		return p.unpackFlat(src, dst)
	}
	var rd int64
	for _, r := range p.Canon.Runs {
		rd += unpackRun(r, src[rd:], dst)
	}
	return rd
}

// packRun copies one stride run into contiguous dst. The inner copy is
// specialized for the tiny power-of-two block lengths that dominate the
// sparse workloads (specfem3D packs thousands of 4- and 8-byte blocks):
// a fixed-size array assignment compiles to direct loads/stores instead
// of a memmove call per block.
func packRun(r Run, src, dst []byte) int64 {
	o, w := r.Offset, int64(0)
	switch r.Len {
	case 4:
		for i := int64(0); i < r.Count; i++ {
			*(*[4]byte)(dst[w:]) = *(*[4]byte)(src[o:])
			w += 4
			o += r.Stride
		}
	case 8:
		for i := int64(0); i < r.Count; i++ {
			*(*[8]byte)(dst[w:]) = *(*[8]byte)(src[o:])
			w += 8
			o += r.Stride
		}
	case 16:
		for i := int64(0); i < r.Count; i++ {
			*(*[16]byte)(dst[w:]) = *(*[16]byte)(src[o:])
			w += 16
			o += r.Stride
		}
	default:
		for i := int64(0); i < r.Count; i++ {
			copy(dst[w:w+r.Len], src[o:o+r.Len])
			w += r.Len
			o += r.Stride
		}
	}
	return w
}

// unpackRun scatters contiguous src through one stride run of dst.
func unpackRun(r Run, src, dst []byte) int64 {
	o, rd := r.Offset, int64(0)
	switch r.Len {
	case 4:
		for i := int64(0); i < r.Count; i++ {
			*(*[4]byte)(dst[o:]) = *(*[4]byte)(src[rd:])
			rd += 4
			o += r.Stride
		}
	case 8:
		for i := int64(0); i < r.Count; i++ {
			*(*[8]byte)(dst[o:]) = *(*[8]byte)(src[rd:])
			rd += 8
			o += r.Stride
		}
	case 16:
		for i := int64(0); i < r.Count; i++ {
			*(*[16]byte)(dst[o:]) = *(*[16]byte)(src[rd:])
			rd += 16
			o += r.Stride
		}
	default:
		for i := int64(0); i < r.Count; i++ {
			copy(dst[o:o+r.Len], src[rd:rd+r.Len])
			rd += r.Len
			o += r.Stride
		}
	}
	return rd
}
