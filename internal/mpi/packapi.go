package mpi

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/pack"
	"repro/internal/sim"
)

// This file implements the MPI-level *explicit* pack/unpack API
// (MPI_Pack / MPI_Unpack) analyzed in Section III-A of the paper
// (Algorithm 1): blocking routines that must complete the datatype
// processing before returning, which forbids any overlap between
// packing and communication. They are provided both for API completeness
// and so the Section III approach comparison can be reproduced.

// PackSize returns the buffer size MPI_Pack needs for count elements of l
// (MPI_Pack_size).
func (r *Rank) PackSize(l *datatype.Layout, count int) int64 {
	return l.SizeBytes * int64(count)
}

// Pack packs count elements of layout l from inbuf into outbuf starting at
// *position, advancing *position by the packed bytes. It blocks until the
// packing has completed on the device (the MPI semantic the paper's red
// dotted line in Fig. 4(a) depicts).
func (r *Rank) Pack(p *sim.Proc, inbuf *gpu.Buffer, l *datatype.Layout, count int, outbuf *gpu.Buffer, position *int64) {
	e := r.lookupLayout(p, l, count)
	if *position+e.Bytes > int64(outbuf.Len()) {
		panic(fmt.Sprintf("mpi: Pack overflow: position %d + %d bytes > buffer %d", *position, e.Bytes, outbuf.Len()))
	}
	job := pack.JobFor(pack.OpPack, inbuf, outbuf, e)
	job.TargetOff = *position
	h := r.scheme.Pack(p, job)
	r.blockOn(p, h)
	*position += e.Bytes
}

// Unpack is the inverse of Pack: it scatters packed bytes from inbuf at
// *position into outbuf according to l, blocking until completion.
func (r *Rank) Unpack(p *sim.Proc, inbuf *gpu.Buffer, position *int64, outbuf *gpu.Buffer, l *datatype.Layout, count int) {
	e := r.lookupLayout(p, l, count)
	if *position+e.Bytes > int64(inbuf.Len()) {
		panic(fmt.Sprintf("mpi: Unpack underflow: position %d + %d bytes > buffer %d", *position, e.Bytes, inbuf.Len()))
	}
	job := pack.JobFor(pack.OpUnpack, inbuf, outbuf, e)
	job.OriginOff = *position
	h := r.scheme.Unpack(p, job)
	r.blockOn(p, h)
	*position += e.Bytes
}

// blockOn drives a scheme handle to completion synchronously: the blocking
// pack/unpack semantic. Fused work must be launched immediately (the
// blocking call is itself a synchronization point).
func (r *Rank) blockOn(p *sim.Proc, h Handle) {
	if h.Done(p) {
		return
	}
	r.scheme.Flush(p)
	if ev := h.DoneEv(); ev != nil {
		p.Wait(ev)
		h.Done(p) // release scheme bookkeeping
		return
	}
	for !h.Done(p) {
		p.Sleep(r.world.Cfg.PollIntervalNs)
	}
}
