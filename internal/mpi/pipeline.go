package mpi

import (
	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/layoutcache"
	"repro/internal/pack"
	"repro/internal/sim"
)

// Chunked (pipelined) rendezvous: large non-contiguous RGET sends are
// packed chunk by chunk, each chunk a separate datatype-processing request
// (so chunks fuse with other pending work under the proposed scheme), and
// each chunk's RDMA read starts as soon as that chunk is packed — packing
// overlaps the wire transfer instead of fully preceding it, the pipelining
// style of GDR-class MPI runtimes.
//
// Protocol (RGET only; RPUT and contiguous sends use the plain path):
//
//	sender: Isend -> envelope RTS (matchable, carries chunk count)
//	        per chunk packed -> RTS-chunk {offset, bytes}
//	receiver: match envelope; per RTS-chunk -> RDMA-READ that span;
//	          when all spans landed -> FIN + unpack (whole message)

// pipeState is a pipelined leg's chunk state, made only for such legs: the
// sender's chunks, the receiver's announced chunks and landed bytes.
type pipeState struct {
	chunks        []sendChunk // send: chunk states
	pendingChunks []*message  // recv: announced, not yet pulled chunks
	recvdBytes    int64       // recv: bytes landed so far
}

// land counts n more bytes landed in receive q's staging, from a pipelined
// chunk or a checksummed read, and marks the payload here once all of it
// landed.
func (q *Request) land(n int64) {
	if q.pipe != nil {
		q.pipe.recvdBytes += n
		n = q.pipe.recvdBytes
	}
	if n == q.bytes {
		q.dataHere = true
	}
}

// sendChunk tracks one pipeline chunk on the sender.
type sendChunk struct {
	handle    Handle
	off       int64
	bytes     int64
	announced bool
}

// splitChunks greedily groups blocks so each group carries at least
// chunkBytes (except the last).
func splitChunks(blocks []datatype.Block, chunkBytes int64) [][]datatype.Block {
	var out [][]datatype.Block
	var cur []datatype.Block
	var acc int64
	for _, b := range blocks {
		cur = append(cur, b)
		acc += b.Len
		if acc >= chunkBytes {
			out = append(out, cur)
			cur, acc = nil, 0
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// wantsPipeline reports whether a send should take the chunked path.
func (r *Rank) wantsPipeline(q *Request) bool {
	cfg := r.world.Cfg
	return cfg.PipelineChunkBytes > 0 &&
		cfg.Rendezvous == RGET &&
		!q.contig &&
		q.bytes > cfg.EagerLimitBytes &&
		q.bytes > cfg.PipelineChunkBytes
}

// startPipelinedSend sets up chunked packing and emits the envelope RTS.
// Called from Isend in place of the whole-message pack.
func (r *Rank) startPipelinedSend(p *sim.Proc, q *Request, buf *gpu.Buffer) {
	groups := splitChunks(q.entry.Blocks, r.world.Cfg.PipelineChunkBytes)
	q.pipe = &pipeState{}
	q.packed = r.stagingBuf(q.bytes)
	var off int64
	for _, g := range groups {
		sh := layoutcache.NewShape(g)
		job := pack.Job{Op: pack.OpPack, Origin: buf, Target: q.packed, TargetOff: off, Shape: &sh}
		q.pipe.chunks = append(q.pipe.chunks, sendChunk{
			handle: r.scheme.Pack(p, job),
			off:    off,
			bytes:  sh.Bytes,
		})
		off += sh.Bytes
	}
	q.state = stPacking
	// Envelope goes out immediately (ordered): the receiver needs it to
	// match before any chunk can be pulled.
	r.emitInOrder(p, q)
}

// progressPipelinedSend announces packed chunks; returns true while the
// send still has work (caller should not fall through to the plain path).
func (r *Rank) progressPipelinedSend(p *sim.Proc, q *Request) {
	allDone := true
	for i := range q.pipe.chunks {
		c := &q.pipe.chunks[i]
		if c.announced {
			continue
		}
		if err := c.handle.Err(); err != nil {
			r.fail(p, q, "pack-chunk", 0, err)
			return
		}
		if !c.handle.Done(p) {
			allDone = false
			continue
		}
		c.announced = true
		r.postCtrl(p, q, &message{
			kind: mkRTSChunk, from: int32(r.id), to: int32(q.peer), tag: q.tag,
			sender: q, chunkOff: c.off, chunkBytes: c.bytes,
		})
	}
	if allDone {
		q.state = stWaitFin
	}
}

// acceptChunk records an RTS-chunk at the receiver (scheduler context).
func (r *Rank) acceptChunk(m *message) {
	if q := m.sender.peerReq; q != nil {
		q.pipe.pendingChunks = append(q.pipe.pendingChunks, m)
		return
	}
	// Envelope not matched yet: park the chunk.
	r.orphanChunks = append(r.orphanChunks, m)
}

// adoptOrphanChunks moves parked chunks belonging to q's sender onto q.
func (r *Rank) adoptOrphanChunks(q *Request) {
	sender := q.rndvSend()
	keep := r.orphanChunks[:0]
	for _, m := range r.orphanChunks {
		if m.sender == sender {
			q.pipe.pendingChunks = append(q.pipe.pendingChunks, m)
		} else {
			keep = append(keep, m)
		}
	}
	r.orphanChunks = keep
}

// progressPipelinedRecv pulls announced chunks; returns true once the full
// payload has landed.
func (r *Rank) progressPipelinedRecv(p *sim.Proc, q *Request) bool {
	// Snapshot and clear first: net.Post yields the proc, and chunk
	// announcements arriving during the yield append to pendingChunks —
	// they must land on the fresh slice, not be lost to the post-loop
	// clear.
	chunks := q.pipe.pendingChunks
	q.pipe.pendingChunks = nil
	if r.reliable() {
		// Each announced chunk becomes a checksummed, retried read span.
		for _, m := range chunks {
			r.issueRead(p, q, q.newRead(m.chunkOff, m.chunkBytes), false)
			if q.settled() {
				return false
			}
		}
		return q.dataHere
	}
	for _, m := range chunks {
		r.postChunkRead(p, q, m)
	}
	return q.dataHere
}
