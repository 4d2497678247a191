package coll

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/rma"
)

// One-sided collective schedules: the same ring/Bruck communication
// patterns as the two-sided algorithms, but over rma puts into a
// window with slotted-signal synchronization instead of rendezvous. The
// cost shape is the paper's motivation for GPU-initiated transfer: each
// hop pays a NIC doorbell and a wire leg — no RTS/CTS/FIN control
// round-trip, no target-side progress engine — and the first hop is a
// fused PackPut (one kernel launch deposits the packed bytes directly on
// the wire) whenever the engine's fusion window is enabled.
//
// Signal slots encode the schedule round, so a delayed round-k deposit
// can never satisfy a round-j waiter (j < k) when deliveries reorder
// under fault injection. Window and signal names carry the engine's
// fabric namespace id and the call sequence number; like tags, this
// relies on the SPMD contract that every rank issues the same
// collectives in the same order.
//
// Failure tolerance (PR 10): every signal wait and verb observes the
// heartbeat detector and the fabric epoch, so a crashed peer surfaces as
// a typed *mpi.RankFailedError (triggering finish()'s auto-revoke)
// instead of a stall. Rank indices are communicator ranks == fabric
// member indices: seatFabric reseats the shared fabric onto the call's
// communicator after a Shrink, which densely re-ranks members and
// rebuilds the symmetric heap.

// osName is the per-call rendezvous namespace for windows and signals.
// Post-shrink epochs are folded in so a retried collective can never
// collide with its failed pre-shrink incarnation (epoch 0 keeps the
// historical names, preserving golden traces).
func (c *call) osName() string {
	if ep := c.cm.Epoch(); ep != 0 {
		return fmt.Sprintf("coll-os-%d-%d-e%d", c.e.osID, c.seq, ep)
	}
	return fmt.Sprintf("coll-os-%d-%d", c.e.osID, c.seq)
}

// seatFabric returns the engine's fabric, re-rendezvoused onto the
// call's communicator. Reseat is a cheap no-op when the rank already
// joined the epoch; after a Shrink the first survivor rebuilds the
// fabric (fresh epoch, empty symmetric heap) and every member pays the
// modeled rendezvous cost once.
func (c *call) seatFabric() (*rma.Fabric, error) {
	f := c.e.rmaFabric()
	if err := f.Reseat(c.p, c.r, c.cm); err != nil {
		return nil, err
	}
	return f, nil
}

// allgathervOneSided gathers every rank's contribution into a symmetric
// window laid out as the concatenation of all blocks (block i at the
// globally uniform offset offs[i]), then unpacks each block into the
// caller's receive layouts with one fused kernel.
//
// Ring: step s forwards block (id-s+1) to the right neighbour; slot s
// signals its arrival, and step s+1 waits on slot s before forwarding.
// Bruck: round k (span 2^k) sends the min(span, size-span) blocks
// starting at id to rank id-span; slot k counts the round's arrivals.
func (c *call) allgathervOneSided(send VOp, recvs []VOp, bruck bool) error {
	p := c.p
	f, err := c.seatFabric()
	if err != nil {
		return err
	}
	size := c.size()
	id := c.rank()
	ep := f.Endpoint(c.r.ID())
	fused := c.batch != nil

	offs := make([]int64, size+1)
	for i, op := range recvs {
		offs[i+1] = offs[i] + op.bytes()
	}
	total := offs[size]
	if total <= 0 {
		total = 1
	}
	name := c.osName()
	win, err := f.OpenWindow(id, name, total)
	if err != nil {
		return err
	}
	defer f.CloseWindow(win)
	sig, err := f.OpenSignal(name+"-sig", size)
	if err != nil {
		return err
	}
	defer f.CloseSignal(sig)

	ownBytes := send.bytes()
	packPut := func(target, slot int) error {
		if ownBytes > 0 {
			c.bytes += ownBytes
			return ep.PackPut(p, win, target, offs[id], send.Buf, send.Type, send.Count, offs[id], sig, slot, 1, fused)
		}
		return ep.SignalPut(p, sig, target, slot, 1)
	}
	forward := func(target, blk, slot int) error {
		n := offs[blk+1] - offs[blk]
		c.bytes += n
		return ep.PutSignal(p, win, target, offs[blk], win.Buf(id), offs[blk], n, sig, slot, 1)
	}

	switch {
	case size == 1:
		if ownBytes > 0 {
			if err := ep.PackPut(p, win, id, offs[id], send.Buf, send.Type, send.Count, offs[id], nil, 0, 0, fused); err != nil {
				return err
			}
		}
	case bruck:
		// Round 0 packs the own block and deposits it one rank to the
		// left; round k forwards the lowest min(2^k, size-2^k) held
		// blocks a span of 2^k to the left, after round k-1's batch
		// (cnt deposits on slot k-1) has fully arrived.
		prevCnt := 0
		k := 0
		for span := 1; span < size; span <<= 1 {
			to := (id - span + size) % size
			cnt := span
			if size-span < cnt {
				cnt = size - span
			}
			if k == 0 {
				if err := packPut(to, 0); err != nil {
					return err
				}
			} else {
				if err := ep.WaitSignal(p, sig, k-1, uint64(prevCnt)); err != nil {
					return err
				}
				for j := 0; j < cnt; j++ {
					if err := forward(to, (id+j)%size, k); err != nil {
						return err
					}
				}
			}
			prevCnt, k = cnt, k+1
		}
		if err := ep.WaitSignal(p, sig, k-1, uint64(prevCnt)); err != nil {
			return err
		}
	default: // ring
		right := (id + 1) % size
		if err := packPut(right, 1); err != nil {
			return err
		}
		for s := 2; s < size; s++ {
			if err := ep.WaitSignal(p, sig, s-1, 1); err != nil {
				return err
			}
			if err := forward(right, (id-s+1+size)%size, s); err != nil {
				return err
			}
		}
		if err := ep.WaitSignal(p, sig, size-1, 1); err != nil {
			return err
		}
	}

	// Every block has landed: unpack them all in one fused window, then
	// drain our outstanding puts before the window can be released.
	c.openWin()
	for i, op := range recvs {
		if op.bytes() == 0 {
			continue
		}
		c.unpackHs = append(c.unpackHs, c.unpackJob(win.Buf(id), op.Buf, op.Type, op.Count, offs[i]))
	}
	c.closeWin()
	if err := c.waitHandles(c.unpackHs); err != nil {
		return err
	}
	return ep.Quiet(p)
}

// a2aState is a rank's persistent Alltoallw fabric state: a negotiated
// dynamic window plus offset/data signals that survive across calls, so
// the per-call offset exchange (n-1 zero-byte control SignalPuts) is
// paid once per shape, not once per call.
//
// The window's in-region is double-buffered by call parity. A sender's
// call k+2 cannot start before its call k+1 completed, which requires
// every receiver to have sent its own k+1 data, which happens only after
// that receiver finished call k — so by the time parity p is written
// again (call k+2), its previous occupant (call k) has been unpacked.
// Data-signal slots are cumulative: call k waits for slot values >= k.
type a2aState struct {
	epoch   int    // fabric epoch the resources were opened under
	gen     int    // negotiation generation (bumped on local shape change)
	shape   uint64 // FNV-1a signature of the local send/recv byte vectors
	win     *rma.Window
	sigOff  *rma.Signal // 2*size slots: [parity*size + src] -> src's deposit offset + 1
	sigDat  *rma.Signal // size slots: cumulative per-source deposit counters
	inTotal int64
	calls   uint64 // completed exchanges this generation
}

// a2aShape signs the local exchange geometry. Any change — counts or
// per-peer byte totals — forces renegotiation. A shape change that is
// not global (SPMD ranks disagreeing) pairs a publisher and waiter on
// different generation names and surfaces as a loud *StallError from the
// watchdog, never as silent corruption.
func a2aShape(ops []WOp) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(len(ops)))
	for _, op := range ops {
		mix(uint64(op.sendBytes()))
		mix(uint64(op.recvBytes()))
	}
	return h
}

// close balances this rank's opens of the negotiated window and signals,
// so the last rank to close frees them. Resources of a superseded fabric
// epoch were already invalidated by the reseat.
func (st *a2aState) close(f *rma.Fabric) error {
	if st.win == nil || st.epoch != f.Epoch() {
		return nil
	}
	f.CloseSignal(st.sigOff)
	f.CloseSignal(st.sigDat)
	return f.CloseWindow(st.win)
}

// Release frees rank r's share of the engine's persistent one-sided
// Alltoallw state. Every rank calls it after its last collective on the
// engine, as MPI_Win_free is called; the last caller's close gives the
// window's buffers back to the staging pools. A later one-sided Alltoallw
// negotiates afresh.
func (e *Engine) Release(r *mpi.Rank) error {
	st := e.state(r.ID())
	if st.a2a == nil || e.rmaF == nil {
		return nil
	}
	err := st.a2a.close(e.rmaF)
	st.a2a = &a2aState{gen: st.a2a.gen + 1}
	return err
}

// a2aResources returns the rank's negotiated Alltoallw state, (re)building
// it when the shape or the fabric epoch changed. Publication of the n-1
// control offsets happens in alltoallwOneSided on the generation's first
// call.
func (c *call) a2aResources(f *rma.Fabric, ops []WOp, id int, inTotal, outTotal int64) (*a2aState, error) {
	shape := a2aShape(ops)
	st := c.st.a2a
	if st != nil && (st.epoch != f.Epoch() || st.shape != shape) {
		// The last renegotiating rank frees the old generation.
		st.close(f)
		st = &a2aState{gen: st.gen + 1}
		c.st.a2a = st
	}
	if st == nil {
		st = &a2aState{}
		c.st.a2a = st
	}
	if st.win != nil {
		return st, nil
	}
	size := c.size()
	name := fmt.Sprintf("coll-os-%d-a2a-g%d", c.e.osID, st.gen)
	if ep := c.cm.Epoch(); ep != 0 {
		name = fmt.Sprintf("%s-e%d", name, ep)
	}
	local := 2*inTotal + outTotal
	if local <= 0 {
		local = 1
	}
	win, err := f.OpenWindowSized(id, name, local)
	if err != nil {
		return nil, err
	}
	sigOff, err := f.OpenSignal(name+"-off", 2*size)
	if err != nil {
		f.CloseWindow(win)
		return nil, err
	}
	sigDat, err := f.OpenSignal(name+"-dat", size)
	if err != nil {
		f.CloseWindow(win)
		f.CloseSignal(sigOff)
		return nil, err
	}
	st.epoch = f.Epoch()
	st.shape = shape
	st.win, st.sigOff, st.sigDat = win, sigOff, sigDat
	st.inTotal = inTotal
	st.calls = 0
	return st, nil
}

// alltoallwOneSided runs the personalized exchange over puts into a
// dynamic (per-rank-sized) window: the in-region holds one slot per
// source at locally computed offsets, and peers learn where to deposit
// through a signal-borne offset exchange (a zero-byte SignalPut whose
// value is the offset) — the control metadata never rides in a payload
// buffer, so lazy mode stays exact. Each destination leg is a fused
// PackPut from the caller's send layout via the window's out-region;
// slot src of the data signal announces src's deposit.
//
// The window, signals, and offset exchange are negotiated once per shape
// (a2aResources) and reused: repeat calls with the same geometry issue
// zero control SignalPuts, depositing into parity-alternating in-regions
// against cumulative data-signal thresholds.
//
// The ring schedule issues destinations in (id+s) order, one peer per
// step; the Bruck schedule groups destinations into power-of-two
// distance phases before issuing.
func (c *call) alltoallwOneSided(ops []WOp, bruck bool) error {
	p := c.p
	f, err := c.seatFabric()
	if err != nil {
		return err
	}
	size := c.size()
	id := c.rank()
	ep := f.Endpoint(c.r.ID())
	fused := c.batch != nil

	inOff := make([]int64, size+1)
	outOff := make([]int64, size+1)
	for i, op := range ops {
		inOff[i+1] = inOff[i] + op.recvBytes()
		outOff[i+1] = outOff[i] + op.sendBytes()
	}
	inTotal := inOff[size]
	st, err := c.a2aResources(f, ops, id, inTotal, outOff[size])
	if err != nil {
		return err
	}
	win, sigOff, sigDat := st.win, st.sigOff, st.sigDat
	k := st.calls + 1             // 1-based call index within the generation
	parity := int64(st.calls & 1) // which in-region this call deposits into

	if st.calls == 0 {
		// Offset exchange, once per negotiated shape: tell every peer
		// where its bytes land in our window — both parity regions. Sent
		// before any data wait, and only after our window is attached, so
		// a peer that has our offsets also has our window.
		for s := 1; s < size; s++ {
			dst := (id + s) % size
			if err := ep.SignalPut(p, sigOff, dst, id, uint64(inOff[dst])+1); err != nil {
				return err
			}
			if err := ep.SignalPut(p, sigOff, dst, size+id, uint64(inTotal+inOff[dst])+1); err != nil {
				return err
			}
		}
	}

	putTo := func(dst int) error {
		var off int64
		if dst == id {
			off = parity*inTotal + inOff[id]
		} else {
			slot := int(parity)*size + dst
			if err := ep.WaitSignal(p, sigOff, slot, 1); err != nil {
				return err
			}
			off = int64(sigOff.Value(id, slot) - 1)
		}
		op := ops[dst]
		n := op.sendBytes()
		if n == 0 {
			// Zero-byte leg: the arrival signal still fires so the
			// receiver's wait loop stays uniform.
			return ep.SignalPut(p, sigDat, dst, id, 1)
		}
		c.bytes += n
		return ep.PackPut(p, win, dst, off, op.SendBuf, op.SendType, op.SendCount, 2*inTotal+outOff[dst], sigDat, id, 1, fused)
	}

	if bruck {
		if err := putTo(id); err != nil {
			return err
		}
		for span := 1; span < size; span <<= 1 {
			hi := 2 * span
			if size < hi {
				hi = size
			}
			for s := span; s < hi; s++ {
				if err := putTo((id + s) % size); err != nil {
					return err
				}
			}
		}
	} else {
		for s := 0; s < size; s++ {
			if err := putTo((id + s) % size); err != nil {
				return err
			}
		}
	}

	// Wait for every source's cumulative deposit count, unpack this
	// parity's in-region in one fused window, and drain our own
	// outstanding puts.
	for src := 0; src < size; src++ {
		if err := ep.WaitSignal(p, sigDat, src, k); err != nil {
			return err
		}
	}
	c.openWin()
	for src, op := range ops {
		if op.recvBytes() == 0 {
			continue
		}
		c.unpackHs = append(c.unpackHs, c.unpackJob(win.Buf(id), op.RecvBuf, op.RecvType, op.RecvCount, parity*inTotal+inOff[src]))
	}
	c.closeWin()
	if err := c.waitHandles(c.unpackHs); err != nil {
		return err
	}
	if err := ep.Quiet(p); err != nil {
		return err
	}
	st.calls++
	return nil
}
