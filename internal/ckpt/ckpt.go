// Package ckpt is the epoch-consistent in-memory checkpoint/restore
// subsystem: a buddy-style store of registered GPU buffers that lets
// survivors roll back to the last globally-consistent snapshot after a
// rank failure and Shrink.
//
// Model:
//
//   - Each rank registers the buffers that constitute its recoverable
//     state. A checkpoint epoch opens when the first rank captures and
//     commits once every live registered rank has contributed — the
//     "coordinated checkpoint" consistency rule: no epoch ever mixes
//     pre- and post-collective state across ranks.
//   - A snapshot is a gpu.Snapshot: a cheap span clone in lazy payload
//     mode (O(spans), no byte materialization) and a byte copy in exact
//     mode, so the same rollback story scales from 4-rank conformance
//     runs to 1024-rank chaos runs. It holds no reference to the live
//     buffer, so nothing read from it can see a later write.
//   - Buddy placement models where the redundant copy physically lives:
//     rank r's snapshot is mirrored on buddy (r+1) mod n. r's state is
//     recoverable iff r itself or its buddy is still alive; a live rank
//     can adopt a dead rank's snapshot only if it is that rank's buddy.
//   - The store is driver-side bookkeeping: captures and restores cost
//     no virtual time here. Callers that want the simulated machine to
//     pay for the memcpy (the facade's RankCtx.Checkpoint does) charge
//     it themselves from the buffer byte counts this package reports.
package ckpt

import (
	"fmt"

	"repro/internal/gpu"
)

// Epoch is one committed (or still-collecting) coordinated checkpoint.
type Epoch struct {
	// Seq numbers epochs 1, 2, ... in commit order.
	Seq int
	// CommEpoch records the communicator epoch the checkpoint was taken
	// under, so a restore after Shrink can tell which world it rolls
	// back to.
	CommEpoch int
	// TakenAt is the virtual time of the last contribution.
	TakenAt int64
	// Bytes is the total logical snapshot size across all ranks.
	Bytes int64

	snaps    [][]gpu.Snapshot
	captured []bool
	want     int // live registered ranks still to contribute
}

// Committed reports whether every live registered rank has contributed.
func (e *Epoch) Committed() bool { return e != nil && e.want == 0 }

// RankSum folds the checksums of rank's snapshots into one value — a
// fingerprint tests compare across capture/scribble/restore cycles. It
// hashes the frozen snapshots on each call.
func (e *Epoch) RankSum(rank int) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range e.snaps[rank] {
		h ^= s.Checksum()
		h *= 1099511628211
	}
	return h
}

// Store owns the registrations and the epoch history for one world.
type Store struct {
	n    int
	regs [][]*gpu.Buffer
	dead []bool
	open *Epoch
	last *Epoch // most recent committed epoch
	seq  int
}

// NewStore creates a store for a world of n ranks.
func NewStore(n int) *Store {
	return &Store{
		n:    n,
		regs: make([][]*gpu.Buffer, n),
		dead: make([]bool, n),
	}
}

// Buddy is the rank holding the mirror copy of rank's snapshots.
func (st *Store) Buddy(rank int) int { return (rank + 1) % st.n }

// Register adds bufs to rank's recoverable state. Registration order is
// restore order; register before the first capture.
func (st *Store) Register(rank int, bufs ...*gpu.Buffer) {
	st.regs[rank] = append(st.regs[rank], bufs...)
}

// Registered is the number of buffers rank has registered.
func (st *Store) Registered(rank int) int { return len(st.regs[rank]) }

// Rebind swaps rank's registration of old for replacement in place,
// preserving registration (and therefore restore) order. Snapshots taken
// from the old buffer stay restorable — a restore targets the
// registration slot, which now points at the replacement. This is how
// window-backed state survives a fabric re-rendezvous: reopening a
// window after Shrink allocates a fresh device buffer, and the rebind
// lets the pre-failure snapshot roll into it. Reports whether old was
// found.
func (st *Store) Rebind(rank int, old, replacement *gpu.Buffer) bool {
	if rank < 0 || rank >= st.n {
		return false
	}
	for i, b := range st.regs[rank] {
		if b == old {
			st.regs[rank][i] = replacement
			return true
		}
	}
	return false
}

// RestoreBuffer rolls a single registered buffer of rank back to the
// latest committed epoch, returning the bytes logically copied. The
// buffer is matched by registration slot, so it also restores snapshots
// captured from a since-Rebind-replaced predecessor.
func (st *Store) RestoreBuffer(rank int, b *gpu.Buffer) (int64, error) {
	e := st.last
	if e == nil || !e.captured[rank] {
		return 0, fmt.Errorf("ckpt: no committed snapshot for rank %d", rank)
	}
	if !st.Available(rank) {
		return 0, fmt.Errorf("ckpt: rank %d snapshot lost (rank and buddy %d both dead)",
			rank, st.Buddy(rank))
	}
	for i, reg := range st.regs[rank] {
		if reg != b {
			continue
		}
		if i >= len(e.snaps[rank]) {
			return 0, fmt.Errorf("ckpt: buffer %s registered after epoch %d was captured", b.Name, e.Seq)
		}
		s := e.snaps[rank][i]
		if err := s.Restore(b); err != nil {
			return 0, fmt.Errorf("ckpt: %w", err)
		}
		return s.Len(), nil
	}
	return 0, fmt.Errorf("ckpt: buffer %s is not registered for rank %d", b.Name, rank)
}

// RegisteredBytes is the total logical size of rank's registered buffers —
// what a capture or restore of the rank logically moves, in either payload
// mode (callers charging simulated memcpy time use this so lazy and exact
// runs stay clock-identical).
func (st *Store) RegisteredBytes(rank int) int64 {
	var n int64
	for _, b := range st.regs[rank] {
		n += int64(b.Len())
	}
	return n
}

// participants counts live ranks with at least one registration.
func (st *Store) participants() int {
	n := 0
	for r := 0; r < st.n; r++ {
		if !st.dead[r] && len(st.regs[r]) > 0 {
			n++
		}
	}
	return n
}

// CaptureRank contributes rank's registered buffers to the open epoch,
// opening one if needed. When the last live registered rank contributes
// the epoch commits and becomes Latest(). Returns the epoch (committed or
// not) and whether this call committed it.
func (st *Store) CaptureRank(rank int, now int64, commEpoch int) (*Epoch, bool) {
	if st.dead[rank] || len(st.regs[rank]) == 0 {
		return st.open, false
	}
	if st.open == nil {
		st.open = &Epoch{
			CommEpoch: commEpoch,
			snaps:     make([][]gpu.Snapshot, st.n),
			captured:  make([]bool, st.n),
			want:      st.participants(),
		}
	}
	e := st.open
	if e.captured[rank] {
		return e, false // duplicate contribution to the same epoch
	}
	e.captured[rank] = true
	e.snaps[rank] = e.snaps[rank][:0]
	for _, b := range st.regs[rank] {
		s := b.Snapshot(0, int64(b.Len()))
		e.snaps[rank] = append(e.snaps[rank], s)
		e.Bytes += s.Len()
	}
	if now > e.TakenAt {
		e.TakenAt = now
	}
	if commEpoch > e.CommEpoch {
		e.CommEpoch = commEpoch
	}
	e.want--
	if e.want == 0 {
		st.seq++
		e.Seq = st.seq
		st.last = e
		st.open = nil
		return e, true
	}
	return e, false
}

// CaptureAll captures every live registered rank in one call — the
// driver-side coordinated checkpoint. Returns the committed epoch, or nil
// if nothing is registered.
func (st *Store) CaptureAll(now int64, commEpoch int) *Epoch {
	var last *Epoch
	for r := 0; r < st.n; r++ {
		if e, committed := st.CaptureRank(r, now, commEpoch); committed {
			last = e
		}
	}
	return last
}

// Latest is the most recent committed epoch (nil before the first commit).
func (st *Store) Latest() *Epoch { return st.last }

// MarkDead excludes rank from the capture quorum and from restores. If an
// epoch is open and rank had not yet contributed, the quorum shrinks — a
// checkpoint in progress when a rank dies still commits from the
// survivors, which is exactly the state they will roll back to.
func (st *Store) MarkDead(rank int) {
	if rank < 0 || rank >= st.n || st.dead[rank] {
		return
	}
	st.dead[rank] = true
	if e := st.open; e != nil && !e.captured[rank] && len(st.regs[rank]) > 0 {
		e.want--
		if e.want == 0 {
			st.seq++
			e.Seq = st.seq
			st.last = e
			st.open = nil
		}
	}
}

// Available reports whether rank's latest snapshot is recoverable under
// the buddy model: the rank itself or its buddy must be alive.
func (st *Store) Available(rank int) bool {
	if st.last == nil || !st.last.captured[rank] {
		return false
	}
	return !st.dead[rank] || !st.dead[st.Buddy(rank)]
}

// RestoreRank rolls rank's registered buffers back to the latest committed
// epoch. Returns the bytes logically copied and the restored epoch, or an
// error if no recoverable snapshot exists.
func (st *Store) RestoreRank(rank int) (int64, *Epoch, error) {
	e := st.last
	if e == nil || !e.captured[rank] {
		return 0, nil, fmt.Errorf("ckpt: no committed snapshot for rank %d", rank)
	}
	if !st.Available(rank) {
		return 0, nil, fmt.Errorf("ckpt: rank %d snapshot lost (rank and buddy %d both dead)",
			rank, st.Buddy(rank))
	}
	var n int64
	for i, s := range e.snaps[rank] {
		if err := s.Restore(st.regs[rank][i]); err != nil {
			return n, e, fmt.Errorf("ckpt: %w", err)
		}
		n += s.Len()
	}
	return n, e, nil
}

// AdoptRank copies dead's latest snapshot into the caller-supplied buffers
// (same count, sizes, and payload modes as dead's registrations) — the
// buddy takeover path after a Shrink redistributes a lost rank's work.
// Only dead's buddy holds the mirror, so adopter must be that buddy.
func (st *Store) AdoptRank(adopter, dead int, into []*gpu.Buffer) (int64, error) {
	e := st.last
	if e == nil || !e.captured[dead] {
		return 0, fmt.Errorf("ckpt: no committed snapshot for rank %d", dead)
	}
	if adopter != st.Buddy(dead) {
		return 0, fmt.Errorf("ckpt: rank %d is not the buddy of rank %d (buddy is %d)",
			adopter, dead, st.Buddy(dead))
	}
	if st.dead[adopter] {
		return 0, fmt.Errorf("ckpt: adopter rank %d is dead", adopter)
	}
	if len(into) != len(e.snaps[dead]) {
		return 0, fmt.Errorf("ckpt: adopt buffer count mismatch: have %d want %d",
			len(into), len(e.snaps[dead]))
	}
	var n int64
	for i, s := range e.snaps[dead] {
		if err := s.Restore(into[i]); err != nil {
			return n, fmt.Errorf("ckpt: %w", err)
		}
		n += s.Len()
	}
	return n, nil
}
