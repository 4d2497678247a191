package rma

import "fmt"

// FreeOps reports how many settled ops f holds for reuse.
func FreeOps(f *Fabric) int { return len(f.free) }

// CheckInvariants validates the allocator state: live symmetric windows
// sorted, aligned, non-overlapping, inside the break, and disjoint from
// every free span; free spans sorted, aligned, coalesced. The fuzz
// target calls this after every operation.
func (h *Heap) CheckInvariants() error {
	prevEnd := int64(-1)
	for _, w := range h.live {
		if w.freed {
			return fmt.Errorf("heap: freed window %q still live", w.name)
		}
		if w.off%h.align != 0 {
			return fmt.Errorf("heap: window %q offset %d unaligned", w.name, w.off)
		}
		if w.off < prevEnd {
			return fmt.Errorf("heap: window %q at %d overlaps previous region ending %d", w.name, w.off, prevEnd)
		}
		if w.off+w.reserved > h.brk {
			return fmt.Errorf("heap: window %q [%d,%d) beyond break %d", w.name, w.off, w.off+w.reserved, h.brk)
		}
		for _, s := range h.free {
			if w.off < s.off+s.size && s.off < w.off+w.reserved {
				return fmt.Errorf("heap: window %q [%d,%d) overlaps free span [%d,%d)",
					w.name, w.off, w.off+w.reserved, s.off, s.off+s.size)
			}
		}
		prevEnd = w.off + w.reserved
	}
	prevEnd = -1
	for _, s := range h.free {
		if s.off%h.align != 0 || s.size%h.align != 0 || s.size <= 0 {
			return fmt.Errorf("heap: malformed free span [%d,%d)", s.off, s.off+s.size)
		}
		if s.off == prevEnd {
			return fmt.Errorf("heap: uncoalesced free spans at %d", s.off)
		}
		if s.off < prevEnd {
			return fmt.Errorf("heap: free span at %d overlaps previous ending %d", s.off, prevEnd)
		}
		if s.off+s.size > h.brk {
			return fmt.Errorf("heap: free span [%d,%d) beyond break %d", s.off, s.off+s.size, h.brk)
		}
		prevEnd = s.off + s.size
	}
	return nil
}

// Offset returns the symmetric-heap offset, or -1 for dynamic windows.
func (w *Window) Offset() int64 { return w.off }

// Freed reports whether the window has been released.
func (w *Window) Freed() bool { return w.freed }

// Size returns rank's attached region size (0 if unattached).
func (w *Window) Size(rank int) int64 {
	if rank < 0 || rank >= len(w.sizes) {
		return 0
	}
	return w.sizes[rank]
}

// Heap returns the symmetric heap (allocation state and invariants).
func (f *Fabric) Heap() *Heap { return f.heap }

// Size reports the fabric's member count at the current epoch.
func (f *Fabric) Size() int { return len(f.members) }

// Members returns the member world ranks in member-index order (a copy).
func (f *Fabric) Members() []int { return append([]int(nil), f.members...) }

// WorldRank translates a member index to its world rank (-1 if out of
// range).
func (f *Fabric) WorldRank(m int) int {
	if m < 0 || m >= len(f.members) {
		return -1
	}
	return f.members[m]
}
