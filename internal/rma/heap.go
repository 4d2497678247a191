package rma

import (
	"fmt"
	"sort"

	"repro/internal/gpu"
)

// Heap is the symmetric-heap allocator. Offsets are a single shared
// address space: a symmetric window occupies the same [off, off+size)
// range on every rank, so a remote address is always (window, offset)
// with no per-peer translation — the NVSHMEM property that makes
// one-sided addressing possible without an offset-exchange handshake.
//
// The allocator is a first-fit free list over an ever-growing break.
// Backing storage is one gpu.Buffer per rank per window, lent by the
// device's staging pool (Device.Staging, so the device's LazyThreshold
// gives lazy payloads for big windows automatically) and given back when
// the window is freed. That keeps windows independent of rank count and
// lets the fuzzer exercise allocator invariants without building devices
// at all.
type Heap struct {
	f      *Fabric
	align  int64
	brk    int64
	free   []span // sorted by offset, coalesced, never overlapping
	nextID int
	live   []*Window // symmetric windows holding heap regions, by offset
}

type span struct{ off, size int64 }

// reserve carves an aligned region, reusing freed space first-fit.
func (h *Heap) reserve(size int64) (off, reserved int64) {
	reserved = (size + h.align - 1) / h.align * h.align
	if reserved == 0 {
		reserved = h.align
	}
	for i, s := range h.free {
		if s.size >= reserved {
			off = s.off
			if s.size == reserved {
				h.free = append(h.free[:i], h.free[i+1:]...)
			} else {
				h.free[i] = span{s.off + reserved, s.size - reserved}
			}
			return off, reserved
		}
	}
	off = h.brk
	h.brk += reserved
	return off, reserved
}

// release returns a region to the free list, coalescing neighbours.
func (h *Heap) release(off, reserved int64) {
	i := sort.Search(len(h.free), func(i int) bool { return h.free[i].off >= off })
	h.free = append(h.free, span{})
	copy(h.free[i+1:], h.free[i:])
	h.free[i] = span{off, reserved}
	// Coalesce with the right neighbour, then the left.
	if i+1 < len(h.free) && h.free[i].off+h.free[i].size == h.free[i+1].off {
		h.free[i].size += h.free[i+1].size
		h.free = append(h.free[:i+1], h.free[i+2:]...)
	}
	if i > 0 && h.free[i-1].off+h.free[i-1].size == h.free[i].off {
		h.free[i-1].size += h.free[i].size
		h.free = append(h.free[:i], h.free[i+1:]...)
	}
}

func (h *Heap) insertLive(w *Window) {
	i := sort.Search(len(h.live), func(i int) bool { return h.live[i].off >= w.off })
	h.live = append(h.live, nil)
	copy(h.live[i+1:], h.live[i:])
	h.live[i] = w
}

func (h *Heap) removeLive(w *Window) {
	for i, lw := range h.live {
		if lw == w {
			h.live = append(h.live[:i], h.live[i+1:]...)
			return
		}
	}
}

// Window is a remotely accessible allocation. Symmetric windows (off >=
// 0) live on the symmetric heap: every rank holds a same-size region at
// the same offset. Dynamic windows (off == -1) are MPI_Win_create-style:
// each rank attaches its own locally sized region, and peers must learn
// sizes/offsets out of band before putting.
//
// Windows are stamped with the fabric epoch they were allocated under;
// rank indices into a window are member indices of that epoch. A Revoke
// or Reseat invalidates the stamp and every access through check()
// returns a typed *RevokedError.
type Window struct {
	f        *Fabric
	id       int
	name     string
	epoch    int   // fabric epoch at allocation
	off      int64 // symmetric heap offset, or -1 for dynamic windows
	reserved int64 // aligned heap footprint (symmetric only)
	sizes    []int64
	bufs     []*gpu.Buffer
	freed    bool
	released bool // bufs given back to the staging pools or retired
	retained bool // bufs referenced from outside the fabric (Retain)
}

// Name returns the window's SPMD rendezvous name.
func (w *Window) Name() string { return w.name }

// Symmetric reports whether the window is mirrored across all ranks.
func (w *Window) Symmetric() bool { return w.off >= 0 }

// Buf exposes rank's backing buffer (local packing, unpack jobs, tests).
func (w *Window) Buf(rank int) *gpu.Buffer { return w.bufs[rank] }

// check validates a one-sided access to rank's region of the window.
func (w *Window) check(rank int, off, n int64) error {
	if err := w.f.checkEpoch(w.epoch); err != nil {
		return fmt.Errorf("rma: window %q: %w", w.name, err)
	}
	if w.freed {
		return fmt.Errorf("rma: access to freed window %q", w.name)
	}
	if rank < 0 || rank >= len(w.bufs) {
		return fmt.Errorf("rma: window %q: rank %d out of range", w.name, rank)
	}
	if w.bufs[rank] == nil {
		return fmt.Errorf("rma: window %q not attached on rank %d", w.name, rank)
	}
	if off < 0 || n < 0 || off+n > w.sizes[rank] {
		return fmt.Errorf("rma: window %q rank %d: range [%d,%d) outside [0,%d)",
			w.name, rank, off, off+n, w.sizes[rank])
	}
	return nil
}

// Retain marks the window's buffers as referenced from outside the fabric
// (a checkpoint registration that may restore into them later): freeing
// the window then retires them instead of returning them to the pools.
func (w *Window) Retain() { w.retained = true }

// Free releases the window. Further accesses (and double frees) error.
// Its buffers go back to their devices' staging pools, unless the window
// was retained, one-sided ops are still pending on the fabric, or the
// window's epoch was revoked: then something may still reach them, so
// they are retired.
func (w *Window) Free() error {
	if w.freed {
		return fmt.Errorf("rma: window %q already freed", w.name)
	}
	w.freed = true
	if w.off >= 0 {
		w.f.heap.removeLive(w)
		w.f.heap.release(w.off, w.reserved)
	}
	w.release(!w.retained && w.f.PendingOps() == 0 && w.f.checkEpoch(w.epoch) == nil)
	return nil
}

// release gives the window's buffers back to the staging pools
// (reusable) or retires them, once.
func (w *Window) release(reusable bool) {
	if w.released {
		return
	}
	w.released = true
	for _, b := range w.bufs {
		switch {
		case b == nil:
		case reusable:
			b.Dev.Free(b)
		default:
			b.Dev.Retire(b)
		}
	}
}

// AllocWindow creates a symmetric window of size bytes: one region per
// rank, all at the same heap offset, all the same size. Backing buffers
// follow each device's payload mode, so exact and lazy runs share the
// allocation path.
func (f *Fabric) AllocWindow(name string, size int64) (*Window, error) {
	if size <= 0 {
		return nil, fmt.Errorf("rma: window %q: size %d must be positive", name, size)
	}
	if err := f.checkEpoch(f.epoch); err != nil {
		return nil, fmt.Errorf("rma: window %q: %w", name, err)
	}
	w := &Window{f: f, id: f.heap.nextID, name: name, epoch: f.epoch}
	f.heap.nextID++
	w.off, w.reserved = f.heap.reserve(size)
	for _, wr := range f.members {
		w.bufs = append(w.bufs, f.w.Rank(wr).Dev.Staging(int(size)))
		w.sizes = append(w.sizes, size)
	}
	f.heap.insertLive(w)
	return w, nil
}

type winRef struct {
	win   *Window
	opens int
}

// OpenWindow is the SPMD rendezvous on a symmetric window: the first
// caller allocates, later callers join, and sizes must agree. Each rank
// balances its open with one CloseWindow.
func (f *Fabric) OpenWindow(rank int, name string, size int64) (*Window, error) {
	if rank < 0 || rank >= len(f.members) {
		return nil, fmt.Errorf("rma: window %q: rank %d out of member range", name, rank)
	}
	if err := f.checkEpoch(f.epoch); err != nil {
		return nil, fmt.Errorf("rma: window %q: %w", name, err)
	}
	ref := f.named[name]
	if ref == nil {
		win, err := f.AllocWindow(name, size)
		if err != nil {
			return nil, err
		}
		ref = &winRef{win: win}
		f.named[name] = ref
	}
	if !ref.win.Symmetric() {
		return nil, fmt.Errorf("rma: window %q is dynamic, opened symmetric by rank %d", name, rank)
	}
	if ref.win.sizes[rank] != size {
		return nil, fmt.Errorf("rma: window %q: rank %d opened with size %d, allocated %d",
			name, rank, size, ref.win.sizes[rank])
	}
	ref.opens++
	return ref.win, nil
}

// OpenWindowSized is the dynamic-window rendezvous: each rank attaches
// its own locally sized region (MPI_Win_create style). Peers may only
// target a rank after that rank has attached — callers synchronize that
// themselves (the one-sided collectives use an offset-exchange phase).
func (f *Fabric) OpenWindowSized(rank int, name string, localSize int64) (*Window, error) {
	if localSize < 0 {
		return nil, fmt.Errorf("rma: window %q: negative size %d", name, localSize)
	}
	if rank < 0 || rank >= len(f.members) {
		return nil, fmt.Errorf("rma: window %q: rank %d out of member range", name, rank)
	}
	if err := f.checkEpoch(f.epoch); err != nil {
		return nil, fmt.Errorf("rma: window %q: %w", name, err)
	}
	ref := f.named[name]
	if ref == nil {
		w := &Window{
			f: f, id: f.heap.nextID, name: name, epoch: f.epoch, off: -1,
			sizes: make([]int64, len(f.members)),
			bufs:  make([]*gpu.Buffer, len(f.members)),
		}
		f.heap.nextID++
		ref = &winRef{win: w}
		f.named[name] = ref
	}
	w := ref.win
	if w.Symmetric() {
		return nil, fmt.Errorf("rma: window %q is symmetric, opened dynamic by rank %d", name, rank)
	}
	if w.bufs[rank] != nil {
		return nil, fmt.Errorf("rma: window %q: rank %d attached twice", name, rank)
	}
	w.bufs[rank] = f.w.Rank(f.members[rank]).Dev.Staging(int(localSize))
	w.sizes[rank] = localSize
	ref.opens++
	return w, nil
}

// CloseWindow balances one OpenWindow/OpenWindowSized; the last close
// frees the window.
func (f *Fabric) CloseWindow(w *Window) error {
	ref := f.named[w.name]
	if ref == nil || ref.win != w {
		return fmt.Errorf("rma: window %q is not open", w.name)
	}
	ref.opens--
	if ref.opens > 0 {
		return nil
	}
	delete(f.named, w.name)
	return w.Free()
}
