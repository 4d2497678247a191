package gpu

import (
	"fmt"
	"math/bits"

	"repro/internal/payload"
)

// The staging pool. The runtime's own device buffers — request staging in
// mpi, bundles and size tables in coll, window regions in rma — are lent
// by Device.Staging and given back with Device.Free once nothing can reach
// them, so a persistent world allocates its staging once and reuses it
// every step. Idle buffers wait in power-of-two size classes, one set per
// payload mode: a reused lazy buffer keeps the span and literal-table
// capacity it grew, a reused exact buffer keeps its backing array when it
// is large enough (exact buffers are allocated at their size, not their
// class's, so a world that lends each size once pays no rounding).
//
// A buffer that something may still reach after its owner is done with it
// (late RDMA callbacks, retransmissions, a payload-mode change) is retired
// instead: it leaves LiveBytes and is never lent again, its storage left
// as it is for whoever still holds it.

// poolKey selects one pool list: payload mode and size class.
type poolKey struct {
	lazy  bool
	class uint8
}

// sizeClass is the power-of-two class holding n bytes: 2^class >= n.
func sizeClass(n int) uint8 {
	if n <= 1 {
		return 0
	}
	return uint8(bits.Len(uint(n - 1)))
}

// Staging lends a buffer that reads as n zero bytes, in the payload mode
// Alloc would give n bytes (lazy at or above LazyThreshold). Give it back
// with Free, or Retire it when something may still reach it.
func (d *Device) Staging(n int) *Buffer {
	return d.lend(n, d.LazyThreshold > 0 && int64(n) >= d.LazyThreshold, true)
}

// StagingOverwrite is Staging for a caller that writes all n bytes before
// it reads any, such as a pack's output or a receive's landing zone: a
// reused exact buffer keeps its old bytes instead of being cleared first.
func (d *Device) StagingOverwrite(n int) *Buffer {
	return d.lend(n, d.LazyThreshold > 0 && int64(n) >= d.LazyThreshold, false)
}

// StagingExact is Staging with real bytes whatever the payload mode, for
// control metadata (size tables, reduction scratch) the host must read.
func (d *Device) StagingExact(n int) *Buffer { return d.lend(n, false, true) }

// lend takes an idle buffer of n's class, or makes one. zero clears a
// reused exact buffer; a lazy one is always reset to zero content.
func (d *Device) lend(n int, lazy, zero bool) *Buffer {
	if n < 0 {
		panic(fmt.Sprintf("gpu: negative staging request of %d bytes on device %d (node %d)", n, d.ID, d.Node))
	}
	key := poolKey{lazy: lazy, class: sizeClass(n)}
	var b *Buffer
	if idle := d.idle[key]; len(idle) > 0 {
		b = idle[len(idle)-1]
		idle[len(idle)-1] = nil
		d.idle[key] = idle[:len(idle)-1]
		d.nidle--
		switch {
		case lazy:
			b.Lazy.Reset(int64(n))
		case cap(b.Data) < n:
			b.Data = make([]byte, n)
		default:
			b.Data = b.Data[:n]
			if zero {
				clear(b.Data)
			}
		}
	} else {
		b = &Buffer{Name: "staging", Space: SpaceDevice, Dev: d}
		if lazy {
			b.Lazy = payload.New(int64(n))
		} else {
			b.Data = make([]byte, n)
		}
	}
	b.lent, b.key, b.gen = true, key, d.gen
	d.lent += int64(n)
	return b
}

// Free gives a lent buffer back to the pool; the caller must not touch it
// again. A buffer whose payload mode changed while lent (Materialize) is
// retired instead. Free panics on a buffer this device did not lend, or
// one already given back.
func (d *Device) Free(b *Buffer) {
	d.takeBack(b, "Free")
	if b.IsLazy() != b.key.lazy {
		return
	}
	if d.idle == nil {
		d.idle = make(map[poolKey][]*Buffer)
	}
	d.idle[b.key] = append(d.idle[b.key], b)
	d.nidle++
}

// Retire gives up a lent buffer for good: it leaves LiveBytes and is never
// lent again, but its storage stays as it is, so late readers and writers
// still holding it do no harm. It panics like Free.
func (d *Device) Retire(b *Buffer) { d.takeBack(b, "Retire") }

func (d *Device) takeBack(b *Buffer, op string) {
	if b.Dev != d || !b.lent || b.gen != d.gen {
		panic(fmt.Sprintf("gpu: %s of buffer %q that device %d (node %d) has not lent out", op, b.Name, d.ID, d.Node))
	}
	b.lent = false
	d.lent -= int64(b.Len())
}

// LiveBytes reports the staging bytes currently lent: zero once every
// request, collective and window that took staging has given it back.
func (d *Device) LiveBytes() int64 { return d.lent }

// PooledBuffers reports how many idle buffers wait in the pool.
func (d *Device) PooledBuffers() int { return d.nidle }

// Close releases all of the device's memory: every Alloc'ed buffer (as
// FreeAll does), the idle pool, and the accounting of buffers still lent,
// which can no longer be given back.
func (d *Device) Close() {
	d.FreeAll()
	d.idle = nil
	d.nidle = 0
	d.lent = 0
	d.gen++
}
