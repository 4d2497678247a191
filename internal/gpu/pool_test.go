package gpu

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/payload"
	"repro/internal/sim"
)

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

func TestStagingReusesZeroedBuffers(t *testing.T) {
	_, d := newTestDevice(t)
	a := d.Staging(100)
	copy(a.Data, "dirty")
	if d.LiveBytes() != 100 || d.AllocatedBytes() != 0 {
		t.Fatalf("live=%d allocated=%d, want 100 and 0", d.LiveBytes(), d.AllocatedBytes())
	}
	d.Free(a)
	if d.LiveBytes() != 0 || d.PooledBuffers() != 1 {
		t.Fatalf("after Free: live=%d pooled=%d, want 0 and 1", d.LiveBytes(), d.PooledBuffers())
	}
	b := d.Staging(120) // same power-of-two class as 100
	if b != a || b.Len() != 120 || !bytes.Equal(b.Data, make([]byte, 120)) {
		t.Fatalf("reuse: same=%v len=%d, want the pooled buffer reading as 120 zero bytes", b == a, b.Len())
	}
	if c := d.Staging(129); c == a {
		t.Fatal("a 129-byte request must not reuse a 128-byte class buffer")
	}
}

func TestStagingLazyReuseResets(t *testing.T) {
	_, d := newTestDevice(t)
	d.LazyThreshold = 64
	a := d.Staging(1 << 20)
	if !a.IsLazy() {
		t.Fatal("a request above LazyThreshold must be lazy")
	}
	a.FillStream(7)
	a.Lazy.WriteBytes(10, []byte("literal"))
	d.Free(a)
	b := d.Staging(1000 << 10)
	if b != a || b.Checksum() != payload.New(1000<<10).Checksum() || b.Lazy.SpanCount() != 0 {
		t.Fatal("a reused lazy buffer must read as fresh zero content")
	}
	if e := d.StagingExact(1 << 20); e.IsLazy() {
		t.Fatal("StagingExact must lend real bytes above LazyThreshold")
	}
}

// A buffer whose payload mode changed while lent is retired, not pooled
// under its old class.
func TestStagingMaterializeRetires(t *testing.T) {
	_, d := newTestDevice(t)
	d.LazyThreshold = 1
	a := d.Staging(256)
	a.Materialize()
	d.Free(a)
	if d.LiveBytes() != 0 || d.PooledBuffers() != 0 {
		t.Fatalf("live=%d pooled=%d, want a retired buffer (0, 0)", d.LiveBytes(), d.PooledBuffers())
	}
	if b := d.Staging(256); b == a || !b.IsLazy() {
		t.Fatal("a retired buffer must never be lent again")
	}
}

func TestStagingGiveBackPanics(t *testing.T) {
	_, d := newTestDevice(t)
	u := d.Alloc("user", 64)
	mustPanic(t, "has not lent", func() { d.Free(u) })
	mustPanic(t, "has not lent", func() { d.Retire(u) })
	b := d.Staging(64)
	d.Free(b)
	mustPanic(t, "has not lent", func() { d.Free(b) })
	r := d.Staging(8 << 10)
	d.Retire(r)
	mustPanic(t, "has not lent", func() { d.Free(r) })
	_, other := newTestDevice(t)
	c := other.Staging(64)
	mustPanic(t, "has not lent", func() { d.Free(c) })
}

// FreeAll releases Alloc'ed buffers and names but keeps the staging pool;
// Close releases everything.
func TestStagingLifecycle(t *testing.T) {
	_, d := newTestDevice(t)
	d.Alloc("a", 100)
	d.Free(d.Staging(32))
	lent := d.Staging(16)
	d.FreeAll()
	if d.AllocatedBytes() != 0 || d.PooledBuffers() != 1 || d.LiveBytes() != 16 {
		t.Fatalf("after FreeAll: allocated=%d pooled=%d live=%d, want 0, 1, 16",
			d.AllocatedBytes(), d.PooledBuffers(), d.LiveBytes())
	}
	d.Alloc("a", 100) // the name is free again
	d.Free(lent)
	d.Close()
	if d.AllocatedBytes() != 0 || d.PooledBuffers() != 0 || d.LiveBytes() != 0 {
		t.Fatalf("after Close: allocated=%d pooled=%d live=%d, want all 0",
			d.AllocatedBytes(), d.PooledBuffers(), d.LiveBytes())
	}
	late := d.Staging(16)
	d.Close()
	mustPanic(t, "has not lent", func() { d.Free(late) })
}

// FuzzStagingPool runs random sequences of lend (both modes, sizes across
// class boundaries, and StagingOverwrite followed by a write of every
// byte), write, Materialize, give-back and FreeAll against a model of what
// is lent: every buffer Staging or StagingExact lends reads as zeros, even
// one a StagingOverwrite caller left dirty, an overwritten buffer reads as
// what was written, no two lent buffers share storage or a Content,
// LiveBytes matches the model, and a double give-back panics.
func FuzzStagingPool(f *testing.F) {
	f.Add([]byte{0, 10, 1, 2, 0, 3, 0, 200, 4, 5, 0, 6})
	f.Add([]byte{0, 63, 0, 64, 0, 65, 3, 0, 3, 0, 0, 64, 0, 63})
	f.Add([]byte{0, 129, 2, 0, 3, 0, 0, 129, 4, 0, 3, 0})
	f.Add([]byte{7, 64, 3, 0, 0, 64, 7, 200, 1, 50, 7, 40, 3, 1, 3, 0, 7, 33})
	f.Fuzz(func(t *testing.T, prog []byte) {
		d := NewDevice(sim.NewEnv(), testArch(), 0, 0)
		d.LazyThreshold = 100
		zeros := func(n int) uint64 { return payload.Checksum(make([]byte, n)) }
		var lent []*Buffer
		var want int64
		pick := func(arg byte) int { return int(arg) % len(lent) }
		drop := func(i int) {
			want -= int64(lent[i].Len())
			lent = append(lent[:i], lent[i+1:]...)
		}
		for len(prog) >= 2 {
			op, arg := prog[0]%8, prog[1]
			prog = prog[2:]
			switch {
			case op == 0: // lend in the device's mode
				n := int(arg)
				b := d.Staging(n)
				if b.Len() != n || b.IsLazy() != (n >= 100) || b.Checksum() != zeros(n) {
					t.Fatalf("Staging(%d): len %d lazy %v, or not all zeros", n, b.Len(), b.IsLazy())
				}
				lent = append(lent, b)
				want += int64(n)
			case op == 1: // lend exact
				n := int(arg)
				b := d.StagingExact(n)
				if b.Len() != n || b.IsLazy() || b.Checksum() != zeros(n) {
					t.Fatalf("StagingExact(%d): len %d lazy %v, or not all zeros", n, b.Len(), b.IsLazy())
				}
				lent = append(lent, b)
				want += int64(n)
			case op == 7: // lend for a full overwrite, then write every byte
				n := int(arg)
				b := d.StagingOverwrite(n)
				if b.Len() != n || b.IsLazy() != (n >= 100) {
					t.Fatalf("StagingOverwrite(%d): len %d lazy %v", n, b.Len(), b.IsLazy())
				}
				b.FillStream(uint64(arg))
				ref := make([]byte, n)
				payload.FillBytes(ref, uint64(arg))
				if b.Checksum() != payload.Checksum(ref) {
					t.Fatalf("StagingOverwrite(%d) does not read as the bytes written", n)
				}
				lent = append(lent, b)
				want += int64(n)
			case len(lent) == 0:
			case op == 2: // write
				b := lent[pick(arg)]
				if b.Len() > 0 {
					if b.IsLazy() {
						b.Lazy.WriteBytes(int64(arg)%int64(b.Len()), []byte{arg | 1})
						b.Lazy.FillRange(0, int64(b.Len())/2, uint64(arg), 0)
					} else {
						b.Data[int(arg)%b.Len()] = arg | 1
					}
				}
			case op == 3: // give back
				i := pick(arg)
				b := lent[i]
				d.Free(b)
				drop(i)
				mustPanic(t, "has not lent", func() { d.Free(b) })
				mustPanic(t, "has not lent", func() { d.Free(d.Alloc(fmt.Sprint("user", len(prog)), 8)) })
			case op == 4: // retire
				i := pick(arg)
				d.Retire(lent[i])
				drop(i)
			case op == 5:
				lent[pick(arg)].Materialize()
			case op == 6:
				d.FreeAll()
			}
			if d.LiveBytes() != want {
				t.Fatalf("LiveBytes %d, model %d", d.LiveBytes(), want)
			}
		}
		// Lend every class once more: fresh or reused, each must read as
		// zeros and share nothing with a buffer still lent.
		for _, n := range []int{0, 1, 63, 64, 65, 99, 100, 128, 129, 255} {
			b := d.Staging(n)
			if b.Checksum() != zeros(n) {
				t.Fatalf("Staging(%d) does not read as zeros", n)
			}
			lent = append(lent, b)
		}
		data := map[*byte]bool{}
		contents := map[*payload.Content]bool{}
		for _, b := range lent {
			switch {
			case b.IsLazy():
				if contents[b.Lazy] {
					t.Fatal("two lent buffers share a Content")
				}
				contents[b.Lazy] = true
			case cap(b.Data) > 0:
				p := &b.Data[:1][0]
				if data[p] {
					t.Fatal("two lent buffers share storage")
				}
				data[p] = true
			}
		}
	})
}
