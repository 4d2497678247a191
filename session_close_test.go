package dkf

import "testing"

// Close releases every device's memory: Alloc'ed buffers, lent staging and
// the idle staging pool.
func TestSessionCloseEmptiesDevices(t *testing.T) {
	sess, err := NewSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l := Commit(Vector(64, 64, 128, Float64)) // 32 KiB: rendezvous staging
	sbuf := sess.Alloc(0, "s", int(l.ExtentBytes))
	rbuf := sess.Alloc(4, "r", int(l.ExtentBytes))
	if err := sess.Run(func(c *RankCtx) {
		switch c.ID() {
		case 0:
			c.Wait(c.Isend(4, 0, sbuf, l, 1))
		case 4:
			c.Wait(c.Irecv(0, 0, rbuf, l, 1))
		}
	}); err != nil {
		t.Fatal(err)
	}
	pooled := 0
	for _, node := range sess.cluster.Devices {
		for _, d := range node {
			pooled += d.PooledBuffers()
		}
	}
	if pooled == 0 {
		t.Fatal("the exchange pooled no staging")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	for _, node := range sess.cluster.Devices {
		for _, d := range node {
			if d.AllocatedBytes() != 0 || d.LiveBytes() != 0 || d.PooledBuffers() != 0 {
				t.Fatalf("device %d after Close: allocated=%d live=%d pooled=%d, want all 0",
					d.ID, d.AllocatedBytes(), d.LiveBytes(), d.PooledBuffers())
			}
		}
	}
}
