package dkf_test

import (
	"errors"
	"fmt"
	"testing"

	dkf "repro"
)

// TestRMAVerbs drives the facade's one-sided surface end to end: window
// rendezvous, put/get/put-signal, signal waits, and quiet, with the
// payload checked byte-exactly.
func TestRMAVerbs(t *testing.T) {
	spec := dkf.SystemLassen.Spec()
	spec.Nodes, spec.GPUsPerNode = 2, 2
	sess, err := dkf.NewSession(dkf.SessionConfig{CustomSpec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	n := sess.NumRanks()
	const chunk = 2048
	srcs := make([]*dkf.Buffer, n)
	gots := make([]*dkf.Buffer, n)
	for r := 0; r < n; r++ {
		srcs[r] = sess.Alloc(r, "src", chunk)
		gots[r] = sess.Alloc(r, "got", chunk)
		dkf.FillPattern(srcs[r].Data, uint64(r+1))
	}
	err = sess.Run(func(c *dkf.RankCtx) {
		id := c.ID()
		win, err := c.Window("w", 2*chunk)
		if err != nil {
			t.Errorf("rank %d window: %v", id, err)
			return
		}
		sig, err := c.OpenSignal("s", 1)
		if err != nil {
			t.Errorf("rank %d signal: %v", id, err)
			return
		}
		right := (id + 1) % c.NumRanks()
		// Signalled put into the right neighbor's lower half.
		if err := c.PutSignal(win, right, 0, srcs[id], 0, chunk, sig, 0, 1); err != nil {
			t.Errorf("rank %d put: %v", id, err)
		}
		c.WaitSignal(sig, 0, 1)
		// Read our own deposit back out with a get (loop through self).
		if err := c.Get(win, id, 0, gots[id], 0, chunk); err != nil {
			t.Errorf("rank %d get: %v", id, err)
		}
		if err := c.Quiet(); err != nil {
			t.Errorf("rank %d quiet: %v", id, err)
		}
		c.Barrier()
		c.CloseSignal(sig)
		if err := c.CloseWindow(win); err != nil {
			t.Errorf("rank %d close window: %v", id, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		left := (r - 1 + n) % n
		want := make([]byte, chunk)
		dkf.FillPattern(want, uint64(left+1))
		for i := range want {
			if gots[r].Data[i] != want[i] {
				t.Fatalf("rank %d byte %d: got %#x want %#x", r, i, gots[r].Data[i], want[i])
			}
		}
	}
	st := sess.RMAStats()
	if st.Puts == 0 || st.Gets == 0 || st.Doorbells == 0 {
		t.Fatalf("one-sided stats not counting: %+v", st)
	}
}

// TestRMABackendCollectives: BackendRMA sessions default Allgatherv and
// Alltoallw to the put-based one-sided ring, byte-exact against a P2P
// session on the same inputs.
func TestRMABackendCollectives(t *testing.T) {
	l := dkf.Commit(dkf.Vector(8, 4, 8, dkf.Float64))
	run := func(backend dkf.Backend) ([]*dkf.Buffer, dkf.RMAStats) {
		spec := dkf.SystemLassen.Spec()
		spec.Nodes, spec.GPUsPerNode = 2, 2
		sess, err := dkf.NewSession(dkf.SessionConfig{CustomSpec: &spec, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		n := sess.NumRanks()
		sends := make([]dkf.VOp, n)
		recvs := make([][]dkf.VOp, n)
		var flat []*dkf.Buffer
		for r := 0; r < n; r++ {
			sb := sess.Alloc(r, "ag-s", int(l.ExtentBytes))
			dkf.FillPattern(sb.Data, uint64(100+r))
			sends[r] = dkf.VOp{Buf: sb, Type: l, Count: 1}
			recvs[r] = make([]dkf.VOp, n)
			for src := 0; src < n; src++ {
				rb := sess.Alloc(r, fmt.Sprintf("ag-r-%d", src), int(l.ExtentBytes))
				recvs[r][src] = dkf.VOp{Buf: rb, Type: l, Count: 1}
				flat = append(flat, rb)
			}
		}
		err = sess.Run(func(c *dkf.RankCtx) {
			if cerr := c.Allgatherv(sends[c.ID()], recvs[c.ID()]); cerr != nil {
				t.Errorf("rank %d: %v", c.ID(), cerr)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := sess.LeakedRequests(); n != 0 {
			t.Fatalf("%d leaked requests", n)
		}
		return flat, sess.RMAStats()
	}
	rmaBufs, rmaStats := run(dkf.BackendRMA)
	p2pBufs, p2pStats := run(dkf.BackendP2P)
	for i := range rmaBufs {
		if got, want := rmaBufs[i].Checksum(), p2pBufs[i].Checksum(); got != want {
			t.Fatalf("leg %d: rma backend checksum %#x differs from p2p %#x", i, got, want)
		}
	}
	if rmaStats.PackPuts == 0 {
		t.Fatalf("rma backend issued no pack-puts: %+v", rmaStats)
	}
	if p2pStats.Puts != 0 || p2pStats.PackPuts != 0 {
		t.Fatalf("p2p backend touched the one-sided fabric: %+v", p2pStats)
	}
}

// TestRMAQuietSurfacesFailure: a put that exhausts its retransmissions
// surfaces a typed *RMAOpError from RankCtx.Quiet.
func TestRMAQuietSurfacesFailure(t *testing.T) {
	plan, err := dkf.ParseFaultPlan("rmadrop=1.0,seed=4")
	if err != nil {
		t.Fatal(err)
	}
	spec := dkf.SystemLassen.Spec()
	spec.Nodes, spec.GPUsPerNode = 2, 1
	sess, err := dkf.NewSession(dkf.SessionConfig{
		CustomSpec:   &spec,
		Faults:       plan,
		StallTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srcs := []*dkf.Buffer{sess.Alloc(0, "s", 512), sess.Alloc(1, "s", 512)}
	err = sess.Run(func(c *dkf.RankCtx) {
		win, werr := c.Window("w", 512)
		if werr != nil {
			t.Errorf("rank %d: %v", c.ID(), werr)
			return
		}
		right := (c.ID() + 1) % c.NumRanks()
		if perr := c.Put(win, right, 0, srcs[c.ID()], 0, 512); perr != nil {
			t.Errorf("rank %d put: %v", c.ID(), perr)
		}
		qerr := c.Quiet()
		var oe *dkf.RMAOpError
		if !errors.As(qerr, &oe) || !errors.Is(qerr, dkf.ErrRMARetriesExhausted) {
			t.Errorf("rank %d: quiet returned %v, want *RMAOpError wrapping ErrRMARetriesExhausted", c.ID(), qerr)
		}
		c.Barrier()
		if cerr := c.CloseWindow(win); cerr != nil {
			t.Errorf("rank %d close: %v", c.ID(), cerr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBackendConfig pins ParseBackend; the out-of-range Backend value is a
// row of TestNewSessionRejectsInvalidConfigs.
func TestBackendConfig(t *testing.T) {
	for s, want := range map[string]dkf.Backend{"p2p": dkf.BackendP2P, "rma": dkf.BackendRMA} {
		got, err := dkf.ParseBackend(s)
		if err != nil || got != want {
			t.Fatalf("ParseBackend(%q) = %v, %v; want %v", s, got, err, want)
		}
		if got.String() != s {
			t.Fatalf("%v.String() = %q, want %q", want, got.String(), s)
		}
	}
	if _, err := dkf.ParseBackend("nvshmem"); err == nil {
		t.Fatal("ParseBackend accepted an unknown backend")
	}
}
