// milc drives the paper's dense Lattice-QCD workload: su3 matrix faces of
// a 4D lattice exchanged between two nodes with every DDT scheme, printing
// the per-scheme latency and the winner — the Fig. 10 story (the hybrid
// scheme wins tiny dense messages, fusion wins at scale) in one program.
//
//	go run ./examples/milc
package main

import (
	"fmt"
	"log"

	dkf "repro"
)

func exchange(scheme string, dim, buffers int) (int64, error) {
	sess, err := dkf.NewSession(dkf.SessionConfig{Scheme: dkf.Scheme(scheme)})
	if err != nil {
		return 0, err
	}
	wl, _ := dkf.WorkloadByName("MILC")
	l := wl.Layout(dim)

	const a, b = 0, 4
	type pair struct{ s, r *dkf.Buffer }
	mk := func(rank int) []pair {
		ps := make([]pair, buffers)
		for i := range ps {
			ps[i].s = sess.Alloc(rank, fmt.Sprintf("s%d", i), int(l.ExtentBytes))
			ps[i].r = sess.Alloc(rank, fmt.Sprintf("r%d", i), int(l.ExtentBytes))
			dkf.FillPattern(ps[i].s.Data, uint64(rank*100+i))
		}
		return ps
	}
	pa, pb := mk(a), mk(b)

	var lat int64
	err = sess.Run(func(c *dkf.RankCtx) {
		var mine []pair
		var peer int
		switch c.ID() {
		case a:
			mine, peer = pa, b
		case b:
			mine, peer = pb, a
		default:
			return
		}
		t0 := c.Now()
		var reqs []*dkf.Request
		for i := 0; i < buffers; i++ {
			reqs = append(reqs, c.Irecv(peer, i, mine[i].r, l, 1))
		}
		for i := 0; i < buffers; i++ {
			reqs = append(reqs, c.Isend(peer, i, mine[i].s, l, 1))
		}
		c.Waitall(reqs)
		if c.ID() == a {
			lat = c.Now() - t0
		}
	})
	if err != nil {
		return 0, err
	}
	for i := 0; i < buffers; i++ {
		if err := dkf.VerifyBlocks(l, 1, pa[i].s.Data, pb[i].r.Data); err != nil {
			return 0, err
		}
		if err := dkf.VerifyBlocks(l, 1, pb[i].s.Data, pa[i].r.Data); err != nil {
			return 0, err
		}
	}
	return lat, nil
}

func main() {
	wl, _ := dkf.WorkloadByName("MILC")
	schemesList := []string{"GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "Proposed-Tuned"}
	for _, cfg := range []struct {
		dim, buffers int
		label        string
	}{
		{8, 1, "single small dense message"},
		{8, 16, "bulk of 16 small dense messages"},
		{24, 16, "bulk of 16 larger dense messages"},
	} {
		l := wl.Layout(cfg.dim)
		fmt.Printf("MILC su3 zdown, dim=%d (%d blocks, %.1f KB/message), %s:\n",
			cfg.dim, l.NumBlocks(), float64(l.SizeBytes)/1024, cfg.label)
		best, bestLat := "", int64(0)
		for _, s := range schemesList {
			lat, err := exchange(s, cfg.dim, cfg.buffers)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-16s %8.1f us\n", s, float64(lat)/1000)
			if bestLat == 0 || lat < bestLat {
				best, bestLat = s, lat
			}
		}
		fmt.Printf("  winner: %s\n\n", best)
	}
}
