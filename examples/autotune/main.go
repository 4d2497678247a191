// autotune demonstrates the model-based fusion-threshold prediction and
// online tuning (the paper's Section VII future work, implemented as the
// "Proposed-Auto" scheme): the same bulk sparse exchange is run with a
// deliberately bad fixed threshold, the hand-tuned 512 KiB one, and the
// auto-tuned scheme, which should land at or near the tuned result without
// anyone picking a number.
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"log"

	dkf "repro"
)

const (
	dim     = 32
	buffers = 16
	rounds  = 6 // repeated exchanges give the online tuner traffic to learn from
)

func run(scheme string, threshold int64) (int64, error) {
	sess, err := dkf.NewSession(dkf.SessionConfig{
		Scheme:          dkf.Scheme(scheme),
		FusionThreshold: threshold,
	})
	if err != nil {
		return 0, err
	}
	wl, _ := dkf.WorkloadByName("specfem3D_cm")
	l := wl.Layout(dim)
	const a, b = 0, 4
	type pair struct{ s, r *dkf.Buffer }
	mk := func(rank int) []pair {
		ps := make([]pair, buffers)
		for i := range ps {
			ps[i].s = sess.Alloc(rank, fmt.Sprintf("s%d", i), int(l.ExtentBytes))
			ps[i].r = sess.Alloc(rank, fmt.Sprintf("r%d", i), int(l.ExtentBytes))
			dkf.FillPattern(ps[i].s.Data, uint64(rank+i))
		}
		return ps
	}
	pa, pb := mk(a), mk(b)
	var last int64
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
		for round := 0; round < rounds; round++ {
			t0 := c.Now()
			var reqs []*dkf.Request
			for i := range mine {
				reqs = append(reqs, c.Irecv(peer, i, mine[i].r, l, 1))
			}
			for i := range mine {
				reqs = append(reqs, c.Isend(peer, i, mine[i].s, l, 1))
			}
			c.Waitall(reqs)
			if c.ID() == a {
				last = c.Now() - t0
			}
		}
	})
	if err != nil {
		return 0, err
	}
	for i := range pa {
		if err := dkf.VerifyBlocks(l, 1, pa[i].s.Data, pb[i].r.Data); err != nil {
			return 0, err
		}
	}
	return last, nil
}

func main() {
	wl, _ := dkf.WorkloadByName("specfem3D_cm")
	l := wl.Layout(dim)
	fmt.Printf("specfem3D_cm dim=%d (%d blocks, %.1f KB/message), %d buffers, %d rounds\n\n",
		dim, l.NumBlocks(), float64(l.SizeBytes)/1024, buffers, rounds)
	cases := []struct {
		label     string
		scheme    string
		threshold int64
	}{
		{"fixed 16KB (bad: under-fused)", "Proposed", 16 << 10},
		{"fixed 512KB (hand-tuned)", "Proposed-Tuned", 0},
		{"model + online tuner (auto)", "Proposed-Auto", 0},
	}
	for _, cse := range cases {
		lat, err := run(cse.scheme, cse.threshold)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-30s final-round latency %8.1f us\n", cse.label, float64(lat)/1000)
	}
	fmt.Println("\nthe auto-tuned scheme needs no per-system threshold search (paper Fig. 8)")
}
