// specfem drives the paper's sparse Geophysics workload (specfem3D_cm:
// struct-on-indexed, thousands of tiny blocks) through the same bulk
// exchange at several fusion thresholds: low thresholds under-fuse (the
// left side of Fig. 8), and once the threshold holds the whole bulk every
// pack fuses into one kernel at the Waitall flush.
//
//	go run ./examples/specfem
package main

import (
	"fmt"
	"log"

	dkf "repro"
)

const (
	dim     = 32
	buffers = 16
)

func runAt(threshold int64) (int64, int64, error) {
	sess, err := dkf.NewSession(dkf.SessionConfig{
		Scheme:          "Proposed",
		FusionThreshold: threshold,
	})
	if err != nil {
		return 0, 0, err
	}
	wl, _ := dkf.WorkloadByName("specfem3D_cm")
	l := wl.Layout(dim)

	const a, b = 0, 4
	sa := make([]*dkf.Buffer, buffers)
	rb := make([]*dkf.Buffer, buffers)
	for i := range sa {
		sa[i] = sess.Alloc(a, fmt.Sprintf("s%d", i), int(l.ExtentBytes))
		rb[i] = sess.Alloc(b, fmt.Sprintf("r%d", i), int(l.ExtentBytes))
		dkf.FillPattern(sa[i].Data, uint64(i+7))
	}
	var lat int64
	err = sess.Run(func(c *dkf.RankCtx) {
		switch c.ID() {
		case a:
			t0 := c.Now()
			var reqs []*dkf.Request
			for i := 0; i < buffers; i++ {
				reqs = append(reqs, c.Isend(b, i, sa[i], l, 1))
			}
			c.Waitall(reqs)
			lat = c.Now() - t0
		case b:
			var reqs []*dkf.Request
			for i := 0; i < buffers; i++ {
				reqs = append(reqs, c.Irecv(a, i, rb[i], l, 1))
			}
			c.Waitall(reqs)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < buffers; i++ {
		if err := dkf.VerifyBlocks(l, 1, sa[i].Data, rb[i].Data); err != nil {
			return 0, 0, err
		}
	}
	return lat, sess.DeviceStats(a).KernelLaunches, nil
}

func main() {
	wl, _ := dkf.WorkloadByName("specfem3D_cm")
	l := wl.Layout(dim)
	fmt.Printf("specfem3D_cm dim=%d: %d blocks of avg %d bytes, %.1f KB/message, %d messages\n\n",
		dim, l.NumBlocks(), l.SizeBytes/int64(l.NumBlocks()), float64(l.SizeBytes)/1024, buffers)
	fmt.Printf("%-12s %-12s %s\n", "threshold", "latency_us", "sender_launches")
	for _, th := range []int64{8 << 10, 64 << 10, 512 << 10, 16 << 20} {
		lat, launches, err := runAt(th)
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%dKB", th>>10)
		if th >= 1<<20 {
			label = fmt.Sprintf("%dMB", th>>20)
		}
		fmt.Printf("%-12s %-12.1f %d\n", label, float64(lat)/1000, launches)
	}
	fmt.Println("\nlow thresholds launch many small fused kernels (under-fused);")
	fmt.Println("a threshold that holds the whole bulk fuses every pack into one kernel")
	fmt.Println("at the Waitall flush, so raising it further changes nothing here.")
}
