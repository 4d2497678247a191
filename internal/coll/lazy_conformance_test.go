package coll_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// This file is the collectives half of the lazy-vs-exact differential
// oracle (the schemes half lives in internal/conformance). Every matrix
// cell below runs twice on identical 8-rank Lassen worlds — once
// byte-exact, once with LazyThreshold=1 so every buffer is lazy — and the
// two runs must agree on per-leg recv checksums, the final simulated
// clock, and total kernel launches. Fills use the position-addressable
// PRF stream so both modes see identical logical bytes by construction.

// lazyCollWorld mirrors collWorld but returns the env (for clock
// comparison) and flips every device to lazy-bytes when asked.
func lazyCollWorld(scheme string, lazy bool, mut func(*mpi.Config)) (*sim.Env, *mpi.World) {
	env := sim.NewEnv()
	c := cluster.MustBuild(env, cluster.Lassen())
	if lazy {
		for _, node := range c.Devices {
			for _, d := range node {
				d.LazyThreshold = 1
			}
		}
	}
	cfg := mpi.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	return env, mpi.NewWorld(c, cfg, schemes.Factory(scheme))
}

func kernelTotal(w *mpi.World) int64 {
	var n int64
	seen := make(map[*gpu.Device]bool)
	for i := 0; i < w.Size(); i++ {
		d := w.Rank(i).Dev
		if !seen[d] {
			seen[d] = true
			n += d.Stats.KernelLaunches
		}
	}
	return n
}

// cellResult is everything one run of a matrix cell must agree on with
// its counterpart in the other payload mode.
type cellResult struct {
	sums     []uint64 // per-leg recv checksums, fixed order
	clock    int64    // env.Now() after the world drains
	kernels  int64    // summed KernelLaunches across devices
	lazyRecv int      // recv buffers still lazy after the run
}

func diffCell(t *testing.T, label string, run func(t *testing.T, lazy bool) cellResult) {
	t.Helper()
	ex := run(t, false)
	lz := run(t, true)
	if ex.clock != lz.clock {
		t.Errorf("%s: final clock differs: exact %d vs lazy %d", label, ex.clock, lz.clock)
	}
	if ex.kernels != lz.kernels {
		t.Errorf("%s: kernel launches differ: exact %d vs lazy %d", label, ex.kernels, lz.kernels)
	}
	if len(ex.sums) != len(lz.sums) {
		t.Fatalf("%s: leg count differs: %d vs %d", label, len(ex.sums), len(lz.sums))
	}
	for i := range ex.sums {
		if ex.sums[i] != lz.sums[i] {
			t.Errorf("%s: leg %d checksum differs: exact %#x vs lazy %#x", label, i, ex.sums[i], lz.sums[i])
		}
	}
	if ex.lazyRecv != 0 {
		t.Errorf("%s: exact run produced %d lazy recv buffers", label, ex.lazyRecv)
	}
	if lz.lazyRecv == 0 {
		t.Errorf("%s: lazy run materialized every recv buffer — mode not engaged", label)
	}
}

// --- Alltoallw cells ---

func makeA2AOpsPRF(w *mpi.World, l *datatype.Layout) [][]coll.WOp {
	size := w.Size()
	ops := make([][]coll.WOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		ops[r] = make([]coll.WOp, size)
		for peer := 0; peer < size; peer++ {
			count := 1 + (r+peer)%3
			sb := dev.Alloc(fmt.Sprintf("ls-%d-%d", r, peer), int(l.ExtentBytes)*3)
			rb := dev.Alloc(fmt.Sprintf("lr-%d-%d", r, peer), int(l.ExtentBytes)*3)
			sb.FillStream(uint64(r*1000 + peer + 1))
			ops[r][peer] = coll.WOp{SendBuf: sb, SendType: l, SendCount: count, RecvBuf: rb, RecvType: l, RecvCount: count}
		}
	}
	return ops
}

func a2aCell(scheme string, alg coll.Algorithm, l *datatype.Layout, mut func(*mpi.Config)) func(t *testing.T, lazy bool) cellResult {
	return func(t *testing.T, lazy bool) cellResult {
		t.Helper()
		env, w := lazyCollWorld(scheme, lazy, mut)
		ops := makeA2AOpsPRF(w, l)
		e := coll.New(w, coll.Tuning{Alltoallw: alg})
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			if cerr := e.Alltoallw(p, r, ops[r.ID()]); cerr != nil {
				t.Errorf("rank %d: %v", r.ID(), cerr)
			}
			if rerr := e.Release(r); rerr != nil {
				t.Errorf("rank %d: release: %v", r.ID(), rerr)
			}
		})
		if err != nil {
			t.Fatalf("%s/%s lazy=%v: %v", scheme, alg, lazy, err)
		}
		checkNoLeaks(t, w, fmt.Sprintf("%s/%s lazy=%v", scheme, alg, lazy))
		res := cellResult{clock: env.Now(), kernels: kernelTotal(w)}
		for r := range ops {
			for peer := range ops[r] {
				res.sums = append(res.sums, ops[r][peer].RecvBuf.Checksum())
				if ops[r][peer].RecvBuf.IsLazy() {
					res.lazyRecv++
				}
			}
		}
		return res
	}
}

// --- Allgatherv / Gatherv / Scatterv cells ---

func makeAGPRF(w *mpi.World, l *datatype.Layout) ([]coll.VOp, [][]coll.VOp) {
	size := w.Size()
	sends := make([]coll.VOp, size)
	recvs := make([][]coll.VOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		count := 1 + r%3
		sb := dev.Alloc(fmt.Sprintf("lag-s-%d", r), int(l.ExtentBytes)*3)
		sb.FillStream(uint64(777 + r))
		sends[r] = coll.VOp{Buf: sb, Type: l, Count: count}
		recvs[r] = make([]coll.VOp, size)
		for src := 0; src < size; src++ {
			rb := dev.Alloc(fmt.Sprintf("lag-r-%d-%d", r, src), int(l.ExtentBytes)*3)
			recvs[r][src] = coll.VOp{Buf: rb, Type: l, Count: 1 + src%3}
		}
	}
	return sends, recvs
}

func agCell(scheme string, alg coll.Algorithm, l *datatype.Layout) func(t *testing.T, lazy bool) cellResult {
	return func(t *testing.T, lazy bool) cellResult {
		t.Helper()
		env, w := lazyCollWorld(scheme, lazy, nil)
		sends, recvs := makeAGPRF(w, l)
		e := coll.New(w, coll.Tuning{Allgatherv: alg})
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			if cerr := e.Allgatherv(p, r, sends[r.ID()], recvs[r.ID()]); cerr != nil {
				t.Errorf("rank %d: %v", r.ID(), cerr)
			}
		})
		if err != nil {
			t.Fatalf("%s/%s lazy=%v: %v", scheme, alg, lazy, err)
		}
		checkNoLeaks(t, w, fmt.Sprintf("%s/%s lazy=%v", scheme, alg, lazy))
		res := cellResult{clock: env.Now(), kernels: kernelTotal(w)}
		for r := range recvs {
			for src := range recvs[r] {
				res.sums = append(res.sums, recvs[r][src].Buf.Checksum())
				if recvs[r][src].Buf.IsLazy() {
					res.lazyRecv++
				}
			}
		}
		return res
	}
}

func gathervCell(scheme string, alg coll.Algorithm, root int, l *datatype.Layout) func(t *testing.T, lazy bool) cellResult {
	return func(t *testing.T, lazy bool) cellResult {
		t.Helper()
		env, w := lazyCollWorld(scheme, lazy, nil)
		sends, recvs := makeAGPRF(w, l)
		e := coll.New(w, coll.Tuning{Gatherv: alg})
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			if cerr := e.Gatherv(p, r, root, sends[r.ID()], recvs[r.ID()]); cerr != nil {
				t.Errorf("rank %d: %v", r.ID(), cerr)
			}
		})
		if err != nil {
			t.Fatalf("%s/%s lazy=%v: %v", scheme, alg, lazy, err)
		}
		checkNoLeaks(t, w, fmt.Sprintf("%s/%s lazy=%v", scheme, alg, lazy))
		res := cellResult{clock: env.Now(), kernels: kernelTotal(w)}
		for src := 0; src < w.Size(); src++ {
			res.sums = append(res.sums, recvs[root][src].Buf.Checksum())
			if recvs[root][src].Buf.IsLazy() {
				res.lazyRecv++
			}
		}
		return res
	}
}

func scattervCell(scheme string, alg coll.Algorithm, root int, l *datatype.Layout) func(t *testing.T, lazy bool) cellResult {
	return func(t *testing.T, lazy bool) cellResult {
		t.Helper()
		env, w := lazyCollWorld(scheme, lazy, nil)
		size := w.Size()
		sends := make([][]coll.VOp, size)
		recvs := make([]coll.VOp, size)
		for r := 0; r < size; r++ {
			dev := w.Rank(r).Dev
			sends[r] = make([]coll.VOp, size)
			for dst := 0; dst < size; dst++ {
				sb := dev.Alloc(fmt.Sprintf("lsv-s-%d-%d", r, dst), int(l.ExtentBytes)*3)
				sb.FillStream(uint64(r*100 + dst + 1))
				sends[r][dst] = coll.VOp{Buf: sb, Type: l, Count: 1 + dst%3}
			}
			rb := dev.Alloc(fmt.Sprintf("lsv-r-%d", r), int(l.ExtentBytes)*3)
			recvs[r] = coll.VOp{Buf: rb, Type: l, Count: 1 + r%3}
		}
		e := coll.New(w, coll.Tuning{Scatterv: alg})
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			if cerr := e.Scatterv(p, r, root, sends[r.ID()], recvs[r.ID()]); cerr != nil {
				t.Errorf("rank %d: %v", r.ID(), cerr)
			}
		})
		if err != nil {
			t.Fatalf("%s/%s lazy=%v: %v", scheme, alg, lazy, err)
		}
		checkNoLeaks(t, w, fmt.Sprintf("%s/%s lazy=%v", scheme, alg, lazy))
		res := cellResult{clock: env.Now(), kernels: kernelTotal(w)}
		for r := 0; r < size; r++ {
			res.sums = append(res.sums, recvs[r].Buf.Checksum())
			if recvs[r].Buf.IsLazy() {
				res.lazyRecv++
			}
		}
		return res
	}
}

// --- NeighborAlltoallw cell ---

func neighborCell(scheme string, l *datatype.Layout) func(t *testing.T, lazy bool) cellResult {
	return func(t *testing.T, lazy bool) cellResult {
		t.Helper()
		env, w := lazyCollWorld(scheme, lazy, nil)
		size := w.Size()
		ops := make([][]mpi.NeighborOp, size)
		for r := 0; r < size; r++ {
			dev := w.Rank(r).Dev
			left := (r - 1 + size) % size
			right := (r + 1) % size
			mk := func(k, peer int) mpi.NeighborOp {
				sb := dev.Alloc(fmt.Sprintf("ln-s-%d-%d", r, k), int(l.ExtentBytes))
				rb := dev.Alloc(fmt.Sprintf("ln-r-%d-%d", r, k), int(l.ExtentBytes))
				sb.FillStream(uint64(r*10 + k + 1))
				return mpi.NeighborOp{Peer: peer, SendBuf: sb, SendType: l, RecvBuf: rb, RecvType: l, Count: 1}
			}
			ops[r] = []mpi.NeighborOp{mk(0, left), mk(1, right), mk(2, left), mk(3, right)}
		}
		e := coll.New(w, coll.Tuning{})
		err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
			if cerr := e.NeighborAlltoallw(p, r, ops[r.ID()]); cerr != nil {
				t.Errorf("rank %d: %v", r.ID(), cerr)
			}
		})
		if err != nil {
			t.Fatalf("%s lazy=%v: %v", scheme, lazy, err)
		}
		checkNoLeaks(t, w, fmt.Sprintf("%s lazy=%v", scheme, lazy))
		res := cellResult{clock: env.Now(), kernels: kernelTotal(w)}
		for r := range ops {
			for k := range ops[r] {
				res.sums = append(res.sums, ops[r][k].RecvBuf.Checksum())
				if ops[r][k].RecvBuf.IsLazy() {
					res.lazyRecv++
				}
			}
		}
		return res
	}
}

// TestLazyCollectivesMatrix is the full collectives matrix under the
// lazy-vs-exact differential oracle at 8 ranks: every cell the byte-exact
// conformance suite covers — Alltoallw across algorithms / sparse / big
// (rendezvous) / IPC-off, Allgatherv across algorithms, rooted Gatherv
// and Scatterv, and NeighborAlltoallw — must produce identical checksums,
// clocks, and kernel counts in both payload modes.
func TestLazyCollectivesMatrix(t *testing.T) {
	dense := denseVec()
	sparse := sparseIdx()
	big := bigVec()
	noIPC := func(c *mpi.Config) { c.DisableIPC = true }
	cells := []struct {
		name string
		run  func(t *testing.T, lazy bool) cellResult
	}{
		{"Alltoallw/Linear/dense", a2aCell("Proposed-Tuned", coll.Linear, dense, nil)},
		{"Alltoallw/Pairwise/dense", a2aCell("Proposed-Tuned", coll.Pairwise, dense, nil)},
		{"Alltoallw/Hierarchical/dense", a2aCell("Proposed-Tuned", coll.Hierarchical, dense, nil)},
		{"Alltoallw/Hierarchical/sparse", a2aCell("Proposed-Tuned", coll.Hierarchical, sparse, nil)},
		{"Alltoallw/Auto/sparse", a2aCell("Proposed-Auto", coll.Auto, sparse, nil)},
		{"Alltoallw/Linear/big-rendezvous", a2aCell("Proposed-Tuned", coll.Linear, big, nil)},
		{"Alltoallw/Hierarchical/big-rendezvous", a2aCell("Proposed-Tuned", coll.Hierarchical, big, nil)},
		{"Alltoallw/Hierarchical/no-ipc", a2aCell("Proposed-Tuned", coll.Hierarchical, dense, noIPC)},
		{"Allgatherv/Ring/dense", agCell("Proposed-Tuned", coll.Ring, dense)},
		{"Allgatherv/Bruck/dense", agCell("Proposed-Tuned", coll.Bruck, dense)},
		{"Allgatherv/RecursiveDoubling/dense", agCell("Proposed-Tuned", coll.RecursiveDoubling, dense)},
		{"Allgatherv/Hierarchical/dense", agCell("Proposed-Tuned", coll.Hierarchical, dense)},
		{"Gatherv/Hierarchical/root5", gathervCell("Proposed-Tuned", coll.Hierarchical, 5, dense)},
		{"Scatterv/Hierarchical/root5", scattervCell("Proposed-Tuned", coll.Hierarchical, 5, dense)},
		{"NeighborAlltoallw/ring", neighborCell("Proposed-Tuned", dense)},
		{"Alltoallw/Hierarchical/baseline-scheme", a2aCell("GPU-Sync", coll.Hierarchical, dense, nil)},
	}
	if testing.Short() {
		cells = cells[:8]
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			diffCell(t, c.name, c.run)
		})
	}
}
