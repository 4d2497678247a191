package coll_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// collWorld builds a 2-node × 4-GPU world (8 ranks) with the named scheme.
func collWorld(scheme string, mut func(*mpi.Config)) *mpi.World {
	env := sim.NewEnv()
	c := cluster.MustBuild(env, cluster.Lassen())
	cfg := mpi.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	return mpi.NewWorld(c, cfg, schemes.Factory(scheme))
}

func denseVec() *datatype.Layout {
	return datatype.Commit(datatype.Vector(8, 4, 8, datatype.Float64)) // 8×32 B blocks
}

func sparseIdx() *datatype.Layout {
	lens := make([]int, 40)
	displs := make([]int, 40)
	for i := range lens {
		lens[i] = 1
		displs[i] = i * 3
	}
	return datatype.Commit(datatype.Indexed(lens, displs, datatype.Float32))
}

// bigVec crosses the eager limit so rendezvous and staging paths engage.
func bigVec() *datatype.Layout {
	return datatype.Commit(datatype.Vector(64, 64, 128, datatype.Float64)) // 32 KiB
}

func checkNoLeaks(t *testing.T, w *mpi.World, label string) {
	t.Helper()
	if n := w.LeakedRequests(); n != 0 {
		t.Fatalf("%s: %d leaked requests", label, n)
	}
}

// --- Alltoallw ---

// makeA2AOps allocates and deterministically fills every (rank, peer)
// leg's buffers on a world. Leg sizes vary per pair (symmetric formula,
// so sender and receiver agree).
func makeA2AOps(w *mpi.World, l *datatype.Layout) [][]coll.WOp {
	size := w.Size()
	ops := make([][]coll.WOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		ops[r] = make([]coll.WOp, size)
		for peer := 0; peer < size; peer++ {
			count := 1 + (r+peer)%3
			sb := dev.Alloc(fmt.Sprintf("s-%d-%d", r, peer), int(l.ExtentBytes)*3)
			rb := dev.Alloc(fmt.Sprintf("r-%d-%d", r, peer), int(l.ExtentBytes)*3)
			rng := rand.New(rand.NewSource(int64(r*1000 + peer)))
			rng.Read(sb.Data)
			ops[r][peer] = coll.WOp{SendBuf: sb, SendType: l, SendCount: count, RecvBuf: rb, RecvType: l, RecvCount: count}
		}
	}
	return ops
}

// refAlltoallw is the sequential pt2pt reference executor: plain guarded
// Isend/Irecv legs with a user-range tag, no collective machinery.
func refAlltoallw(t *testing.T, w *mpi.World, ops [][]coll.WOp) {
	t.Helper()
	size := w.Size()
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		var reqs []*mpi.Request
		for peer := 0; peer < size; peer++ {
			op := ops[r.ID()][peer]
			reqs = append(reqs, r.Irecv(p, peer, 7, op.RecvBuf, op.RecvType, op.RecvCount))
		}
		for peer := 0; peer < size; peer++ {
			op := ops[r.ID()][peer]
			reqs = append(reqs, r.Isend(p, peer, 7, op.SendBuf, op.SendType, op.SendCount))
		}
		if err := r.Waitall(p, reqs); err != nil {
			t.Errorf("reference rank %d: %v", r.ID(), err)
		}
	})
	if err != nil {
		t.Fatalf("reference world: %v", err)
	}
}

func compareA2A(t *testing.T, label string, got, want [][]coll.WOp) {
	t.Helper()
	for r := range got {
		for peer := range got[r] {
			if !bytes.Equal(got[r][peer].RecvBuf.Data, want[r][peer].RecvBuf.Data) {
				t.Fatalf("%s: rank %d recv-from-%d differs from reference", label, r, peer)
			}
		}
	}
}

func runAlltoallw(t *testing.T, scheme string, alg coll.Algorithm, l *datatype.Layout, mut func(*mpi.Config)) {
	t.Helper()
	w := collWorld(scheme, mut)
	ops := makeA2AOps(w, l)
	e := coll.New(w, coll.Tuning{Alltoallw: alg})
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if cerr := e.Alltoallw(p, r, ops[r.ID()]); cerr != nil {
			t.Errorf("rank %d: %v", r.ID(), cerr)
		}
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", scheme, alg, err)
	}
	checkNoLeaks(t, w, scheme+"/"+alg.String())

	ref := collWorld("GPU-Sync", nil)
	refOps := makeA2AOps(ref, l)
	refAlltoallw(t, ref, refOps)
	checkNoLeaks(t, ref, "reference")
	compareA2A(t, scheme+"/"+alg.String(), ops, refOps)
}

func TestAlltoallwConformance(t *testing.T) {
	l := denseVec()
	for _, alg := range []coll.Algorithm{coll.Linear, coll.Pairwise, coll.Hierarchical} {
		for _, s := range schemes.Names() {
			alg, s := alg, s
			t.Run(alg.String()+"/"+s, func(t *testing.T) {
				runAlltoallw(t, s, alg, l, nil)
			})
		}
	}
}

func TestAlltoallwSparseAndAuto(t *testing.T) {
	runAlltoallw(t, "Proposed-Tuned", coll.Auto, sparseIdx(), nil)
	runAlltoallw(t, "Proposed-Auto", coll.Hierarchical, sparseIdx(), nil)
}

func TestAlltoallwRendezvous(t *testing.T) {
	for _, alg := range []coll.Algorithm{coll.Linear, coll.Hierarchical} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			runAlltoallw(t, "Proposed-Tuned", alg, bigVec(), nil)
		})
	}
}

func TestAlltoallwNoIPCFallback(t *testing.T) {
	for _, alg := range []coll.Algorithm{coll.Linear, coll.Pairwise, coll.Hierarchical} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			runAlltoallw(t, "Proposed-Tuned", alg, denseVec(), func(c *mpi.Config) { c.DisableIPC = true })
		})
	}
}

// --- Allgatherv ---

type agState struct {
	send  coll.VOp
	recvs [][]coll.VOp // [rank][src]
}

func makeAG(w *mpi.World, l *datatype.Layout) ([]coll.VOp, [][]coll.VOp) {
	size := w.Size()
	sends := make([]coll.VOp, size)
	recvs := make([][]coll.VOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		count := 1 + r%3
		sb := dev.Alloc(fmt.Sprintf("ag-s-%d", r), int(l.ExtentBytes)*3)
		rng := rand.New(rand.NewSource(int64(777 + r)))
		rng.Read(sb.Data)
		sends[r] = coll.VOp{Buf: sb, Type: l, Count: count}
		recvs[r] = make([]coll.VOp, size)
		for src := 0; src < size; src++ {
			rb := dev.Alloc(fmt.Sprintf("ag-r-%d-%d", r, src), int(l.ExtentBytes)*3)
			recvs[r][src] = coll.VOp{Buf: rb, Type: l, Count: 1 + src%3}
		}
	}
	return sends, recvs
}

func refAllgatherv(t *testing.T, w *mpi.World, sends []coll.VOp, recvs [][]coll.VOp) {
	t.Helper()
	size := w.Size()
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		var reqs []*mpi.Request
		for src := 0; src < size; src++ {
			op := recvs[r.ID()][src]
			reqs = append(reqs, r.Irecv(p, src, 9, op.Buf, op.Type, op.Count))
		}
		s := sends[r.ID()]
		for dst := 0; dst < size; dst++ {
			reqs = append(reqs, r.Isend(p, dst, 9, s.Buf, s.Type, s.Count))
		}
		if err := r.Waitall(p, reqs); err != nil {
			t.Errorf("reference rank %d: %v", r.ID(), err)
		}
	})
	if err != nil {
		t.Fatalf("reference world: %v", err)
	}
}

func runAllgatherv(t *testing.T, scheme string, alg coll.Algorithm, l *datatype.Layout) {
	t.Helper()
	w := collWorld(scheme, nil)
	sends, recvs := makeAG(w, l)
	e := coll.New(w, coll.Tuning{Allgatherv: alg})
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if cerr := e.Allgatherv(p, r, sends[r.ID()], recvs[r.ID()]); cerr != nil {
			t.Errorf("rank %d: %v", r.ID(), cerr)
		}
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", scheme, alg, err)
	}
	checkNoLeaks(t, w, scheme+"/"+alg.String())

	ref := collWorld("GPU-Sync", nil)
	rSends, rRecvs := makeAG(ref, l)
	refAllgatherv(t, ref, rSends, rRecvs)
	for r := range recvs {
		for src := range recvs[r] {
			if !bytes.Equal(recvs[r][src].Buf.Data, rRecvs[r][src].Buf.Data) {
				t.Fatalf("%s/%s: rank %d contribution-of-%d differs from reference", scheme, alg, r, src)
			}
		}
	}
}

func TestAllgathervConformance(t *testing.T) {
	l := denseVec()
	algs := []coll.Algorithm{coll.Linear, coll.Ring, coll.Bruck, coll.RecursiveDoubling, coll.Hierarchical}
	for _, alg := range algs {
		for _, s := range schemes.Names() {
			alg, s := alg, s
			t.Run(alg.String()+"/"+s, func(t *testing.T) {
				runAllgatherv(t, s, alg, l)
			})
		}
	}
}

// --- Gatherv / Scatterv ---

func runGatherv(t *testing.T, scheme string, alg coll.Algorithm, root int, l *datatype.Layout) {
	t.Helper()
	w := collWorld(scheme, nil)
	sends, recvs := makeAG(w, l)
	e := coll.New(w, coll.Tuning{Gatherv: alg})
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if cerr := e.Gatherv(p, r, root, sends[r.ID()], recvs[r.ID()]); cerr != nil {
			t.Errorf("rank %d: %v", r.ID(), cerr)
		}
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", scheme, alg, err)
	}
	checkNoLeaks(t, w, scheme+"/"+alg.String())

	ref := collWorld("GPU-Sync", nil)
	rSends, rRecvs := makeAG(ref, l)
	size := ref.Size()
	err = ref.Run(func(r *mpi.Rank, p *sim.Proc) {
		var reqs []*mpi.Request
		if r.ID() == root {
			for src := 0; src < size; src++ {
				op := rRecvs[root][src]
				reqs = append(reqs, r.Irecv(p, src, 9, op.Buf, op.Type, op.Count))
			}
		}
		s := rSends[r.ID()]
		reqs = append(reqs, r.Isend(p, root, 9, s.Buf, s.Type, s.Count))
		if werr := r.Waitall(p, reqs); werr != nil {
			t.Errorf("reference rank %d: %v", r.ID(), werr)
		}
	})
	if err != nil {
		t.Fatalf("reference world: %v", err)
	}
	for src := 0; src < size; src++ {
		if !bytes.Equal(recvs[root][src].Buf.Data, rRecvs[root][src].Buf.Data) {
			t.Fatalf("%s/%s: root recv of %d differs from reference", scheme, alg, src)
		}
	}
}

func runScatterv(t *testing.T, scheme string, alg coll.Algorithm, root int, l *datatype.Layout) {
	t.Helper()
	build := func(w *mpi.World) ([][]coll.VOp, []coll.VOp) {
		size := w.Size()
		sends := make([][]coll.VOp, size)
		recvs := make([]coll.VOp, size)
		for r := 0; r < size; r++ {
			dev := w.Rank(r).Dev
			sends[r] = make([]coll.VOp, size)
			for dst := 0; dst < size; dst++ {
				sb := dev.Alloc(fmt.Sprintf("sv-s-%d-%d", r, dst), int(l.ExtentBytes)*3)
				rng := rand.New(rand.NewSource(int64(r*100 + dst)))
				rng.Read(sb.Data)
				sends[r][dst] = coll.VOp{Buf: sb, Type: l, Count: 1 + dst%3}
			}
			rb := dev.Alloc(fmt.Sprintf("sv-r-%d", r), int(l.ExtentBytes)*3)
			recvs[r] = coll.VOp{Buf: rb, Type: l, Count: 1 + r%3}
		}
		return sends, recvs
	}
	w := collWorld(scheme, nil)
	sends, recvs := build(w)
	e := coll.New(w, coll.Tuning{Scatterv: alg})
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if cerr := e.Scatterv(p, r, root, sends[r.ID()], recvs[r.ID()]); cerr != nil {
			t.Errorf("rank %d: %v", r.ID(), cerr)
		}
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", scheme, alg, err)
	}
	checkNoLeaks(t, w, scheme+"/"+alg.String())

	ref := collWorld("GPU-Sync", nil)
	rSends, rRecvs := build(ref)
	size := ref.Size()
	err = ref.Run(func(r *mpi.Rank, p *sim.Proc) {
		var reqs []*mpi.Request
		rv := rRecvs[r.ID()]
		reqs = append(reqs, r.Irecv(p, root, 9, rv.Buf, rv.Type, rv.Count))
		if r.ID() == root {
			for dst := 0; dst < size; dst++ {
				op := rSends[root][dst]
				reqs = append(reqs, r.Isend(p, dst, 9, op.Buf, op.Type, op.Count))
			}
		}
		if werr := r.Waitall(p, reqs); werr != nil {
			t.Errorf("reference rank %d: %v", r.ID(), werr)
		}
	})
	if err != nil {
		t.Fatalf("reference world: %v", err)
	}
	for r := 0; r < size; r++ {
		if !bytes.Equal(recvs[r].Buf.Data, rRecvs[r].Buf.Data) {
			t.Fatalf("%s/%s: rank %d slot differs from reference", scheme, alg, r)
		}
	}
}

func TestGathervConformance(t *testing.T) {
	l := denseVec()
	for _, alg := range []coll.Algorithm{coll.Linear, coll.Hierarchical} {
		for _, s := range schemes.Names() {
			alg, s := alg, s
			t.Run(alg.String()+"/"+s, func(t *testing.T) {
				runGatherv(t, s, alg, 5, l) // non-leader root on node 1
			})
		}
	}
	// Leader root exercises the other leader/root coincidence paths.
	runGatherv(t, "Proposed-Tuned", coll.Hierarchical, 0, l)
}

func TestScattervConformance(t *testing.T) {
	l := denseVec()
	for _, alg := range []coll.Algorithm{coll.Linear, coll.Hierarchical} {
		for _, s := range schemes.Names() {
			alg, s := alg, s
			t.Run(alg.String()+"/"+s, func(t *testing.T) {
				runScatterv(t, s, alg, 5, l)
			})
		}
	}
	runScatterv(t, "Proposed-Tuned", coll.Hierarchical, 0, l)
}

// --- NeighborAlltoallw ---

// makeNeighborOps builds a ring neighborhood where every peer appears
// twice, exercising the index-FIFO matching contract.
func makeNeighborOps(w *mpi.World, l *datatype.Layout) [][]mpi.NeighborOp {
	size := w.Size()
	ops := make([][]mpi.NeighborOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		left := (r - 1 + size) % size
		right := (r + 1) % size
		mk := func(k, peer int) mpi.NeighborOp {
			sb := dev.Alloc(fmt.Sprintf("n-s-%d-%d", r, k), int(l.ExtentBytes))
			rb := dev.Alloc(fmt.Sprintf("n-r-%d-%d", r, k), int(l.ExtentBytes))
			rng := rand.New(rand.NewSource(int64(r*10 + k)))
			rng.Read(sb.Data)
			return mpi.NeighborOp{Peer: peer, SendBuf: sb, SendType: l, RecvBuf: rb, RecvType: l, Count: 1}
		}
		ops[r] = []mpi.NeighborOp{mk(0, left), mk(1, right), mk(2, left), mk(3, right)}
	}
	return ops
}

// refNeighbor is the per-message reference for NeighborAlltoallw: plain
// user-tag receives, then sends, then one Waitall. One shared tag keeps
// FIFO matching, so repeated peers pair legs in posting order.
func refNeighbor(t *testing.T, w *mpi.World, ops [][]mpi.NeighborOp) {
	t.Helper()
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		var reqs []*mpi.Request
		for _, op := range ops[r.ID()] {
			reqs = append(reqs, r.Irecv(p, op.Peer, 7, op.RecvBuf, op.RecvType, op.Count))
		}
		for _, op := range ops[r.ID()] {
			reqs = append(reqs, r.Isend(p, op.Peer, 7, op.SendBuf, op.SendType, op.Count))
		}
		if err := r.Waitall(p, reqs); err != nil {
			t.Errorf("reference rank %d: %v", r.ID(), err)
		}
	})
	if err != nil {
		t.Fatalf("reference world: %v", err)
	}
}

func TestNeighborAlltoallwConformance(t *testing.T) {
	l := denseVec()
	for _, s := range schemes.Names() {
		s := s
		t.Run(s, func(t *testing.T) {
			w := collWorld(s, nil)
			ops := makeNeighborOps(w, l)
			e := coll.New(w, coll.Tuning{})
			err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
				if cerr := e.NeighborAlltoallw(p, r, ops[r.ID()]); cerr != nil {
					t.Errorf("rank %d: %v", r.ID(), cerr)
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			checkNoLeaks(t, w, s)

			ref := collWorld("GPU-Sync", nil)
			refOps := makeNeighborOps(ref, l)
			refNeighbor(t, ref, refOps)
			for r := range ops {
				for k := range ops[r] {
					if !bytes.Equal(ops[r][k].RecvBuf.Data, refOps[r][k].RecvBuf.Data) {
						t.Fatalf("%s: rank %d leg %d differs from reference", s, r, k)
					}
				}
			}
		})
	}
}

// --- chaos: collectives under fault plans must stay byte-exact with
// zero leaked requests ---

func TestCollectivesChaos(t *testing.T) {
	l := denseVec()
	for _, preset := range []string{"flaky-ib", "degraded-link"} {
		for _, alg := range []coll.Algorithm{coll.Linear, coll.Hierarchical} {
			preset, alg := preset, alg
			t.Run(preset+"/"+alg.String(), func(t *testing.T) {
				plan, err := fault.Preset(preset, 23)
				if err != nil {
					t.Fatal(err)
				}
				w := collWorld("Proposed-Tuned", func(c *mpi.Config) { c.Faults = plan })
				ops := makeA2AOps(w, l)
				e := coll.New(w, coll.Tuning{Alltoallw: alg})
				err = w.Run(func(r *mpi.Rank, p *sim.Proc) {
					if cerr := e.Alltoallw(p, r, ops[r.ID()]); cerr != nil {
						t.Errorf("rank %d: %v", r.ID(), cerr)
					}
				})
				if err != nil {
					t.Fatalf("chaos world: %v", err)
				}
				checkNoLeaks(t, w, preset)

				ref := collWorld("GPU-Sync", nil)
				refOps := makeA2AOps(ref, l)
				refAlltoallw(t, ref, refOps)
				compareA2A(t, preset+"/"+alg.String(), ops, refOps)
			})
		}
	}
}

// TestBruckAllgathervChaosKeepsOrder: under mixed,seed=7 retransmission
// reorders Bruck's same-(source, tag) envelopes of different sizes; the
// reliability layer must still match them in send order, so every block
// lands byte-exact where the fault-free run puts it, at eager and at
// rendezvous sizes.
func TestBruckAllgathervChaosKeepsOrder(t *testing.T) {
	plan, err := fault.Preset("mixed", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []*datatype.Layout{denseVec(), bigVec()} {
		run := func(plan *fault.Plan) [][]coll.VOp {
			w := collWorld("Proposed-Tuned", func(c *mpi.Config) { c.Faults = plan })
			sends, recvs := makeAG(w, l)
			e := coll.New(w, coll.Tuning{Allgatherv: coll.Bruck})
			if err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
				if cerr := e.Allgatherv(p, r, sends[r.ID()], recvs[r.ID()]); cerr != nil {
					t.Errorf("%d B legs, rank %d: %v", l.SizeBytes, r.ID(), cerr)
				}
			}); err != nil {
				t.Fatalf("%d B legs: %v", l.SizeBytes, err)
			}
			checkNoLeaks(t, w, fmt.Sprintf("%d B legs", l.SizeBytes))
			return recvs
		}
		got, want := run(plan), run(nil)
		for r := range got {
			for src := range got[r] {
				if !bytes.Equal(got[r][src].Buf.Data, want[r][src].Buf.Data) {
					t.Fatalf("%d B legs: rank %d block from %d differs from the fault-free run", l.SizeBytes, r, src)
				}
			}
		}
	}
}
