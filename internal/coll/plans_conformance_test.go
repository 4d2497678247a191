package coll_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/coll"
	"repro/internal/datatype"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// This file is the collectives half of the pack-plans oracle (the schemes
// half lives in internal/conformance): every matrix cell runs byte-exact
// on an 8-rank Lassen world, where each pack and unpack job runs the
// compiled plan of its layout-cache entry, and every receive buffer must
// end equal to a host model that packs the sender's bytes through the
// send block list and scatters them through the receive block list.

// planLeg is one typed movement a collective must perform: the send
// region of one rank lands in the receive region of another.
type planLeg struct {
	send  *gpu.Buffer
	st    *datatype.Layout
	sc    int
	recv  *gpu.Buffer
	rt    *datatype.Layout
	rc    int
	label string
}

// planCell builds a cell's buffers on w and returns its legs and the
// per-rank collective call.
type planCell func(w *mpi.World) ([]planLeg, func(e *coll.Engine, r *mpi.Rank, p *sim.Proc) error)

// modelLeg packs src through the send blocks into a wire stream and
// scatters it through the receive blocks into dst.
func modelLeg(dst, src []byte, lg planLeg) {
	var wire []byte
	for _, b := range lg.st.Repeat(lg.sc) {
		wire = append(wire, src[b.Offset:b.Offset+b.Len]...)
	}
	var pos int64
	for _, b := range lg.rt.Repeat(lg.rc) {
		copy(dst[b.Offset:b.Offset+b.Len], wire[pos:pos+b.Len])
		pos += b.Len
	}
}

func runPlanCell(t *testing.T, scheme string, tun coll.Tuning, mut func(*mpi.Config), cell planCell) {
	t.Helper()
	w := collWorld(scheme, mut)
	legs, call := cell(w)
	want := make([][]byte, len(legs))
	for i, lg := range legs {
		want[i] = append([]byte(nil), lg.recv.Data...)
		modelLeg(want[i], lg.send.Data, lg)
	}
	e := coll.New(w, tun)
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if cerr := call(e, r, p); cerr != nil {
			t.Errorf("rank %d: %v", r.ID(), cerr)
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	checkNoLeaks(t, w, scheme)
	for i, lg := range legs {
		if !bytes.Equal(lg.recv.Data, want[i]) {
			t.Errorf("%s: %s differs from the block-list model", scheme, lg.label)
		}
	}
	var compiled int64
	for i := 0; i < w.Size(); i++ {
		compiled += w.Rank(i).CacheStats().TotalCompiled()
	}
	if compiled == 0 {
		t.Errorf("%s: no pack plan compiled", scheme)
	}
}

func a2aPlanCell(l *datatype.Layout) planCell {
	return func(w *mpi.World) ([]planLeg, func(*coll.Engine, *mpi.Rank, *sim.Proc) error) {
		ops := makeA2AOpsPRF(w, l)
		var legs []planLeg
		for r := range ops {
			for peer := range ops[r] {
				s, d := ops[peer][r], ops[r][peer]
				legs = append(legs, planLeg{s.SendBuf, s.SendType, s.SendCount, d.RecvBuf, d.RecvType, d.RecvCount,
					d.RecvBuf.Name})
			}
		}
		return legs, func(e *coll.Engine, r *mpi.Rank, p *sim.Proc) error {
			return e.Alltoallw(p, r, ops[r.ID()])
		}
	}
}

func vLeg(s, d coll.VOp) planLeg {
	return planLeg{s.Buf, s.Type, s.Count, d.Buf, d.Type, d.Count, d.Buf.Name}
}

func agPlanCell(l *datatype.Layout) planCell {
	return func(w *mpi.World) ([]planLeg, func(*coll.Engine, *mpi.Rank, *sim.Proc) error) {
		sends, recvs := makeAGPRF(w, l)
		var legs []planLeg
		for r := range recvs {
			for src := range recvs[r] {
				legs = append(legs, vLeg(sends[src], recvs[r][src]))
			}
		}
		return legs, func(e *coll.Engine, r *mpi.Rank, p *sim.Proc) error {
			return e.Allgatherv(p, r, sends[r.ID()], recvs[r.ID()])
		}
	}
}

func gathervPlanCell(root int, l *datatype.Layout) planCell {
	return func(w *mpi.World) ([]planLeg, func(*coll.Engine, *mpi.Rank, *sim.Proc) error) {
		sends, recvs := makeAGPRF(w, l)
		var legs []planLeg
		for src := range sends {
			legs = append(legs, vLeg(sends[src], recvs[root][src]))
		}
		return legs, func(e *coll.Engine, r *mpi.Rank, p *sim.Proc) error {
			return e.Gatherv(p, r, root, sends[r.ID()], recvs[r.ID()])
		}
	}
}

func scattervPlanCell(root int, l *datatype.Layout) planCell {
	return func(w *mpi.World) ([]planLeg, func(*coll.Engine, *mpi.Rank, *sim.Proc) error) {
		size := w.Size()
		sends := make([][]coll.VOp, size)
		recvs := make([]coll.VOp, size)
		for r := 0; r < size; r++ {
			dev := w.Rank(r).Dev
			sends[r] = make([]coll.VOp, size)
			for dst := 0; dst < size; dst++ {
				sb := dev.Alloc(fmt.Sprintf("psv-s-%d-%d", r, dst), int(l.ExtentBytes)*3)
				sb.FillStream(uint64(r*100 + dst + 1))
				sends[r][dst] = coll.VOp{Buf: sb, Type: l, Count: 1 + dst%3}
			}
			rb := dev.Alloc(fmt.Sprintf("psv-r-%d", r), int(l.ExtentBytes)*3)
			recvs[r] = coll.VOp{Buf: rb, Type: l, Count: 1 + r%3}
		}
		var legs []planLeg
		for r := 0; r < size; r++ {
			legs = append(legs, vLeg(sends[root][r], recvs[r]))
		}
		return legs, func(e *coll.Engine, r *mpi.Rank, p *sim.Proc) error {
			return e.Scatterv(p, r, root, sends[r.ID()], recvs[r.ID()])
		}
	}
}

// neighborPlanCell is a ring where every rank lists each neighbor twice;
// legs between one pair match in posting order.
func neighborPlanCell(l *datatype.Layout) planCell {
	return func(w *mpi.World) ([]planLeg, func(*coll.Engine, *mpi.Rank, *sim.Proc) error) {
		ops := makeNeighborOps(w, l)
		// nth returns the index of the n-th op of rank r naming peer.
		nth := func(r, peer, n int) int {
			for k, op := range ops[r] {
				if op.Peer == peer {
					if n == 0 {
						return k
					}
					n--
				}
			}
			panic("neighbor ops: unmatched leg")
		}
		var legs []planLeg
		for r := range ops {
			seen := map[int]int{}
			for _, d := range ops[r] {
				s := ops[d.Peer][nth(d.Peer, r, seen[d.Peer])]
				seen[d.Peer]++
				legs = append(legs, planLeg{s.SendBuf, s.SendType, s.Count, d.RecvBuf, d.RecvType, d.Count, d.RecvBuf.Name})
			}
		}
		return legs, func(e *coll.Engine, r *mpi.Rank, p *sim.Proc) error {
			return e.NeighborAlltoallw(p, r, ops[r.ID()])
		}
	}
}

// TestPlanCollectivesMatrix is the collectives matrix under the pack-plans
// oracle at 8 ranks: Alltoallw across algorithms and layout families,
// Allgatherv across algorithms, rooted Gatherv and Scatterv, and
// NeighborAlltoallw must each land exactly the bytes of the block-list
// model, with pack plans compiled.
func TestPlanCollectivesMatrix(t *testing.T) {
	dense := denseVec()
	sparse := sparseIdx()
	big := bigVec()
	noIPC := func(c *mpi.Config) { c.DisableIPC = true }
	cells := []struct {
		name   string
		scheme string
		tun    coll.Tuning
		mut    func(*mpi.Config)
		cell   planCell
	}{
		{"Alltoallw/Linear/dense", "Proposed-Tuned", coll.Tuning{Alltoallw: coll.Linear}, nil, a2aPlanCell(dense)},
		{"Alltoallw/Pairwise/dense", "Proposed-Tuned", coll.Tuning{Alltoallw: coll.Pairwise}, nil, a2aPlanCell(dense)},
		{"Alltoallw/Hierarchical/dense", "Proposed-Tuned", coll.Tuning{Alltoallw: coll.Hierarchical}, nil, a2aPlanCell(dense)},
		{"Alltoallw/Hierarchical/sparse", "Proposed-Tuned", coll.Tuning{Alltoallw: coll.Hierarchical}, nil, a2aPlanCell(sparse)},
		{"Alltoallw/Hierarchical/big-rendezvous", "Proposed-Tuned", coll.Tuning{Alltoallw: coll.Hierarchical}, nil, a2aPlanCell(big)},
		{"Alltoallw/Hierarchical/no-ipc", "Proposed-Tuned", coll.Tuning{Alltoallw: coll.Hierarchical}, noIPC, a2aPlanCell(dense)},
		{"Allgatherv/Ring/dense", "Proposed-Tuned", coll.Tuning{Allgatherv: coll.Ring}, nil, agPlanCell(dense)},
		{"Allgatherv/Bruck/dense", "Proposed-Tuned", coll.Tuning{Allgatherv: coll.Bruck}, nil, agPlanCell(dense)},
		{"Allgatherv/Hierarchical/dense", "Proposed-Tuned", coll.Tuning{Allgatherv: coll.Hierarchical}, nil, agPlanCell(dense)},
		{"Gatherv/Hierarchical/root5", "Proposed-Tuned", coll.Tuning{Gatherv: coll.Hierarchical}, nil, gathervPlanCell(5, dense)},
		{"Scatterv/Hierarchical/root5", "Proposed-Tuned", coll.Tuning{Scatterv: coll.Hierarchical}, nil, scattervPlanCell(5, dense)},
		{"NeighborAlltoallw/ring", "Proposed-Tuned", coll.Tuning{}, nil, neighborPlanCell(dense)},
		{"Alltoallw/Hierarchical/baseline-scheme", "GPU-Sync", coll.Tuning{Alltoallw: coll.Hierarchical}, nil, a2aPlanCell(dense)},
	}
	if testing.Short() {
		cells = cells[:6]
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			runPlanCell(t, c.scheme, c.tun, c.mut, c.cell)
		})
	}
}
