package mpi_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/schemes"
	"repro/internal/sim"
)

// revokeWorld builds an n-rank Lassen-shaped world (4 ranks per node) with
// failure tolerance on and no reachable crash.
func revokeWorld(n int) *mpi.World {
	c := cluster.MustBuild(sim.NewEnv(), cluster.Lassen().WithNodes(n/4))
	cfg := mpi.DefaultConfig()
	cfg.Faults = ftOnlyPlan(1)
	return mpi.NewWorld(c, cfg, schemes.Factory("GPU-Sync"))
}

// runMallocs runs body on every rank of w and returns the heap objects the
// run allocated.
func runMallocs(t *testing.T, w *mpi.World, body func(r *mpi.Rank, p *sim.Proc)) uint64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// revokeMallocs returns the heap objects that rank 0's revocation of the
// world communicator adds to an n-rank run: every member floods the other
// n-1 once, so the gossip is n*(n-1) frames. Each side is the least of a
// few fresh worlds, which drops the first run's one-time allocations.
func revokeMallocs(t *testing.T, n int) uint64 {
	body := func(revoke bool) func(r *mpi.Rank, p *sim.Proc) {
		return func(r *mpi.Rank, p *sim.Proc) {
			p.Sleep(5_000)
			if revoke && r.ID() == 0 {
				r.World().WorldComm().Revoke(p, r)
			}
		}
	}
	least := func(revoke bool) uint64 {
		var m uint64
		for i := 0; i < 3; i++ {
			w := revokeWorld(n)
			if got := runMallocs(t, w, body(revoke)); i == 0 || got < m {
				m = got
			}
			for id := 0; revoke && id < n; id++ {
				if !w.WorldComm().Revoked(w.Rank(id)) {
					t.Fatalf("%d ranks: rank %d never saw the revocation", n, id)
				}
			}
		}
		return m
	}
	quiet, flood := least(false), least(true)
	if flood < quiet {
		return 0
	}
	return flood - quiet
}

// TestRevokeFloodAllocsLinearInRanks pins that a revocation's gossip
// reuses one receiver per member instead of allocating a frame per
// (sender, receiver) pair: doubling the communicator from 32 to 64 ranks
// quadruples the frames but must not come near quadrupling the heap
// objects. What still grows faster than the members is the event queue's
// 32-event chunks, which hold the frames in flight.
func TestRevokeFloodAllocsLinearInRanks(t *testing.T) {
	small, large := revokeMallocs(t, 32), revokeMallocs(t, 64)
	t.Logf("revocation heap objects: %d at 32 ranks, %d at 64", small, large)
	if large >= 3*small {
		t.Fatalf("a 64-rank revocation allocates %d objects, %.1fx the %d of a 32-rank one",
			large, float64(large)/float64(max(small, 1)), small)
	}
}

// TestReliableAckAllocs pins what the reliability layer adds to a warm
// eager message from node 0 to node 1: the sender's pending entry and a
// 16-byte ack frame, about 135 B with the pending list and the receiver's
// seen set, which grow by doubling. An ack that was a 144-B message and a
// closure made it 3 objects and about 305 B.
func TestReliableAckAllocs(t *testing.T) {
	perMsg := func(plan *fault.Plan) (objs, bytes float64) {
		w := newWorld("GPU-Sync", func(c *mpi.Config) { c.Faults = plan })
		l := datatype.Commit(datatype.Contiguous(64, datatype.Float64)) // 512 B, eager
		sb := w.Rank(0).Dev.Alloc("s", int(l.ExtentBytes))
		rb := w.Rank(4).Dev.Alloc("r", int(l.ExtentBytes))
		const batch = 256
		step := func() {
			if err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
				for i := 0; i < batch; i++ {
					var err error
					switch r.ID() {
					case 0:
						err = r.Wait(p, r.Isend(p, 4, 1, sb, l, 1))
					case 4:
						err = r.Wait(p, r.Irecv(p, 0, 1, rb, l, 1))
					}
					if err != nil {
						t.Error(err)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		step()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		step()
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / batch, float64(m1.TotalAlloc-m0.TotalAlloc) / batch
	}
	plainObjs, plainBytes := perMsg(nil)
	// An empty plan injects nothing but switches the reliability layer on.
	relObjs, relBytes := perMsg(&fault.Plan{})
	objs, bytes := relObjs-plainObjs, relBytes-plainBytes
	t.Logf("reliability layer per warm eager message: %.2f objects, %.1f B", objs, bytes)
	if objs > 2.5 {
		t.Fatalf("the reliability layer adds %.2f heap objects per warm eager message, want 2 (pending entry, ack frame)", objs)
	}
	if bytes > 200 {
		t.Fatalf("the reliability layer adds %.1f B per warm eager message, want at most 200", bytes)
	}
}

// revokeUnderLinkFaults revokes the world communicator from rank 0, with
// rank 6 dying while rank 0's frame to it is in flight, and every
// inter-node frame may be dropped, duplicated or corrupted. It returns one line per rank, the time its receive failed
// with the revocation, then the final clock and the fault-event log.
func revokeUnderLinkFaults(t *testing.T) []string {
	t.Helper()
	w := newWorld("Proposed-Tuned", func(c *mpi.Config) {
		c.Faults = &fault.Plan{
			Seed: 12,
			Link: fault.LinkPlan{DropProb: 0.3, DupProb: 0.3, CorruptProb: 0.3},
			Proc: fault.ProcPlan{Crashes: []fault.Crash{{Rank: 6, AtNs: 5_100}}},
		}
	})
	l := datatype.Commit(datatype.Contiguous(64, datatype.Float64))
	c := w.WorldComm()
	errs := make([]error, w.Size())
	failedAt := make([]int64, w.Size())
	err := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		if r.ID() == 0 {
			p.Sleep(5_000)
			c.Revoke(p, r)
			return
		}
		buf := r.Dev.Alloc(fmt.Sprintf("rb%d", r.ID()), int(l.ExtentBytes))
		q := r.Irecv(p, 0, 11, buf, l, 1)
		c.Bind(q)
		errs[r.ID()] = r.Wait(p, q)
		failedAt[r.ID()] = q.DoneAt
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for id := range errs {
		if id == 6 {
			continue
		}
		if !c.Revoked(w.Rank(id)) {
			t.Fatalf("survivor %d never saw the revocation", id)
		}
		if id != 0 && !errors.Is(errs[id], mpi.ErrCommRevoked) {
			t.Fatalf("rank %d error = %v, want ErrCommRevoked", id, errs[id])
		}
	}
	if n := w.LeakedRequests(); n != 0 {
		t.Fatalf("leaked requests = %d", n)
	}
	var out []string
	for id := 1; id < w.Size(); id++ {
		if id != 6 {
			out = append(out, fmt.Sprintf("rank%d revoked at %d", id, failedAt[id]))
		}
	}
	out = append(out, fmt.Sprintf("final clock %d", w.Env.Now()))
	for _, ev := range w.FaultEvents() {
		out = append(out, fmt.Sprintf("%d %s %s %s", ev.At, ev.Site, ev.Kind, ev.Detail))
	}
	return out
}

// TestRevokeUnderLinkFaults floods a revocation over lossy, duplicating
// and corrupting links: every survivor is revoked, and when each one was,
// the final clock and the fault-event log are the ones the flood produced
// when each of its frames was a heap message, so the flood draws the same
// link faults for the same frames and drops the same ones.
func TestRevokeUnderLinkFaults(t *testing.T) {
	got := strings.Join(revokeUnderLinkFaults(t), "\n")
	if got != revokeUnderLinkFaultsWant {
		t.Fatalf("revocation under link faults:\n%s\nwant:\n%s", got, revokeUnderLinkFaultsWant)
	}
}

// revokeUnderLinkFaultsWant is what revokeUnderLinkFaults returned when
// every revocation frame was its own heap message.
const revokeUnderLinkFaultsWant = `rank1 revoked at 5250
rank2 revoked at 5250
rank3 revoked at 5250
rank4 revoked at 7162
rank5 revoked at 7162
rank7 revoked at 6912
final clock 25000
5000 ulfm revoke epoch0 by rank0
5000 link:IB-EDR-2rail[0->1] drop 64B
5000 link:IB-EDR-2rail[0->1] corrupt 64B
5100 proc rank-crash rank6 killed
5250 link:IB-EDR-2rail[0->1] corrupt 64B
5250 link:IB-EDR-2rail[0->1] dup 64B
5250 link:IB-EDR-2rail[0->1] dup 64B
5250 link:IB-EDR-2rail[0->1] dup 64B
5250 link:IB-EDR-2rail[0->1] drop 64B
5250 link:IB-EDR-2rail[0->1] corrupt 64B
5250 link:IB-EDR-2rail[0->1] dup 64B
5250 link:IB-EDR-2rail[0->1] dup 64B
6912 link:IB-EDR-2rail[1->0] drop 64B
6912 link:IB-EDR-2rail[1->0] drop 64B
7162 link:IB-EDR-2rail[1->0] drop 64B
7162 link:IB-EDR-2rail[1->0] drop 64B
7162 link:IB-EDR-2rail[1->0] drop 64B
7162 link:IB-EDR-2rail[1->0] corrupt 64B
7162 link:IB-EDR-2rail[1->0] drop 64B
7162 link:IB-EDR-2rail[1->0] drop 64B
7162 link:IB-EDR-2rail[1->0] drop 64B`
