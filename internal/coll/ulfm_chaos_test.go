package coll_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/coll"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// The rank-crash chaos matrix: every collective algorithm is driven past a
// deterministic rank crash, for several seeds. The self-healing contract
// under fail-stop faults is ULFM's, not delivery's:
//
//   1. the run terminates (no stall) within the failure-detector bound,
//   2. every survivor comes back with a typed error — *mpi.RankFailedError
//      from direct detection or mpi.ErrCommRevoked from the in-band
//      revocation flood — never an untyped one and never a false success,
//   3. nothing leaks: no registered requests, no half-fused pack jobs,
//   4. the same seed reproduces the identical run bit-for-bit (final
//      clock, fault-event sequence, per-rank timeline sums).

// chaosCase names one (collective, algorithm) cell of the matrix.
type chaosCase struct {
	name   string
	tuning coll.Tuning
	run    func(e *coll.Engine, r *mpi.Rank, p *sim.Proc, st *chaosState) error
}

// chaosState owns every op shape the matrix cells draw from, all built on
// the same world so one allocation pass serves any cell.
type chaosState struct {
	a2a      [][]coll.WOp
	agSends  []coll.VOp
	agRecvs  [][]coll.VOp
	svSends  [][]coll.VOp
	svRecvs  []coll.VOp
	neighbor [][]mpi.NeighborOp
	bcast    []coll.VOp
	sums     []*gpu.Buffer
}

func buildChaosState(w *mpi.World) *chaosState {
	l := denseVec()
	st := &chaosState{}
	st.a2a = makeA2AOps(w, l)
	st.agSends, st.agRecvs = makeAG(w, l)
	size := w.Size()
	st.svSends = make([][]coll.VOp, size)
	st.svRecvs = make([]coll.VOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		st.svSends[r] = make([]coll.VOp, size)
		for dst := 0; dst < size; dst++ {
			sb := dev.Alloc(fmt.Sprintf("cs-s-%d-%d", r, dst), int(l.ExtentBytes)*3)
			st.svSends[r][dst] = coll.VOp{Buf: sb, Type: l, Count: 1 + dst%3}
		}
		rb := dev.Alloc(fmt.Sprintf("cs-r-%d", r), int(l.ExtentBytes)*3)
		st.svRecvs[r] = coll.VOp{Buf: rb, Type: l, Count: 1 + r%3}
	}
	st.neighbor = makeNeighborOps(w, l)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		st.bcast = append(st.bcast, coll.VOp{Buf: dev.Alloc(fmt.Sprintf("cs-b-%d", r), int(l.ExtentBytes)), Type: l, Count: 1})
		st.sums = append(st.sums, dev.Alloc(fmt.Sprintf("cs-f-%d", r), chaosSumLen*8))
	}
	return st
}

// chaosSumLen is the float64 count of the allreduce cells' vectors.
const chaosSumLen = 24

func chaosMatrix() []chaosCase {
	var cases []chaosCase
	for _, alg := range []coll.Algorithm{coll.Linear, coll.Pairwise, coll.Hierarchical} {
		alg := alg
		cases = append(cases, chaosCase{
			name:   "alltoallw/" + alg.String(),
			tuning: coll.Tuning{Alltoallw: alg},
			run: func(e *coll.Engine, r *mpi.Rank, p *sim.Proc, st *chaosState) error {
				return e.Alltoallw(p, r, st.a2a[r.ID()])
			},
		})
	}
	for _, alg := range []coll.Algorithm{coll.Linear, coll.Ring, coll.Bruck, coll.RecursiveDoubling, coll.Hierarchical} {
		alg := alg
		cases = append(cases, chaosCase{
			name:   "allgatherv/" + alg.String(),
			tuning: coll.Tuning{Allgatherv: alg},
			run: func(e *coll.Engine, r *mpi.Rank, p *sim.Proc, st *chaosState) error {
				return e.Allgatherv(p, r, st.agSends[r.ID()], st.agRecvs[r.ID()])
			},
		})
	}
	for _, alg := range []coll.Algorithm{coll.Linear, coll.Hierarchical} {
		alg := alg
		cases = append(cases, chaosCase{
			name:   "gatherv/" + alg.String(),
			tuning: coll.Tuning{Gatherv: alg},
			run: func(e *coll.Engine, r *mpi.Rank, p *sim.Proc, st *chaosState) error {
				return e.Gatherv(p, r, 5, st.agSends[r.ID()], st.agRecvs[r.ID()])
			},
		})
		cases = append(cases, chaosCase{
			name:   "scatterv/" + alg.String(),
			tuning: coll.Tuning{Scatterv: alg},
			run: func(e *coll.Engine, r *mpi.Rank, p *sim.Proc, st *chaosState) error {
				return e.Scatterv(p, r, 5, st.svSends[r.ID()], st.svRecvs[r.ID()])
			},
		})
	}
	cases = append(cases, chaosCase{
		name:   "neighbor/indexed-fifo",
		tuning: coll.Tuning{},
		run: func(e *coll.Engine, r *mpi.Rank, p *sim.Proc, st *chaosState) error {
			return e.NeighborAlltoallw(p, r, st.neighbor[r.ID()])
		},
	}, chaosCase{
		name:   "bcast/binomial",
		tuning: coll.Tuning{},
		run: func(e *coll.Engine, r *mpi.Rank, p *sim.Proc, st *chaosState) error {
			op := st.bcast[r.ID()]
			return e.Bcast(p, r, 5, op.Buf, op.Type, op.Count)
		},
	}, chaosCase{
		name:   "allreduce/recursive-doubling",
		tuning: coll.Tuning{},
		run: func(e *coll.Engine, r *mpi.Rank, p *sim.Proc, st *chaosState) error {
			return e.AllreduceSumF64(p, r, st.sums[r.ID()], chaosSumLen)
		},
	})
	return cases
}

// chaosObservation is everything one seeded run exposes for assertions and
// for the bit-identical replay comparison.
type chaosObservation struct {
	finalClock int64
	crashed    []int
	rankErrs   []error
	faultEvs   []string
	tlSums     []string
	leaked     int
	fusedLeft  int
	staging    int64
}

// runChaosCell drives one matrix cell once: survivors loop the collective
// until they observe an error or virtual time passes well beyond the crash
// plus the detection bound, so the failure window is always exercised.
func runChaosCell(t *testing.T, cc chaosCase, seed uint64) *chaosObservation {
	t.Helper()
	plan, err := fault.Preset("rank-crash", seed)
	if err != nil {
		t.Fatal(err)
	}
	w := collWorld("Proposed-Tuned", func(c *mpi.Config) {
		c.Faults = plan
		c.Timeline = &timeline.Options{}
	})
	st := buildChaosState(w)
	e := coll.New(w, cc.tuning)
	obs := &chaosObservation{rankErrs: make([]error, w.Size())}
	const horizon = 400_000 // crash ≤45µs + detect ≤~220µs, plus slack
	runErr := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		for obs.rankErrs[r.ID()] == nil && p.Now() < horizon {
			obs.rankErrs[r.ID()] = cc.run(e, r, p, st)
		}
	})
	if runErr != nil {
		t.Fatalf("%s seed %d: world did not terminate cleanly: %v", cc.name, seed, runErr)
	}
	obs.finalClock = w.Env.Now()
	obs.crashed = w.CrashedRanks()
	for _, ev := range w.FaultEvents() {
		obs.faultEvs = append(obs.faultEvs, fmt.Sprintf("%d %s %s %s", ev.At, ev.Site, ev.Kind, ev.Detail))
	}
	for i := 0; i < w.Size(); i++ {
		obs.tlSums = append(obs.tlSums, w.Rank(i).Timeline().Sums().String())
	}
	obs.leaked = w.LeakedRequests()
	obs.fusedLeft = w.PendingFusedJobs()
	obs.staging = w.LiveStagingBytes()
	return obs
}

func assertChaosContract(t *testing.T, cc chaosCase, seed uint64, obs *chaosObservation) {
	t.Helper()
	if len(obs.crashed) != 1 {
		t.Fatalf("%s seed %d: crashed ranks %v, want exactly one", cc.name, seed, obs.crashed)
	}
	dead := obs.crashed[0]
	for i, rerr := range obs.rankErrs {
		if i == dead {
			continue // killed mid-body; its slot is whatever it last wrote
		}
		if rerr == nil {
			t.Fatalf("%s seed %d: survivor %d returned success across the failure window", cc.name, seed, i)
		}
		if !errors.Is(rerr, mpi.ErrRankFailed) && !errors.Is(rerr, mpi.ErrCommRevoked) {
			t.Fatalf("%s seed %d: survivor %d got untyped error: %v", cc.name, seed, i, rerr)
		}
	}
	if obs.leaked != 0 {
		t.Fatalf("%s seed %d: %d leaked requests", cc.name, seed, obs.leaked)
	}
	if obs.fusedLeft != 0 {
		t.Fatalf("%s seed %d: %d fused jobs stranded", cc.name, seed, obs.fusedLeft)
	}
	if obs.staging != 0 {
		t.Fatalf("%s seed %d: %d staging bytes left lent", cc.name, seed, obs.staging)
	}
}

func TestCollectivesRankCrashMatrix(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, cc := range chaosMatrix() {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			for _, seed := range seeds {
				assertChaosContract(t, cc, seed, runChaosCell(t, cc, seed))
			}
		})
	}
}

// TestShrinkRetryByteExact is the checkpointless-recovery acceptance run:
// a rank dies mid-Alltoallw, every survivor observes a typed failure,
// agrees on the outcome, shrinks the world communicator, and retries the
// collective on the dense survivor comm with fresh buffers — and the
// retried collective must deliver byte-exactly what a plain sequential
// pack/scatter model predicts.
func TestShrinkRetryByteExact(t *testing.T) {
	const deadRank = 1
	plan := &fault.Plan{
		Seed: 11,
		Proc: fault.ProcPlan{Crashes: []fault.Crash{{Rank: deadRank, AtNs: 20_000}}},
	}
	w := collWorld("Proposed-Tuned", func(c *mpi.Config) { c.Faults = plan })
	l := denseVec()
	ops := makeA2AOps(w, l)
	e := coll.New(w, coll.Tuning{Alltoallw: coll.Linear})

	// Retry state, preallocated for the survivor set the deterministic
	// plan guarantees: comm rank == dense re-rank over world \ {deadRank}.
	nSurv := w.Size() - 1
	world2comm := make([]int, w.Size())
	comm2world := make([]int, 0, nSurv)
	for i, cr := 0, 0; i < w.Size(); i++ {
		if i == deadRank {
			world2comm[i] = -1
			continue
		}
		world2comm[i] = cr
		comm2world = append(comm2world, i)
		cr++
	}
	retry := make([][]coll.WOp, nSurv)
	for cr := 0; cr < nSurv; cr++ {
		dev := w.Rank(comm2world[cr]).Dev
		retry[cr] = make([]coll.WOp, nSurv)
		for cp := 0; cp < nSurv; cp++ {
			count := 1 + (cr+cp)%3
			sb := dev.Alloc(fmt.Sprintf("rt-s-%d-%d", cr, cp), int(l.ExtentBytes)*3)
			rb := dev.Alloc(fmt.Sprintf("rt-r-%d-%d", cr, cp), int(l.ExtentBytes)*3)
			rng := rand.New(rand.NewSource(int64(5000 + cr*100 + cp)))
			rng.Read(sb.Data)
			rng.Read(rb.Data) // junk the recv side so untouched bytes are visible
			retry[cr][cp] = coll.WOp{SendBuf: sb, SendType: l, SendCount: count, RecvBuf: rb, RecvType: l, RecvCount: count}
		}
	}
	// The sequential model: gather each sender leg's blocks into a wire
	// stream, scatter it through the receiver layout. Computed before the
	// run from the same deterministic fills.
	expect := make([][][]byte, nSurv)
	for cr := 0; cr < nSurv; cr++ {
		expect[cr] = make([][]byte, nSurv)
		for cp := 0; cp < nSurv; cp++ {
			sop := retry[cp][cr] // cp's leg toward cr
			rop := retry[cr][cp]
			var wire []byte
			for _, b := range sop.SendType.Repeat(sop.SendCount) {
				wire = append(wire, sop.SendBuf.Data[b.Offset:b.Offset+b.Len]...)
			}
			buf := append([]byte(nil), rop.RecvBuf.Data...)
			var pos int64
			for _, b := range rop.RecvType.Repeat(rop.RecvCount) {
				copy(buf[b.Offset:b.Offset+b.Len], wire[pos:pos+b.Len])
				pos += b.Len
			}
			expect[cr][cp] = buf
		}
	}

	// Bcast and allreduce state for the same survivor comm: a 7-member
	// allreduce runs the non-power-of-two fold. Every non-root broadcast
	// buffer starts as junk, so the model is the junk with l's blocks
	// replaced by the root's.
	const bcastRoot, sumLen = 2, 17
	bcast := make([]*gpu.Buffer, nSurv)
	sums := make([]*gpu.Buffer, nSurv)
	for cr := 0; cr < nSurv; cr++ {
		dev := w.Rank(comm2world[cr]).Dev
		bcast[cr] = dev.Alloc(fmt.Sprintf("rt-b-%d", cr), int(l.ExtentBytes))
		rand.New(rand.NewSource(int64(9000 + cr))).Read(bcast[cr].Data)
		sums[cr] = dev.Alloc(fmt.Sprintf("rt-f-%d", cr), sumLen*8)
		for j := 0; j < sumLen; j++ {
			binary.LittleEndian.PutUint64(sums[cr].Data[j*8:], math.Float64bits(float64(cr*100+j)))
		}
	}
	expectBcast := make([][]byte, nSurv)
	for cr := range expectBcast {
		expectBcast[cr] = append([]byte(nil), bcast[cr].Data...)
		for _, b := range l.Blocks {
			copy(expectBcast[cr][b.Offset:b.Offset+b.Len], bcast[bcastRoot].Data[b.Offset:b.Offset+b.Len])
		}
	}

	flags := make([]uint64, w.Size())
	agreeErrs := make([]error, w.Size())
	runErr := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		var err error
		for err == nil && p.Now() < 400_000 {
			err = e.Alltoallw(p, r, ops[r.ID()])
		}
		if !errors.Is(err, mpi.ErrRankFailed) && !errors.Is(err, mpi.ErrCommRevoked) {
			t.Errorf("rank %d: expected typed failure, got %v", r.ID(), err)
			return
		}
		wc := w.WorldComm()
		var ok uint64
		if err == nil {
			ok = 1
		}
		flags[r.ID()], agreeErrs[r.ID()] = wc.Agree(p, r, ok)
		sub, serr := wc.Shrink(p, r)
		if serr != nil {
			t.Errorf("rank %d: shrink: %v", r.ID(), serr)
			return
		}
		if sub.Size() != nSurv || sub.CommRank(r.ID()) != world2comm[r.ID()] {
			t.Errorf("rank %d: shrunken comm size=%d commRank=%d, want %d/%d",
				r.ID(), sub.Size(), sub.CommRank(r.ID()), nSurv, world2comm[r.ID()])
			return
		}
		se := e.Sub(sub)
		cr := world2comm[r.ID()]
		if rerr := se.Alltoallw(p, r, retry[cr]); rerr != nil {
			t.Errorf("rank %d: retry on shrunken comm: %v", r.ID(), rerr)
		}
		if berr := se.Bcast(p, r, bcastRoot, bcast[cr], l, 1); berr != nil {
			t.Errorf("rank %d: bcast on shrunken comm: %v", r.ID(), berr)
		}
		if aerr := se.AllreduceSumF64(p, r, sums[cr], sumLen); aerr != nil {
			t.Errorf("rank %d: allreduce on shrunken comm: %v", r.ID(), aerr)
		}
	})
	if runErr != nil {
		t.Fatalf("world: %v", runErr)
	}
	for _, i := range comm2world {
		if flags[i] != 0 {
			t.Fatalf("rank %d: agreed flag %#x, want 0 (someone saw the failure)", i, flags[i])
		}
		var rf *mpi.RankFailedError
		if !errors.As(agreeErrs[i], &rf) || rf.Rank != deadRank {
			t.Fatalf("rank %d: agree error %v, want RankFailedError{Rank:%d}", i, agreeErrs[i], deadRank)
		}
	}
	for cr := 0; cr < nSurv; cr++ {
		for cp := 0; cp < nSurv; cp++ {
			if !bytes.Equal(retry[cr][cp].RecvBuf.Data, expect[cr][cp]) {
				t.Fatalf("comm rank %d recv-from-%d not byte-exact after shrink retry", cr, cp)
			}
		}
	}
	for cr := 0; cr < nSurv; cr++ {
		if !bytes.Equal(bcast[cr].Data, expectBcast[cr]) {
			t.Fatalf("comm rank %d: bcast from comm rank %d not byte-exact after shrink", cr, bcastRoot)
		}
		for j := 0; j < sumLen; j++ {
			want := float64(0)
			for k := 0; k < nSurv; k++ {
				want += float64(k*100 + j)
			}
			if got := math.Float64frombits(binary.LittleEndian.Uint64(sums[cr].Data[j*8:])); got != want {
				t.Fatalf("comm rank %d: allreduce elem %d = %f, want %f", cr, j, got, want)
			}
		}
	}
	if n := w.LeakedRequests(); n != 0 {
		t.Fatalf("%d leaked requests", n)
	}
	if n := w.LiveStagingBytes(); n != 0 {
		t.Fatalf("%d staging bytes left lent", n)
	}
	if n := w.PendingFusedJobs(); n != 0 {
		t.Fatalf("%d fused jobs stranded", n)
	}
}

// TestCollectivesRankCrashReplay reruns representative cells and demands a
// bit-identical replay: final clock, the full fault-event sequence, and
// every rank's timeline cost sums.
func TestCollectivesRankCrashReplay(t *testing.T) {
	for _, cc := range chaosMatrix() {
		switch cc.name {
		case "alltoallw/pairwise", "allgatherv/bruck", "gatherv/hierarchical", "neighbor/indexed-fifo",
			"bcast/binomial", "allreduce/recursive-doubling":
		default:
			continue
		}
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			a := runChaosCell(t, cc, 3)
			b := runChaosCell(t, cc, 3)
			if a.finalClock != b.finalClock {
				t.Fatalf("final clock differs: %d vs %d", a.finalClock, b.finalClock)
			}
			if len(a.faultEvs) != len(b.faultEvs) {
				t.Fatalf("fault event counts differ: %d vs %d", len(a.faultEvs), len(b.faultEvs))
			}
			for i := range a.faultEvs {
				if a.faultEvs[i] != b.faultEvs[i] {
					t.Fatalf("fault event %d differs:\n%s\n%s", i, a.faultEvs[i], b.faultEvs[i])
				}
			}
			for i := range a.tlSums {
				if a.tlSums[i] != b.tlSums[i] {
					t.Fatalf("rank %d timeline sums differ:\n%s\n%s", i, a.tlSums[i], b.tlSums[i])
				}
			}
		})
	}
}
