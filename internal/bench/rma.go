package bench

import (
	"fmt"
	"strings"

	"repro/internal/coll"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/rma"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
)

// The rma figure (ddtbench -fig rma) compares the put-based one-sided
// collectives against the two-sided rendezvous baseline on the same
// Allgatherv workload: every rank contributes one 32 KiB strided leg —
// well above the eager limit, so the two-sided path pays the RTS/CTS
// rendezvous round-trip that a put replaces with a single doorbell.
// Rows run at 8 ranks in exact-payload mode and at 64/256 ranks in lazy
// mode (same split as -fig scale: real bytes stop where memory would
// scale with ranks x message size).

// rmaMeasure is one collective run under the rma figure: the run's
// measure plus fabric message count, progress events (Sync-category
// timeline events: progress-engine polls, stream syncs, signal waits),
// plan-cache counters, and — for one-sided rows — the fabric's own verb
// counters.
type rmaMeasure struct {
	measure
	msgs     int64
	progress int64
	plans    [datatype.NumPlanKinds]int64
	reuse    int64
	rma      rma.Stats
}

// rmaTimeline gives every rank a small timeline ring: Count() stays exact
// when events drop, and the rma figure only reads counts, never events.
func rmaTimeline(c *mpi.Config) { c.Timeline = &timeline.Options{Capacity: 64} }

// runRMAAllgatherv runs one Allgatherv over ranks (Lassen model,
// ranks/4 nodes) and measures it. One-sided algorithms get an explicit
// fabric so the verb counters can be read back; two-sided algorithms
// never touch it.
func runRMAAllgatherv(ranks int, lazy bool, alg coll.Algorithm) (rmaMeasure, error) {
	w, err := scaleWorld(ranks, lazy, rmaTimeline)
	if err != nil {
		return rmaMeasure{}, err
	}
	l := collLayout() // 32 KiB strided legs
	size := w.Size()
	sends := make([]coll.VOp, size)
	recvs := make([][]coll.VOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		sb := dev.Alloc(fmt.Sprintf("rma-s-%d", r), int(l.ExtentBytes))
		sb.FillStream(uint64(r + 1))
		sends[r] = coll.VOp{Buf: sb, Type: l, Count: 1}
		recvs[r] = make([]coll.VOp, size)
		for src := 0; src < size; src++ {
			rb := dev.Alloc(fmt.Sprintf("rma-r-%d-%d", r, src), int(l.ExtentBytes))
			recvs[r][src] = coll.VOp{Buf: rb, Type: l, Count: 1}
		}
	}
	e := coll.New(w, coll.Tuning{Allgatherv: alg})
	f := rma.New(w)
	e.UseRMA(f)
	m, err := run(w, f, func(r *mpi.Rank, p *sim.Proc) error {
		return e.Allgatherv(p, r, sends[r.ID()], recvs[r.ID()])
	})
	rm := rmaMeasure{measure: m, msgs: w.Cluster.Net.TotalMessages(), rma: f.TotalStats()}
	tl := w.Timeline()
	for i := 0; i < size; i++ {
		rm.progress += tl.Rank(i).Count(trace.Sync)
		cs := w.Rank(i).CacheStats()
		rm.reuse += cs.Hits
		for k := range cs.Compiled {
			rm.plans[k] += cs.Compiled[k]
		}
	}
	return rm, err
}

// fmtPlanKinds renders the per-kind plan-compile counters compactly,
// omitting kinds that never compiled ("strided:8 gather:2").
func fmtPlanKinds(plans [datatype.NumPlanKinds]int64) string {
	var parts []string
	for k, n := range plans {
		if n != 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", datatype.PlanKind(k), n))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// rmaRow runs one (ranks, mode, algorithm) cell of t and renders it.
func rmaRow(t *Table, ranks int, lazy bool, alg coll.Algorithm) []string {
	mode := "exact"
	if lazy {
		mode = "lazy"
	}
	keys := []string{fmt.Sprint(ranks), mode, alg.String()}
	m, err := runRMAAllgatherv(ranks, lazy, alg)
	if err != nil {
		return t.errRow(err, keys...)
	}
	return append(keys,
		fmtUs(m.virtNs),
		fmt.Sprint(m.msgs),
		fmt.Sprint(m.progress),
		fmt.Sprint(m.kernels),
		fmt.Sprint(m.rma.PackPuts+m.rma.Puts),
		fmt.Sprint(m.rma.Doorbells),
		fmtPlanKinds(m.plans),
		fmt.Sprint(m.reuse),
	)
}

// rmaAlgs is the algorithm menu of the rma figure: the two-sided ring
// baseline against both put-based one-sided schedules.
var rmaAlgs = []coll.Algorithm{coll.Ring, coll.OneSidedRing, coll.OneSidedBruck}

// runRMAAlltoallw runs two back-to-back identical Alltoallws over the
// one-sided backend on a persistent engine and splits the fabric's
// control-put and network-message counters per call: the first call
// negotiates the symmetric-prefix deposit offsets (2(n-1) zero-byte
// control SignalPuts per rank, one per peer per parity region), and a
// repeat call with the same shape must reuse them and issue zero.
func runRMAAlltoallw(ranks int, lazy bool, alg coll.Algorithm) (rmaMeasure, [2]int64, [2]int64, error) {
	var ctrl, msgs [2]int64
	w, err := scaleWorld(ranks, lazy, rmaTimeline)
	if err != nil {
		return rmaMeasure{}, ctrl, msgs, err
	}
	l := collLayout() // 32 KiB strided legs
	size := w.Size()
	ops := make([][]coll.WOp, size)
	for r := 0; r < size; r++ {
		dev := w.Rank(r).Dev
		ops[r] = make([]coll.WOp, size)
		for peer := 0; peer < size; peer++ {
			sb := dev.Alloc(fmt.Sprintf("a2a-s-%d-%d", r, peer), int(l.ExtentBytes))
			rb := dev.Alloc(fmt.Sprintf("a2a-r-%d-%d", r, peer), int(l.ExtentBytes))
			sb.FillStream(uint64(r*1000 + peer + 1))
			ops[r][peer] = coll.WOp{SendBuf: sb, SendType: l, SendCount: 1, RecvBuf: rb, RecvType: l, RecvCount: 1}
		}
	}
	e := coll.New(w, coll.Tuning{Alltoallw: alg})
	f := rma.New(w)
	e.UseRMA(f)
	m, err := run(w, f, func(r *mpi.Rank, p *sim.Proc) error {
		var first error
		for k := 0; k < 2; k++ {
			if cerr := e.Alltoallw(p, r, ops[r.ID()]); cerr != nil && first == nil {
				first = fmt.Errorf("call %d: %w", k, cerr)
			}
			// Double barrier: every rank finishes call k, rank 0 snapshots
			// the cumulative counters, then everyone proceeds to call k+1.
			w.Barrier(p)
			if r.ID() == 0 {
				ctrl[k] = f.TotalStats().CtrlPuts
				msgs[k] = w.Cluster.Net.TotalMessages()
			}
			w.Barrier(p)
		}
		return first
	})
	rm := rmaMeasure{measure: m, msgs: w.Cluster.Net.TotalMessages(), rma: f.TotalStats()}
	// Turn the cumulative snapshots into per-call deltas.
	ctrl[1] -= ctrl[0]
	msgs[1] -= msgs[0]
	return rm, ctrl, msgs, err
}

// rmaA2ARow runs one (ranks, mode, algorithm) Alltoallw cell of t and
// renders it.
func rmaA2ARow(t *Table, ranks int, lazy bool, alg coll.Algorithm) []string {
	mode := "exact"
	if lazy {
		mode = "lazy"
	}
	keys := []string{fmt.Sprint(ranks), mode, alg.String()}
	m, ctrl, msgs, err := runRMAAlltoallw(ranks, lazy, alg)
	if err != nil {
		return t.errRow(err, keys...)
	}
	return append(keys,
		fmtUs(m.virtNs),
		fmt.Sprint(ctrl[0]),
		fmt.Sprint(ctrl[1]),
		fmt.Sprint(msgs[0]),
		fmt.Sprint(msgs[1]),
		fmt.Sprint(m.rma.PackPuts+m.rma.Puts),
		fmt.Sprint(m.rma.Doorbells),
	)
}

// RMAA2AFig is the control-traffic table of the rma figure: two
// back-to-back one-sided Alltoallws with the same shape, control puts and
// network messages split per call. The first call pays the
// symmetric-prefix offset negotiation (2(n-1) zero-byte SignalPuts per
// rank); the second call must issue zero control puts and correspondingly
// fewer network messages — the persistent-engine claim, stated as a
// counter.
func RMAA2AFig(maxRanks int) *Table {
	t := &Table{
		Title: "One-sided Alltoallw control traffic: offset negotiation paid once per shape, not per call",
		Header: []string{"ranks", "mode", "algorithm", "time_us",
			"ctrl_puts_c1", "ctrl_puts_c2", "net_msgs_c1", "net_msgs_c2", "puts", "doorbells"},
	}
	for _, ranks := range []int{8, 64, 256} {
		if ranks > maxRanks {
			continue
		}
		lazy := ranks > 8
		for _, alg := range []coll.Algorithm{coll.OneSidedRing, coll.OneSidedBruck} {
			t.Rows = append(t.Rows, rmaA2ARow(t, ranks, lazy, alg))
		}
	}
	return t
}

// RMAFig is the one-sided-backend benchmark table (ddtbench -fig rma):
// put-based ring and Bruck Allgatherv against the two-sided ring at
// {8, 64, 256} ranks (capped at maxRanks). progress_ev counts
// Sync-category timeline events — the polls and stream syncs a blocked
// rank burns; puts retire on the NIC without the receiver polling a
// rendezvous state machine, so the one-sided rows show both lower
// modeled latency and fewer progress events. plan_compiles/plan_reuse
// expose the pack-plan cache per kind: every rank compiles its strided
// leg once and the fused pack-puts replay the cached plan.
func RMAFig(maxRanks int) *Table {
	t := &Table{
		Title: fmt.Sprintf("One-sided RMA backend: put-based vs two-sided Allgatherv, 32 KiB strided legs, Lassen model, poll %d ns",
			int64(scalePollNs)),
		Header: []string{"ranks", "mode", "algorithm", "time_us", "net_msgs", "progress_ev", "launches", "puts", "doorbells", "plan_compiles", "plan_reuse"},
	}
	for _, ranks := range []int{8, 64, 256} {
		if ranks > maxRanks {
			continue
		}
		lazy := ranks > 8
		for _, alg := range rmaAlgs {
			t.Rows = append(t.Rows, rmaRow(t, ranks, lazy, alg))
		}
	}
	return t
}
