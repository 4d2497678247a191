// Command halo3d is a Comb-style 3D domain-decomposition proxy app on the
// simulated cluster: an N³ double-precision grid is split across all
// ranks (balanced 3D decomposition, 2x2x2 at the default 8), each rank
// exchanges its six faces with its neighbors every timestep using
// subarray datatypes, and the tool reports per-timestep latency for a
// chosen DDT scheme (or compares all of them).
//
// Usage:
//
//	halo3d -n 64 -steps 10 -scheme Proposed-Tuned
//	halo3d -n 64 -compare
//	halo3d -n 64 -coll          # NeighborAlltoallw with fused launches
//	halo3d -n 64 -rma           # one-sided: fused pack-puts into ghost windows
//	halo3d -n 32 -ranks 1024 -lazy -coll   # 16x8x8 grid, lazy-bytes payloads
//	halo3d -n 16 -faults rank-crash -recover
//	halo3d -n 16 -lazy -faults rank-crash -recover
//	halo3d -n 16 -rma -faults rank-crash -recover
//
// One set-up and one exchange step serve every mode. The transport is
// two-sided Isend/Irecv by default, one NeighborAlltoallw per step with
// -coll, or one-sided with -rma: every rank opens a symmetric window (an
// inbound plus a staging slot per face) and a six-slot signal, fuse-packs
// its faces straight into the neighbors' windows (GPU-triggered doorbell,
// no rendezvous round-trip), and unpacks the deposits into its ghost grid.
//
// -lazy carries payloads as a span algebra instead of real bytes, so
// 1024-rank runs complete in seconds of wall time; only rank 0's ghost
// region and its neighbors' faces are materialized, to spot-check them.
//
// -faults SPEC -recover is the recovery demo, one demo over two
// transports: the NeighborAlltoallw collective, or the pack-puts with -rma.
// Every rank checkpoints its grid (and its halo window, one-sided), the
// fault plan kills one rank mid-exchange, and the survivors observe the
// typed failure, agree on it and shrink the world (ULFM-style), which rolls
// their grids back to the checkpoint; one-sided, the shrink re-rendezvouses
// the symmetric heap and reopening the window restores its contents. The
// survivors re-exchange a 1D z-chain (Isend/Irecv, or pack-puts at the new
// fabric epoch); the driver verifies the rollback, the chain byte-exactly
// and the leak oracles, then adopts the dead rank's snapshot onto its
// buddy, exiting non-zero on any miss. Both payload modes work.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	dkf "repro"
	"repro/internal/workload"
)

// transport is how a step moves the six faces.
type transport int

const (
	twoSided   transport = iota // Isend/Irecv, tags pair each recv with the opposite face
	collective                  // one NeighborAlltoallw with fused per-phase launches
	oneSided                    // fused pack-puts into symmetric ghost windows
)

// options is the parsed command line.
type options struct {
	n, steps, ranks              int
	scheme, tracePath, faultSpec string
	lazy, compare, useColl       bool
	useRMA, doRecover            bool
	// stepsSet records an explicit -steps, which -recover rejects.
	stepsSet bool
}

// parseArgs parses the command line (exiting on a malformed flag or -h)
// and returns validate's verdict on it.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.IntVar(&o.n, "n", 64, "local grid size per rank (n^3 doubles)")
	fs.IntVar(&o.steps, "steps", 5, "timesteps")
	fs.IntVar(&o.ranks, "ranks", 8, "number of ranks (>= 8, divisible by 4; Lassen nodes are sized to ranks/4)")
	fs.BoolVar(&o.lazy, "lazy", false, "carry payloads as a lazy span algebra instead of real bytes (scales to 1024 ranks; correctness spot-checked around rank 0)")
	fs.StringVar(&o.scheme, "scheme", "Proposed-Tuned", "DDT scheme")
	fs.BoolVar(&o.compare, "compare", false, "compare all schemes")
	fs.BoolVar(&o.useColl, "coll", false, "exchange halos with the NeighborAlltoallw collective (fused per-phase launches) instead of raw Isend/Irecv")
	fs.BoolVar(&o.useRMA, "rma", false, "exchange halos with one-sided fused pack-puts into symmetric ghost windows (no rendezvous round-trip)")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome trace-event JSON of the run to this file (single-scheme mode only)")
	fs.StringVar(&o.faultSpec, "faults", "", "fault-plan spec for the recovery demo (e.g. \"rank-crash\", \"rank-crash,seed=3\", \"crash=1@20000\"); requires -recover")
	fs.BoolVar(&o.doRecover, "recover", false, "survive a planned rank crash: agree on the failure, shrink the world, re-decompose the halo, and verify byte-exactness")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0, so no error returns
	fs.Visit(func(f *flag.Flag) { o.stepsSet = o.stepsSet || f.Name == "steps" })
	return o, o.validate()
}

// validate holds every flag check; an error is a usage error.
func (o options) validate() error {
	switch {
	case o.useRMA && o.useColl:
		return errors.New("halo3d: -rma and -coll are mutually exclusive")
	case o.doRecover != (o.faultSpec != ""):
		return errors.New("halo3d: -faults and -recover must be used together")
	case o.doRecover && o.ranks != 8:
		return errors.New("halo3d: -recover supports only the default 8-rank world (not -ranks)")
	case o.doRecover && (o.compare || o.tracePath != "" || o.stepsSet):
		return errors.New("halo3d: -recover runs its own exchange loop; -compare, -trace and -steps do not apply")
	case o.compare && o.tracePath != "":
		return errors.New("halo3d: -trace is not supported with -compare")
	case o.ranks < 8 || o.ranks%4 != 0:
		return fmt.Errorf("halo3d: -ranks must be >= 8 and divisible by 4 (one node is 4 GPUs), got %d", o.ranks)
	case o.n < 3:
		return fmt.Errorf("halo3d: -n must be >= 3 (a ghost cell on each side of a non-empty interior), got %d", o.n)
	case o.steps < 1:
		return fmt.Errorf("halo3d: -steps must be >= 1, got %d", o.steps)
	}
	return nil
}

// halo is one halo3d world: the session, its periodic Cartesian
// decomposition, the face geometry ([axis][side], side 0 the minus face),
// and every rank's grid and ghost grid.
type halo struct {
	sess          *dkf.Session
	cart          *dkf.CartComm
	n             int
	tr            transport
	faces         [3][2]*dkf.Layout
	grids, ghosts []*dkf.Buffer
}

// newHalo opens a session for o under the fault plan (nil for none) with
// the transport -coll and -rma select, decomposes its ranks, and fills
// every grid with a per-rank stream.
func newHalo(o options, faults *dkf.FaultPlan) (*halo, error) {
	cfg := dkf.SessionConfig{Scheme: dkf.Scheme(o.scheme), Faults: faults}
	tr := twoSided
	if o.useColl {
		tr = collective
	}
	if o.useRMA {
		tr, cfg.Backend = oneSided, dkf.BackendRMA
	}
	if o.ranks != 8 {
		spec := dkf.SystemLassen.Spec().WithNodes(o.ranks / 4)
		cfg.CustomSpec = &spec
		// Poll events scale as ranks x virtual-time/interval; the 200 ns
		// default is built for 8-rank runs.
		cfg.PollInterval = 5000
	}
	if o.lazy {
		cfg.Payload = dkf.PayloadLazy
	}
	if o.tracePath != "" {
		cfg.Trace = &dkf.TraceOptions{}
	}
	sess, err := dkf.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	nr := sess.NumRanks()
	h := &halo{sess: sess, cart: sess.CartCreate(workload.Dims3(nr), []bool{true, true, true}),
		n: o.n, tr: tr, faces: workload.HaloFaces(o.n),
		grids: make([]*dkf.Buffer, nr), ghosts: make([]*dkf.Buffer, nr)}
	for r := range h.grids {
		h.grids[r] = sess.Alloc(r, "grid", h.gridBytes())
		h.ghosts[r] = sess.Alloc(r, "ghost", h.gridBytes())
		h.grids[r].FillStream(uint64(r + 1))
	}
	return h, nil
}

func (h *halo) gridBytes() int { return h.n * h.n * h.n * 8 }

// compute is the interior compute phase between exchanges (a fixed
// virtual cost).
func (h *halo) compute(c *dkf.RankCtx) { c.Sleep(int64(h.n*h.n) * 2) }

// putWin is a rank's one-sided exchange state: a symmetric window whose
// first half holds one inbound slot per face (where peers deposit) and
// whose second half mirrors it as staging for this rank's fused pack
// kernels, plus one signal slot per face. Every rank derives the same
// layout from the same face list.
type putWin struct {
	win  *dkf.Window
	sig  *dkf.Signal
	in   []int64 // inbound offset per slot; its staging slot is at half+in
	half int64
}

// openPutWin opens window and signal name with one slot per face.
func openPutWin(c *dkf.RankCtx, name string, faces ...*dkf.Layout) (*putWin, error) {
	pw := &putWin{in: make([]int64, len(faces))}
	for i, l := range faces {
		pw.in[i] = pw.half
		pw.half += c.PackSize(l, 1)
	}
	var err error
	if pw.win, err = c.Window(name, 2*pw.half); err != nil {
		return nil, err
	}
	pw.sig, err = c.OpenSignal(name, len(faces))
	return pw, err
}

// put fuse-packs face l of src through this rank's staging slot stage
// into inbound slot dst of peer's window, ringing peer's signal for dst.
func (pw *putWin) put(c *dkf.RankCtx, peer, dst, stage int, src *dkf.Buffer, l *dkf.Layout) error {
	return c.PackPut(pw.win, peer, pw.in[dst], src, l, 1, pw.half+pw.in[stage], pw.sig, dst, 1, true)
}

// take waits for the round-th deposit into slot s of the window region
// of self (this rank's number on the window's fabric) and unpacks it as
// face l of dst.
func (pw *putWin) take(c *dkf.RankCtx, self, s int, round uint64, dst *dkf.Buffer, l *dkf.Layout) error {
	if err := c.WaitSignal(pw.sig, s, round); err != nil {
		return err
	}
	pos := pw.in[s]
	c.Unpack(pw.win.Buf(self), &pos, dst, l, 1)
	return nil
}

// slot numbers the halo window's slots in (-x,+x,-y,+y,-z,+z) order.
func slot(axis, side int) int { return 2*axis + side }

// openWindow opens rank c's "halo" window and signal.
func (h *halo) openWindow(c *dkf.RankCtx) (*putWin, error) {
	f := h.faces
	return openPutWin(c, "halo", f[0][0], f[0][1], f[1][0], f[1][1], f[2][0], f[2][1])
}

// exchange moves rank c's six faces into its neighbors' ghost grids for
// step (0-based) over h's transport; hw is the rank's window when the
// transport is oneSided. One-sided callers keep staging reuse safe: the
// timed run by its step-top barrier (nobody re-packs a slot until every
// rank has seen the previous step's signals), the recovery loop by its
// per-step Quiet.
func (h *halo) exchange(c *dkf.RankCtx, step int, hw *putWin) error {
	me := c.ID()
	grid, ghost := h.grids[me], h.ghosts[me]
	switch h.tr {
	case collective:
		return c.NeighborAlltoallw(workload.HaloOps(h.cart, me, h.faces, grid, ghost))
	case oneSided:
		// My minus face is the minus neighbor's plus ghost face and vice
		// versa (the pairing of the two-sided tags).
		for axis, f := range h.faces {
			mPeer, pPeer := h.cart.Shift(me, axis, 1)
			for side, peer := range [2]int{mPeer, pPeer} {
				if err := hw.put(c, peer, slot(axis, 1-side), slot(axis, side), grid, f[side]); err != nil {
					return err
				}
			}
		}
		for axis, f := range h.faces {
			for side, l := range f {
				if err := hw.take(c, me, slot(axis, side), uint64(step+1), ghost, l); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var reqs []*dkf.Request
	for axis, f := range h.faces {
		mPeer, pPeer := h.cart.Shift(me, axis, 1)
		// Receive the peers' opposite faces into the ghost grid.
		reqs = append(reqs,
			c.Irecv(mPeer, 10+axis, ghost, f[0], 1),
			c.Irecv(pPeer, 20+axis, ghost, f[1], 1),
			c.Isend(mPeer, 20+axis, grid, f[0], 1),
			c.Isend(pPeer, 10+axis, grid, f[1], 1),
		)
	}
	return c.Waitall(reqs)
}

// run is the timed exchange: steps barrier-bracketed exchanges, reported
// as rank 0's average step latency (returned in ns).
func run(w io.Writer, o options, quiet bool) (int64, error) {
	h, err := newHalo(o, nil)
	if err != nil {
		return 0, err
	}
	defer h.sess.Close()
	var stepNs int64
	errs := make([]error, h.sess.NumRanks())
	err = h.sess.Run(func(c *dkf.RankCtx) { errs[c.ID()] = h.timedSteps(c, o.steps, &stepNs) })
	if err = errors.Join(append(errs, err)...); err != nil {
		return 0, err
	}
	if o.lazy {
		checked, verr := h.verifySample()
		if verr != nil {
			return 0, verr
		}
		if !quiet {
			if checked == 0 {
				fmt.Fprintf(w, "halo3d: lazy mode; sampled verification skipped (all axes have extent 2 — covered by the 8-rank conformance suite)\n")
			} else {
				fmt.Fprintf(w, "halo3d: lazy mode; %d sampled faces around rank 0 verified byte-exact\n", checked)
			}
		}
	}
	avg := stepNs / int64(o.steps)
	if !quiet {
		fmt.Fprintf(w, "%-16s grid=%d^3  ranks=%d (%v)  faces=6x2  avg step latency = %.1f us (simulated)\n",
			o.scheme, o.n, h.sess.NumRanks(), h.cart.Dims(), float64(avg)/1000)
		if h.tr == oneSided {
			st := h.sess.RMAStats()
			fmt.Fprintf(w, "halo3d: one-sided exchange: %d fused pack-puts, %d doorbells, %d retransmits\n",
				st.PackPuts, st.Doorbells, st.Retransmits)
		}
	}
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return 0, err
		}
		err = h.sess.Timeline().WriteChrome(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(os.Stderr, "halo3d: wrote Chrome trace to %s (open in https://ui.perfetto.dev)\n", o.tracePath)
	}
	return avg, nil
}

// timedSteps is rank c's body of the timed run; rank 0 adds each
// barrier-to-barrier exchange time to stepNs.
func (h *halo) timedSteps(c *dkf.RankCtx, steps int, stepNs *int64) error {
	var hw *putWin
	if h.tr == oneSided {
		var err error
		if hw, err = h.openWindow(c); err != nil {
			return err
		}
	}
	for s := 0; s < steps; s++ {
		c.Barrier()
		t0 := c.Now()
		if err := h.exchange(c, s, hw); err != nil {
			return err
		}
		c.Barrier()
		if c.ID() == 0 {
			*stepNs += c.Now() - t0
		}
		h.compute(c)
	}
	if hw == nil {
		return nil
	}
	if err := c.Quiet(); err != nil {
		return err
	}
	c.Barrier()
	c.CloseSignal(hw.sig)
	return c.CloseWindow(hw.win)
}

// faceCover counts, per byte of the ghost grid, how many recv faces
// cover it. The six face regions overlap along grid edges (cell (1,1,1)
// is in x-, y-, and z-), so edge bytes hold whichever face unpacked
// last — verification only trusts bytes covered exactly once.
func faceCover(faces [3][2]*dkf.Layout, gridBytes int) []uint8 {
	cover := make([]uint8, gridBytes)
	for _, f := range faces {
		for _, l := range f {
			for _, b := range l.Blocks {
				for o := b.Offset; o < b.Offset+b.Len; o++ {
					cover[o]++
				}
			}
		}
	}
	return cover
}

// compareFace checks that the ghost-region face of dst equals the sent
// face of src, block by block (the two layouts have identical block
// structure — same subarray sizes, different start corner), skipping
// ghost bytes covered by more than one face.
func compareFace(sent, ghost *dkf.Layout, src, dst []byte, cover []uint8) error {
	for i := range ghost.Blocks {
		gb, sb := ghost.Blocks[i], sent.Blocks[i]
		for k := int64(0); k < gb.Len; k++ {
			if cover[gb.Offset+k] == 1 && dst[gb.Offset+k] != src[sb.Offset+k] {
				return fmt.Errorf("byte %d of block %d differs", k, i)
			}
		}
	}
	return nil
}

func faceName(axis, side int) string { return string("xyz"[axis]) + string("-+"[side]) }

// verifySample spot-checks a lazy run by materializing only rank 0's
// ghost grid and its six neighbors' grids, so it stays cheap at 1024
// ranks: each received face must match the opposite face the neighbor
// sent (bytes shared between faces excluded, see faceCover). It lands on
// the neighbor's side of the ghost grid, or on the collective path — legs
// match by per-peer index FIFO — on the other side, where extent-2 axes
// (one peer both ways) pair differently and are skipped. Returns how many
// faces were checked.
func (h *halo) verifySample() (int, error) {
	dims := h.cart.Dims()
	ghost0 := h.ghosts[0].Materialize()
	cover := faceCover(h.faces, len(ghost0))
	checked := 0
	for axis, f := range h.faces {
		if h.tr == collective && dims[axis] <= 2 {
			continue
		}
		mPeer, pPeer := h.cart.Shift(0, axis, 1)
		for side, from := range [2]int{mPeer, pPeer} {
			sent, gside := 1-side, side
			if h.tr == collective {
				gside = sent
			}
			if err := compareFace(f[sent], f[gside], h.grids[from].Materialize(), ghost0, cover); err != nil {
				return checked, fmt.Errorf("halo3d: lazy verification failed: rank 0 ghost face %s vs rank %d's sent face %s: %w",
					faceName(axis, gside), from, faceName(axis, sent), err)
			}
			checked++
		}
	}
	return checked, nil
}

// recovery is the per-rank record of one recovery-demo run.
type recovery struct {
	*halo
	ft        bool
	rghosts   []*dkf.Buffer // z-chain receive grids, junk-filled up front
	stepsDone []int
	stepErrs  []error
	recovered []bool
	winSums   []uint64 // one-sided: each rank's checkpointed window checksum
	winBytes  int64
}

// runRecover is the rank-failure recovery demo over the collective or,
// with useRMA, the one-sided transport. Every rank registers its grid
// (and, one-sided, its halo window) and checkpoints before the exchange
// loop; the halo then runs under the fault plan until a rank dies and
// every survivor has observed the failure as a typed error. The survivors
// Agree on the outcome, scribble their grids (standing in for a timestep
// torn by the failure), and Shrink the world — which rolls every
// survivor's registered state back to the checkpoint. The halo is then
// re-decomposed as a 1D z-chain over the dense survivor communicator; the
// driver re-verifies every chained face byte-exactly against the sender's
// restored grid, checks the rollback itself by checksum, and finally
// adopts the dead rank's snapshot onto its buddy.
func runRecover(w io.Writer, scheme string, n int, faultSpec string, lazy, useRMA bool) error {
	plan, err := dkf.ParseFaultPlan(faultSpec)
	if err != nil {
		return err
	}
	// Without -rma the demo exchanges with the collective, whose
	// self-healing revocation unblocks survivors stuck behind the dead rank.
	o := options{scheme: scheme, n: n, ranks: 8, lazy: lazy, useColl: !useRMA, useRMA: useRMA}
	h, err := newHalo(o, plan)
	if err != nil {
		return err
	}
	defer h.sess.Close()
	sess, nr := h.sess, h.sess.NumRanks()
	rc := &recovery{halo: h, ft: sess.FTEnabled(), rghosts: make([]*dkf.Buffer, nr),
		stepsDone: make([]int, nr), stepErrs: make([]error, nr), recovered: make([]bool, nr),
		winSums: make([]uint64, nr)}
	initSums := make([]uint64, nr)
	for r := range rc.rghosts {
		rc.rghosts[r] = sess.Alloc(r, "rghost", h.gridBytes())
		// Junk so the verification can only pass if recovery wrote it.
		rc.rghosts[r].FillStream(uint64(0xdead + r))
		initSums[r] = h.grids[r].Checksum()
		sess.CheckpointRegister(r, h.grids[r])
	}
	recoverErrs := make([]error, nr)
	if err := sess.Run(func(c *dkf.RankCtx) { recoverErrs[c.ID()] = rc.rank(c) }); err != nil {
		return err
	}

	crashed, survivors := sess.CrashedRanks(), sess.Survivors()
	steps := 0
	for _, s := range survivors {
		steps = max(steps, rc.stepsDone[s])
	}
	if !rc.ft || len(crashed) == 0 {
		kind := ""
		if useRMA {
			kind = " one-sided"
		}
		fmt.Fprintf(w, "halo3d: no rank failure under plan %q; %d%s steps completed\n", faultSpec, steps, kind)
		return nil
	}
	for _, s := range survivors {
		if err := rc.stepErrs[s]; err != nil && !errors.Is(err, dkf.ErrRankFailed) && !errors.Is(err, dkf.ErrCommRevoked) {
			return fmt.Errorf("halo3d: rank %d failed with an untyped error: %w", s, err)
		}
		if recoverErrs[s] != nil {
			return fmt.Errorf("halo3d: rank %d recovery failed: %w", s, recoverErrs[s])
		}
		if !rc.recovered[s] {
			return fmt.Errorf("halo3d: rank %d never completed the recovery exchange", s)
		}
	}
	chained := "exchange"
	if useRMA {
		chained = "pack-put"
		fmt.Fprintf(w, "halo3d: rank(s) %v crashed at step ~%d of the one-sided exchange; survivors observed typed failures\n",
			crashed, steps)
		fmt.Fprintf(w, "halo3d: shrunk world %d -> %d ranks; symmetric heap re-rendezvoused at fabric epoch %d\n",
			nr, len(survivors), sess.RMAEpoch())
		fmt.Fprintf(w, "halo3d: window contents restored from checkpoint epoch %d on every survivor\n",
			sess.CheckpointEpoch())
	} else {
		fmt.Fprintf(w, "halo3d: rank(s) %v crashed at step ~%d; survivors detected the failure and revoked the world\n",
			crashed, steps)
		fmt.Fprintf(w, "halo3d: shrunk world %d -> %d ranks; checkpoint epoch %d restored; halo re-decomposed as a %d-rank z-chain\n",
			nr, len(survivors), sess.CheckpointEpoch(), len(survivors))
	}
	// The scribble must be gone: every survivor's grid is back at the
	// checkpointed content.
	for _, s := range survivors {
		if h.grids[s].Checksum() != initSums[s] {
			return fmt.Errorf("halo3d: rank %d grid not rolled back to the checkpoint after Shrink", s)
		}
	}
	zm, zp := h.faces[2][0], h.faces[2][1]
	for i := 0; i+1 < len(survivors); i++ {
		a, b := survivors[i], survivors[i+1]
		if verr := dkf.VerifyBlocks(zm, 1, h.grids[a].Materialize(), rc.rghosts[b].Materialize()); verr != nil {
			return fmt.Errorf("halo3d: recovery %s %d->%d (z-) mismatch: %w", chained, a, b, verr)
		}
		if verr := dkf.VerifyBlocks(zp, 1, h.grids[b].Materialize(), rc.rghosts[a].Materialize()); verr != nil {
			return fmt.Errorf("halo3d: recovery %s %d->%d (z+) mismatch: %w", chained, b, a, verr)
		}
	}
	if useRMA && sess.RMAPendingOps() != 0 {
		return fmt.Errorf("halo3d: %d one-sided ops still pending after recovery", sess.RMAPendingOps())
	}
	if lk := sess.LeakedRequests(); lk != 0 {
		return fmt.Errorf("halo3d: %d requests leaked across the recovery", lk)
	}
	if useRMA {
		fmt.Fprintf(w, "halo3d: recovery chain byte-exact across %d survivor pairs; %d in-flight ops reaped, none pending\n",
			len(survivors)-1, sess.RMAStats().Reaped)
	} else {
		fmt.Fprintf(w, "halo3d: recovery exchange byte-exact across %d survivor pairs; no leaked requests\n",
			len(survivors)-1)
	}
	// Buddy adoption: the dead rank's checkpointed state — its grid and,
	// one-sided, its window region, in registration order — is still
	// recoverable on its buddy, byte-for-byte what it held at the capture.
	for _, d := range crashed {
		if !sess.CheckpointAvailable(d) {
			return fmt.Errorf("halo3d: dead rank %d's snapshot unavailable despite buddy placement", d)
		}
		buddy := sess.CheckpointBuddy(d)
		adopted := []*dkf.Buffer{sess.Alloc(buddy, fmt.Sprintf("adopted-%d", d), h.gridBytes())}
		what := "grid"
		if useRMA {
			adopted = append(adopted, sess.Alloc(buddy, fmt.Sprintf("adopted-win-%d", d), int(rc.winBytes)))
			what = "grid and window"
		}
		if aerr := sess.CheckpointAdopt(buddy, d, adopted...); aerr != nil {
			return fmt.Errorf("halo3d: buddy adoption of rank %d: %w", d, aerr)
		}
		if adopted[0].Checksum() != initSums[d] {
			return fmt.Errorf("halo3d: adopted grid of rank %d differs from its checkpointed content", d)
		}
		if useRMA && adopted[1].Checksum() != rc.winSums[d] {
			return fmt.Errorf("halo3d: adopted window region of rank %d differs from its checkpointed content", d)
		}
		fmt.Fprintf(w, "halo3d: rank %d's checkpointed %s adopted by buddy rank %d, checksum-exact\n", d, what, buddy)
	}
	return nil
}

// rank is rank c's body of the recovery demo; it returns the recovery
// error (the exchange loop's error is kept in stepErrs).
func (rc *recovery) rank(c *dkf.RankCtx) error {
	me := c.ID()
	var hw *putWin
	if rc.tr == oneSided {
		var err error
		if hw, err = rc.openWindow(c); err != nil {
			return err
		}
		rc.winBytes = 2 * hw.half
		// Seed the window with recognizable content and checkpoint it with
		// the grid: the restore check after the shrink passes only if the
		// rebuilt heap really got this epoch's bytes back.
		hw.win.Buf(me).FillStream(uint64(0x51c0 + me))
		rc.winSums[me] = hw.win.Buf(me).Checksum()
		if rc.ft {
			if err := c.CheckpointRegisterWindow(hw.win); err != nil {
				return err
			}
		}
	}
	if rc.ft {
		// Coordinated checkpoint of the registered state before any
		// exchange traffic; Shrink rolls survivors back to this epoch.
		c.Checkpoint()
	}
	// No per-step barrier here: ranks leave the loop at different times
	// once the failure propagates, and a rendezvous with ranks that
	// already moved on to Agree would wedge the survivors. One-sided
	// steps stay paired by the cumulative per-face signal counts.
	const horizonNs = 600_000 // crash + detection + revocation slack
	for rc.stepErrs[me] == nil && c.Now() < horizonNs && rc.stepsDone[me] < 10_000 {
		err := rc.exchange(c, rc.stepsDone[me], hw)
		if err == nil && hw != nil {
			// Drain this step's puts so the staging half is safe to
			// re-pack without the timed run's barrier.
			err = c.Quiet()
		}
		if rc.stepErrs[me] = err; err == nil {
			rc.stepsDone[me]++
			rc.compute(c)
		}
	}
	if !rc.ft {
		return nil
	}
	flag := uint64(1)
	if rc.stepErrs[me] != nil {
		flag = 0
	}
	if agreed, aerr := c.Agree(c.World(), flag); agreed == 1 && aerr == nil {
		return nil // everyone finished clean and nobody died
	}
	// The failure tore the in-flight timestep: scribble the grid so the
	// rollback check can only pass if Shrink's automatic restore really
	// rolled it back. (A window's torn region dies with the old heap; its
	// restore check is against the rebuilt region after reopen.)
	rc.grids[me].FillStream(uint64(0xbad0 + me))
	sub, err := c.Shrink(c.World())
	if err != nil {
		return err
	}
	err = rc.chain(c, sub, hw)
	rc.recovered[me] = err == nil
	return err
}

// chain re-exchanges the z faces over the survivor communicator sub as a
// 1D chain in comm-rank order: each rank's z- face lands in its right
// neighbor's z- region of rghosts, its z+ face in its left neighbor's z+
// region. Two-sided it uses Isend/Irecv with tags outside the failed
// step's range. One-sided (hw non-nil) it first reopens the halo window
// on the survivor fabric — same name, fresh heap, so the checkpoint
// registration rebinds and restores it — and checks the restore, then
// chains with fused pack-puts over a fresh window at the new fabric epoch.
func (rc *recovery) chain(c *dkf.RankCtx, sub *dkf.Comm, hw *putWin) error {
	me := c.ID()
	grid, rghost := rc.grids[me], rc.rghosts[me]
	zm, zp := rc.faces[2][0], rc.faces[2][1]
	cc := c.On(sub)
	cr, last := cc.Rank(), cc.Size()-1
	if hw == nil {
		var reqs []*dkf.Request
		if cr > 0 {
			left := sub.WorldRank(cr - 1)
			reqs = append(reqs, c.Irecv(left, 30, rghost, zm, 1), c.Isend(left, 40, grid, zp, 1))
		}
		if cr < last {
			right := sub.WorldRank(cr + 1)
			reqs = append(reqs, c.Irecv(right, 40, rghost, zp, 1), c.Isend(right, 30, grid, zm, 1))
		}
		return c.Waitall(reqs)
	}
	rwin, err := c.Window("halo", 2*hw.half)
	if err != nil {
		return err
	}
	if got := rwin.Buf(cr).Checksum(); got != rc.winSums[me] {
		return fmt.Errorf("window not restored after re-rendezvous: checksum %#x, want %#x", got, rc.winSums[me])
	}
	cw, err := openPutWin(c, "rchain", zm, zp)
	if err != nil {
		return err
	}
	if cr < last {
		if err := cw.put(c, cr+1, 0, 0, grid, zm); err != nil {
			return err
		}
	}
	if cr > 0 {
		if err := cw.put(c, cr-1, 1, 1, grid, zp); err != nil {
			return err
		}
		if err := cw.take(c, cr, 0, 1, rghost, zm); err != nil {
			return err
		}
	}
	if cr < last {
		if err := cw.take(c, cr, 1, 1, rghost, zp); err != nil {
			return err
		}
	}
	return c.Quiet()
}

// compareAll runs the scheme shoot-out and reports speedups vs GPU-Sync.
func compareAll(w io.Writer, o options) error {
	var base int64
	for _, s := range []string{"GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "Proposed-Tuned"} {
		o.scheme = s
		avg, err := run(w, o, true)
		if err != nil {
			return err
		}
		if base == 0 {
			base = avg
		}
		fmt.Fprintf(w, "%-16s avg step = %8.1f us   speedup vs GPU-Sync = %.2fx\n",
			s, float64(avg)/1000, float64(base)/float64(avg))
	}
	return nil
}

// execute runs the mode o selects, writing its report to w.
func execute(w io.Writer, o options) error {
	switch {
	case o.doRecover:
		return runRecover(w, o.scheme, o.n, o.faultSpec, o.lazy, o.useRMA)
	case o.compare:
		return compareAll(w, o)
	}
	_, err := run(w, o, false)
	return err
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := execute(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
