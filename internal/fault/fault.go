// Package fault is a deterministic, seeded fault injector for the simulated
// cluster. A Plan declares per-layer fault probabilities (link drops,
// duplication, corruption, extra delay, degradation windows, flaps; NIC verb
// post errors; transient fused-launch failures); an Injector turns a Plan
// into per-site pseudo-random streams and a global fault-event log.
//
// Determinism contract: every draw site (one link direction, the NIC verb
// path, one GPU's launch path) owns an independent splitmix64 stream seeded
// from (Plan.Seed, site name). Draws at one site therefore depend only on
// the sequence of prior draws at that same site, never on cross-site
// interleaving, so a run with a given (seed, plan) injects byte-identical
// faults every time — the property the chaos conformance suite asserts.
//
// A nil *Plan (or a plan whose probabilities are all zero) injects nothing;
// the lower layers keep their fault-free fast paths when no Site is
// installed, preserving the byte-identical golden traces of fault-free runs.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind labels one fault or recovery event.
type Kind uint8

const (
	// Drop: a fabric message was discarded in flight.
	Drop Kind = iota
	// Duplicate: a fabric message was delivered twice.
	Duplicate
	// Corrupt: a payload was delivered with flipped bytes.
	Corrupt
	// Delay: a message was held back beyond the link's natural latency.
	Delay
	// Degrade: a link entered a reduced-bandwidth window.
	Degrade
	// Flap: a link went down transiently; traffic queues until it returns.
	Flap
	// NICError: an ibv-style verb post failed transiently.
	NICError
	// LaunchFail: a fused kernel launch failed transiently.
	LaunchFail
	// Timeout: a reliability-layer retransmission timer fired.
	Timeout
	// Retransmit: a message or RDMA transfer was re-issued.
	Retransmit
	// Fallback: the fusion scheduler degraded a batch to unfused launches.
	Fallback
	// GiveUp: bounded retries were exhausted and a typed error surfaced.
	GiveUp
	// RankCrash: a simulated process died at a planned virtual time.
	RankCrash
	// Detect: the heartbeat failure detector declared a silent rank dead.
	Detect
	// Revoke: a communicator was revoked (ULFM MPI_Comm_revoke analogue).
	Revoke
	// Shrink: survivors built a dense re-ranked communicator.
	Shrink
	// Agree: survivors completed a fault-tolerant agreement.
	Agree
	// Reap: an in-flight one-sided op involving a dead rank was completed
	// early with a typed failure instead of being left pending.
	Reap
	// Reseat: the one-sided fabric re-rendezvoused onto a survivor
	// communicator (fresh epoch, rebuilt symmetric heap).
	Reseat

	numKinds
)

var kindNames = [numKinds]string{
	"drop", "dup", "corrupt", "delay", "degrade", "flap",
	"nic-error", "launch-fail", "timeout", "retransmit", "fallback", "give-up",
	"rank-crash", "detect", "revoke", "shrink", "agree", "reap", "reseat",
}

func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// LinkPlan holds per-transfer fault probabilities for every fabric link.
// All probabilities are independent per message and clamped to [0,1] by
// Validate. The zero value injects nothing.
type LinkPlan struct {
	DropProb    float64 // message vanishes in flight
	DupProb     float64 // message delivered twice
	CorruptProb float64 // payload delivered with a flipped byte
	DelayProb   float64 // extra delivery delay, uniform in [1, DelayMaxNs]
	DegradeProb float64 // link bandwidth divided by DegradeFactor for DegradeNs
	FlapProb    float64 // link down for FlapDownNs; traffic queues behind it

	DelayMaxNs    int64   // default 20µs
	DegradeNs     int64   // default 50µs
	DegradeFactor float64 // default 8
	FlapDownNs    int64   // default 100µs
}

// NICPlan holds NIC verb-layer fault probabilities.
type NICPlan struct {
	PostErrorProb float64 // ibv_post_send-style transient failure
}

// GPUPlan holds GPU-side fault probabilities.
type GPUPlan struct {
	LaunchFailProb float64 // transient fused-launch failure
}

// RMAPlan holds one-sided (put/get) fault probabilities, rolled at the
// issuing endpoint's site ("rma:rankN"). They model HCA-side loss on the
// one-sided deposit path: a dropped put vanishes before the wire, a
// corrupted one is rejected by the target's CRC without touching the
// window, a delayed one is held back at the target, and a lost signal
// places the payload but drops the completion flag — each recovered by
// the endpoint's retransmission timer. The zero value injects nothing.
type RMAPlan struct {
	DropProb       float64 // one-sided deposit vanishes in flight
	CorruptProb    float64 // deposit rejected by target CRC (never placed)
	DelayProb      float64 // extra placement delay, uniform in [1, DelayMaxNs]
	SignalLossProb float64 // payload placed but the signal update is lost

	DelayMaxNs int64 // default 20µs
}

// Crash schedules the death of one simulated rank at a virtual time. Unlike
// the probabilistic classes, crashes are planned events: the same plan kills
// the same rank at the same instant in every run.
type Crash struct {
	Rank int   // world rank to kill
	AtNs int64 // virtual time of death
}

// ProcPlan holds process-level (whole-rank) fault events.
type ProcPlan struct {
	Crashes []Crash
}

// Plan is a complete fault-injection configuration. The zero value (or a
// nil pointer) disables injection entirely.
type Plan struct {
	// Seed keys every per-site random stream. Two runs with the same
	// (Seed, Plan) inject identical faults.
	Seed uint64
	Link LinkPlan
	NIC  NICPlan
	GPU  GPUPlan
	RMA  RMAPlan
	Proc ProcPlan
}

// probs lists every probability field for validation and Enabled.
func (p *Plan) probs() []float64 {
	return []float64{
		p.Link.DropProb, p.Link.DupProb, p.Link.CorruptProb,
		p.Link.DelayProb, p.Link.DegradeProb, p.Link.FlapProb,
		p.NIC.PostErrorProb, p.GPU.LaunchFailProb,
		p.RMA.DropProb, p.RMA.CorruptProb, p.RMA.DelayProb, p.RMA.SignalLossProb,
	}
}

// Validate reports an error for out-of-range probabilities or negative
// durations/factors.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, v := range p.probs() {
		if v < 0 || v > 1 {
			return fmt.Errorf("fault: probability %g outside [0,1]", v)
		}
	}
	if p.Link.DelayMaxNs < 0 || p.Link.DegradeNs < 0 || p.Link.FlapDownNs < 0 || p.RMA.DelayMaxNs < 0 {
		return fmt.Errorf("fault: negative fault duration")
	}
	if p.Link.DegradeFactor < 0 || (p.Link.DegradeFactor > 0 && p.Link.DegradeFactor < 1) {
		return fmt.Errorf("fault: DegradeFactor must be >= 1 (got %g)", p.Link.DegradeFactor)
	}
	for _, c := range p.Proc.Crashes {
		if c.Rank < 0 {
			return fmt.Errorf("fault: crash rank %d is negative", c.Rank)
		}
		if c.AtNs < 0 {
			return fmt.Errorf("fault: crash time %dns is negative", c.AtNs)
		}
	}
	return nil
}

// HasCrashes reports whether the plan kills any rank. Crash plans are not
// delivery-recoverable: survivors see typed failures instead of byte-exact
// delivery, so recoverable-chaos sweeps must treat them separately.
func (p *Plan) HasCrashes() bool {
	return p != nil && len(p.Proc.Crashes) > 0
}

// normalized returns a copy with duration/factor defaults filled in.
func (p *Plan) normalized() *Plan {
	c := *p
	if c.Link.DelayMaxNs == 0 {
		c.Link.DelayMaxNs = 20_000
	}
	if c.Link.DegradeNs == 0 {
		c.Link.DegradeNs = 50_000
	}
	if c.Link.DegradeFactor == 0 {
		c.Link.DegradeFactor = 8
	}
	if c.Link.FlapDownNs == 0 {
		c.Link.FlapDownNs = 100_000
	}
	if c.RMA.DelayMaxNs == 0 {
		c.RMA.DelayMaxNs = 20_000
	}
	return &c
}

// Event is one injected fault or recovery action, in virtual time.
type Event struct {
	At     int64  // virtual ns
	Site   string // draw site, e.g. "link:IB[0->1]", "nic", "gpu:rank2"
	Kind   Kind
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%dns %s %s %s", e.At, e.Site, e.Kind, e.Detail)
}

// Injector owns the per-site streams and the fault log for one simulated
// world. Not safe for concurrent use; the simulation is single-threaded.
type Injector struct {
	plan   *Plan
	clock  func() int64
	sites  map[string]*Site
	events []Event
	counts [numKinds]int64
	hook   func(Event)
}

// NewInjector validates plan and builds an injector whose event timestamps
// come from clock (normally env.Now). A nil plan yields a nil injector.
func NewInjector(plan *Plan, clock func() int64) (*Injector, error) {
	if plan == nil {
		return nil, nil
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan.normalized(), clock: clock, sites: make(map[string]*Site)}, nil
}

// Plan returns the normalized plan (defaults filled in).
func (i *Injector) Plan() *Plan { return i.plan }

// Site returns the named draw site, creating it on first use. The site's
// stream is keyed by (Plan.Seed, name) only.
func (i *Injector) Site(name string) *Site {
	if i == nil {
		return nil
	}
	if s, ok := i.sites[name]; ok {
		return s
	}
	s := &Site{inj: i, name: name, state: i.plan.Seed ^ fnv64a(name)}
	s.next() // decorrelate similar seeds
	i.sites[name] = s
	return s
}

// SetHook installs a callback invoked on every recorded event (for
// mirroring into the timeline). Nil removes it.
func (i *Injector) SetHook(fn func(Event)) {
	if i != nil {
		i.hook = fn
	}
}

// Events returns the fault log in injection order.
func (i *Injector) Events() []Event {
	if i == nil {
		return nil
	}
	return i.events
}

// Count reports how many events of kind k were recorded.
func (i *Injector) Count(k Kind) int64 {
	if i == nil || k >= numKinds {
		return 0
	}
	return i.counts[k]
}

// Total reports the total recorded event count.
func (i *Injector) Total() int64 {
	if i == nil {
		return 0
	}
	return int64(len(i.events))
}

// Counts renders the non-zero per-kind tallies, e.g. "drop=3 retransmit=3".
func (i *Injector) Counts() string {
	if i == nil {
		return "(no faults)"
	}
	var parts []string
	for k, n := range i.counts {
		if n != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", Kind(k), n))
		}
	}
	if len(parts) == 0 {
		return "(no faults)"
	}
	return strings.Join(parts, " ")
}

func (i *Injector) record(e Event) {
	i.events = append(i.events, e)
	i.counts[e.Kind]++
	if i.hook != nil {
		i.hook(e)
	}
}

// Site is one independent draw stream plus a recording handle.
type Site struct {
	inj   *Injector
	name  string
	state uint64
}

// Plan returns the owning injector's normalized plan. Nil-safe (nil plan).
func (s *Site) Plan() *Plan {
	if s == nil {
		return nil
	}
	return s.inj.plan
}

// next advances the splitmix64 stream.
func (s *Site) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Roll draws once and reports whether an event with probability prob fires.
// Degenerate probabilities (<=0, >=1) consume no draw, so a plan that
// leaves a fault class disabled does not perturb the stream consumed by the
// classes it enables.
func (s *Site) Roll(prob float64) bool {
	if s == nil || prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return float64(s.next()>>11)/(1<<53) < prob
}

// Int63n draws a uniform integer in [0, n). n <= 0 returns 0 without a draw.
func (s *Site) Int63n(n int64) int64 {
	if s == nil || n <= 0 {
		return 0
	}
	return int64(s.next() % uint64(n))
}

// Record logs one event at the current virtual time.
func (s *Site) Record(k Kind, detail string) {
	if s == nil {
		return
	}
	s.inj.record(Event{At: s.inj.clock(), Site: s.name, Kind: k, Detail: detail})
}

// Recordf logs one event with a formatted detail string.
func (s *Site) Recordf(k Kind, format string, args ...any) {
	if s == nil {
		return
	}
	s.Record(k, fmt.Sprintf(format, args...))
}

// fnv64a hashes a site name (FNV-1a).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// PresetNames lists the named fault plans of the chaos test table.
func PresetNames() []string {
	return []string{"drop-heavy", "corrupt-heavy", "flappy-link", "kernel-failure", "mixed", "flaky-ib", "degraded-link", "rank-crash", "rma-flaky"}
}

// Preset builds one of the named chaos plans with the given seed.
func Preset(name string, seed uint64) (*Plan, error) {
	p := &Plan{Seed: seed}
	switch name {
	case "drop-heavy":
		p.Link.DropProb = 0.12
		p.Link.DupProb = 0.02
	case "corrupt-heavy":
		p.Link.CorruptProb = 0.12
		p.Link.DropProb = 0.02
	case "flappy-link":
		p.Link.FlapProb = 0.05
		p.Link.DegradeProb = 0.10
		p.Link.DelayProb = 0.20
	case "kernel-failure":
		p.GPU.LaunchFailProb = 0.35
	case "mixed":
		p.Link.DropProb = 0.04
		p.Link.DupProb = 0.02
		p.Link.CorruptProb = 0.04
		p.Link.DelayProb = 0.08
		p.Link.DegradeProb = 0.03
		p.Link.FlapProb = 0.01
		p.NIC.PostErrorProb = 0.05
		p.GPU.LaunchFailProb = 0.10
	case "flaky-ib":
		// A lossy but recoverable inter-node fabric: occasional drops,
		// duplicate deliveries, and jittered delays — the collective
		// chaos-conformance profile.
		p.Link.DropProb = 0.05
		p.Link.DupProb = 0.03
		p.Link.DelayProb = 0.15
	case "degraded-link":
		// Bandwidth brownouts dominate: long stretches of degraded link
		// speed with rare flaps, no loss — stresses latency modeling and
		// retransmit timers rather than recovery.
		p.Link.DegradeProb = 0.25
		p.Link.DelayProb = 0.10
		p.Link.FlapProb = 0.01
	case "rma-flaky":
		// A lossy one-sided fabric: puts vanish, arrive late, get CRC-
		// rejected, or land without their signal — the RMA chaos-
		// conformance profile. All recovery runs through the endpoint's
		// retransmission timers, never the two-sided ack path.
		p.RMA.DropProb = 0.06
		p.RMA.CorruptProb = 0.03
		p.RMA.DelayProb = 0.15
		p.RMA.SignalLossProb = 0.05
	case "rank-crash":
		// Kill one mid-world rank at a deterministic virtual time. The
		// victim and instant vary with the seed so a seed sweep exercises
		// different ranks dying at different points of the schedule.
		p.Proc.Crashes = []Crash{{Rank: 1 + int(seed%3), AtNs: 18_000 + int64(seed%4)*9_000}}
	default:
		return nil, fmt.Errorf("fault: unknown preset %q (have %s)", name, strings.Join(PresetNames(), ", "))
	}
	return p, nil
}

// ParsePlan parses a CLI fault-plan spec: either a preset name or a
// comma-separated key=value list, with the two freely mixed — later keys
// override. Keys: seed, drop, dup, corrupt, delay, degrade, flap, nic,
// launchfail, rmadrop, rmacorrupt, rmadelay, siglost (probabilities),
// delaymax, degradens, flapdown, rmadelaymax (ns), degradefactor,
// crash=RANK@TIMENS (repeatable; each adds one planned rank death).
//
//	"drop-heavy"
//	"drop-heavy,seed=7"
//	"drop=0.05,corrupt=0.02,seed=42"
//	"crash=2@20000,seed=3"
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{Seed: 1}
	// Seed-dependent presets (rank-crash places its victim by seed) must see
	// the final seed regardless of key order, so resolve seed= up front.
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if v, ok := strings.CutPrefix(part, "seed="); ok {
			n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			p.Seed = n
		}
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "=") {
			pr, err := Preset(part, p.Seed)
			if err != nil {
				return nil, err
			}
			seed := p.Seed
			*p = *pr
			p.Seed = seed
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", val, err)
			}
			p.Seed = n
		case "crash":
			at := strings.SplitN(val, "@", 2)
			if len(at) != 2 {
				return nil, fmt.Errorf("fault: bad crash spec %q (want RANK@TIMENS)", val)
			}
			rank, err := strconv.Atoi(strings.TrimSpace(at[0]))
			if err != nil {
				return nil, fmt.Errorf("fault: bad crash rank %q: %v", at[0], err)
			}
			t, err := strconv.ParseInt(strings.TrimSpace(at[1]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad crash time %q: %v", at[1], err)
			}
			p.Proc.Crashes = append(p.Proc.Crashes, Crash{Rank: rank, AtNs: t})
		case "delaymax", "degradens", "flapdown", "rmadelaymax":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad %s %q: %v", key, val, err)
			}
			switch key {
			case "delaymax":
				p.Link.DelayMaxNs = n
			case "degradens":
				p.Link.DegradeNs = n
			case "flapdown":
				p.Link.FlapDownNs = n
			case "rmadelaymax":
				p.RMA.DelayMaxNs = n
			}
		default:
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad value %q for %s: %v", val, key, err)
			}
			switch key {
			case "drop":
				p.Link.DropProb = f
			case "dup":
				p.Link.DupProb = f
			case "corrupt":
				p.Link.CorruptProb = f
			case "delay":
				p.Link.DelayProb = f
			case "degrade":
				p.Link.DegradeProb = f
			case "flap":
				p.Link.FlapProb = f
			case "degradefactor":
				p.Link.DegradeFactor = f
			case "nic":
				p.NIC.PostErrorProb = f
			case "launchfail":
				p.GPU.LaunchFailProb = f
			case "rmadrop":
				p.RMA.DropProb = f
			case "rmacorrupt":
				p.RMA.CorruptProb = f
			case "rmadelay":
				p.RMA.DelayProb = f
			case "siglost":
				p.RMA.SignalLossProb = f
			default:
				return nil, fmt.Errorf("fault: unknown plan key %q", key)
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
