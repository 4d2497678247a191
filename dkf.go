// Package dkf is the public API of the Dynamic Kernel Fusion library — a
// pure-Go reproduction of "Dynamic Kernel Fusion for Bulk Non-contiguous
// Data Transfer on GPU Clusters" (Chu et al., IEEE CLUSTER 2020).
//
// The library simulates a GPU cluster (devices with realistic kernel-launch
// overhead, NVLink/PCIe/InfiniBand fabric) on a deterministic virtual
// clock, runs a CUDA-aware-MPI-style runtime on it, and implements the
// paper's kernel-fusion framework alongside every baseline scheme the
// paper compares against. Data movement is real — packing and unpacking
// shuffle actual bytes — while time is virtual, so results are exactly
// reproducible.
//
// Quick start:
//
//	sess, _ := dkf.NewSession(dkf.SessionConfig{System: dkf.SystemLassen, Scheme: "Proposed-Tuned"})
//	l := dkf.Commit(dkf.Vector(64, 128, 256, dkf.Float64))
//	err := sess.Run(func(c *dkf.RankCtx) {
//	    ... c.Isend / c.Irecv / c.Waitall ...
//	})
package dkf

import (
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/datatype"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/layoutcache"
	"repro/internal/mpi"
	"repro/internal/rma"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/trace"
	"repro/internal/workload"
)

// --- datatypes ---

// Type is an uncommitted MPI-style derived datatype.
type Type = datatype.Type

// Layout is a committed (flattened) datatype.
type Layout = datatype.Layout

// Block is one contiguous span of a flattened layout.
type Block = datatype.Block

// Predefined primitive datatypes.
var (
	Byte       = datatype.Byte
	Char       = datatype.Char
	Int32      = datatype.Int32
	Int64      = datatype.Int64
	Float32    = datatype.Float32
	Float64    = datatype.Float64
	Complex64  = datatype.Complex64
	Complex128 = datatype.Complex128
)

// Contiguous is MPI_Type_contiguous.
func Contiguous(count int, base Type) Type { return datatype.Contiguous(count, base) }

// Vector is MPI_Type_vector.
func Vector(count, blocklen, stride int, base Type) Type {
	return datatype.Vector(count, blocklen, stride, base)
}

// Hvector is MPI_Type_create_hvector.
func Hvector(count, blocklen int, strideBytes int64, base Type) Type {
	return datatype.Hvector(count, blocklen, strideBytes, base)
}

// Indexed is MPI_Type_indexed.
func Indexed(blocklens, displs []int, base Type) Type {
	return datatype.Indexed(blocklens, displs, base)
}

// Hindexed is MPI_Type_create_hindexed.
func Hindexed(blocklens []int, displsBytes []int64, base Type) Type {
	return datatype.Hindexed(blocklens, displsBytes, base)
}

// IndexedBlock is MPI_Type_create_indexed_block.
func IndexedBlock(blocklen int, displs []int, base Type) Type {
	return datatype.IndexedBlock(blocklen, displs, base)
}

// Struct is MPI_Type_create_struct.
func Struct(blocklens []int, displsBytes []int64, types []Type) Type {
	return datatype.Struct(blocklens, displsBytes, types)
}

// Subarray is MPI_Type_create_subarray (row-major).
func Subarray(sizes, subsizes, starts []int, base Type) Type {
	return datatype.Subarray(sizes, subsizes, starts, base)
}

// Commit flattens a datatype (MPI_Type_commit). It panics on malformed
// constructor input (negative counts, mismatched slice lengths,
// out-of-range subarray bounds); use CommitE to handle those as errors.
// Constructors themselves never panic — invalid shapes surface at commit,
// mirroring the Alloc/AllocE convention.
func Commit(t Type) *Layout { return datatype.Commit(t) }

// CommitE is Commit returning a typed error instead of panicking: a
// *InvalidTypeError (unwrapping to ErrInvalidType) naming the offending
// constructor and the reason.
func CommitE(t Type) (*Layout, error) { return datatype.CommitE(t) }

// InvalidTypeError describes malformed constructor input, surfaced by
// CommitE; it unwraps to ErrInvalidType for errors.Is checks.
type InvalidTypeError = datatype.InvalidTypeError

// ErrInvalidType is the sentinel wrapped by every *InvalidTypeError.
var ErrInvalidType = datatype.ErrInvalidType

// Equivalent reports whether two datatype spellings commit to the same
// canonical form — the same pack sequence at the same extent — and would
// therefore share one layout-cache entry and compiled pack plan. Layouts
// expose the identity directly via Layout.Canonical() (the signature
// string) and Layout.CanonicalForm() (the stride-run form).
func Equivalent(a, b Type) bool { return datatype.Equivalent(a, b) }

// --- systems ---

// System selects one of the modeled machines.
type System int

const (
	// SystemLassen is LLNL Lassen: POWER9 + V100 + NVLink2 + 2x IB EDR.
	SystemLassen System = iota
	// SystemABCI is AIST ABCI: Xeon + V100 + PCIe Gen3 + IB EDR.
	SystemABCI
)

// Spec returns the underlying cluster parameter set for customization.
func (s System) Spec() cluster.Spec {
	if s == SystemABCI {
		return cluster.ABCI()
	}
	return cluster.Lassen()
}

func (s System) String() string { return s.Spec().Name }

// --- session ---

// Buffer is a simulated device or host memory buffer; Data is real memory.
type Buffer = gpu.Buffer

// Request is a non-blocking communication handle.
type Request = mpi.Request

// Breakdown is the per-category cost taxonomy of Fig. 11.
type Breakdown = trace.Breakdown

// Wildcards for Irecv.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// Scheme identifies a DDT-processing scheme. It is string-backed, so the
// paper-legend names keep working verbatim; prefer the typed constants below.
type Scheme string

// Typed scheme constants, matching SchemeNames() one to one.
const (
	// SchemeGPUSync launches one kernel per operation and synchronizes.
	SchemeGPUSync Scheme = "GPU-Sync"
	// SchemeGPUAsync polls CUDA events instead of synchronizing.
	SchemeGPUAsync Scheme = "GPU-Async"
	// SchemeCPUGPUHybrid packs small dense layouts on the CPU (GDRCopy).
	SchemeCPUGPUHybrid Scheme = "CPU-GPU-Hybrid"
	// SchemeNaiveMemcpy issues one cudaMemcpyAsync per contiguous block.
	SchemeNaiveMemcpy Scheme = "NaiveMemcpy"
	// SchemeStagedHost stages packed data through host memory.
	SchemeStagedHost Scheme = "StagedHost"
	// SchemeProposed is dynamic kernel fusion with the untuned threshold.
	SchemeProposed Scheme = "Proposed"
	// SchemeProposedTuned is the paper's tuned fusion configuration.
	SchemeProposedTuned Scheme = "Proposed-Tuned"
	// SchemeProposedAuto seeds the threshold from the cost model and
	// adapts it online.
	SchemeProposedAuto Scheme = "Proposed-Auto"
)

// Production-library aliases (Fig. 14 legends); they resolve to the
// baseline scheme that models the library's datatype path.
const (
	SchemeMVAPICH2GDR Scheme = "MVAPICH2-GDR" // -> CPU-GPU-Hybrid
	SchemeSpectrumMPI Scheme = "SpectrumMPI"  // -> NaiveMemcpy
	SchemeOpenMPI     Scheme = "OpenMPI"      // -> NaiveMemcpy
)

// validSchemes lists every accepted Scheme value: the canonical names in
// SchemeNames() order plus the production-library aliases.
func validSchemes() []string {
	return append(schemes.Names(), string(SchemeMVAPICH2GDR), string(SchemeSpectrumMPI), string(SchemeOpenMPI))
}

// --- fault injection & reliability ---

// FaultPlan configures deterministic seeded fault injection
// (SessionConfig.Faults). Zero-valued fields disable the corresponding
// fault class; see FaultPreset and ParseFaultPlan for ready-made plans.
type FaultPlan = fault.Plan

// FaultEvent is one recorded injected-fault or recovery event
// (Session.FaultEvents).
type FaultEvent = fault.Event

// FaultPreset returns a named built-in fault plan (see FaultPresetNames;
// e.g. "drop-heavy", "flaky-ib", "kernel-failure", "mixed", "rank-crash")
// seeded for deterministic replay.
func FaultPreset(name string, seed uint64) (*FaultPlan, error) { return fault.Preset(name, seed) }

// FaultPresetNames lists the built-in fault-plan preset names.
func FaultPresetNames() []string { return fault.PresetNames() }

// ParseFaultPlan parses a CLI-style fault spec such as
// "seed=7,drop=0.02,corrupt=0.01,delay=0.05,delayns=2000" or
// "preset=mixed,seed=3".
func ParseFaultPlan(spec string) (*FaultPlan, error) { return fault.ParsePlan(spec) }

// StallError is the watchdog's deadlock diagnosis; Session.Run returns one
// (wrapped) when no request completes for SessionConfig.StallTimeout.
type StallError = sim.StallError

// OpError is the typed terminal error of a failed request, returned from
// Wait/Waitall when a fault plan is active. Inspect the cause with
// errors.Is against the sentinels below.
type OpError = mpi.OpError

// Typed failure sentinels carried inside *OpError.
var (
	// ErrRetriesExhausted: bounded retransmission gave up on a message.
	ErrRetriesExhausted = mpi.ErrRetriesExhausted
	// ErrPeerAborted: the matching request on the peer rank failed first.
	ErrPeerAborted = mpi.ErrPeerAborted
	// ErrTruncate: a matched message exceeded the posted receive.
	ErrTruncate = mpi.ErrTruncate
)

// --- rank-failure tolerance (ULFM-style) ---

// HeartbeatConfig tunes the rank-failure detector (SessionConfig.Heartbeat):
// IntervalNs is the detector tick period (default 25 µs) and TimeoutNs is
// how long a rank may stay silent before being declared dead (default
// 150 µs). Zero values select the defaults when a crash plan activates the
// detector; setting TimeoutNs > 0 activates it even without planned crashes.
type HeartbeatConfig = mpi.HeartbeatConfig

// RankFailedError is the typed error attached to every operation involving
// a rank the failure detector declared dead (it unwraps to ErrRankFailed).
type RankFailedError = mpi.RankFailedError

// Typed rank-failure sentinels for errors.Is.
var (
	// ErrRankFailed: a peer rank was declared dead by the failure detector.
	ErrRankFailed = mpi.ErrRankFailed
	// ErrCommRevoked: the communicator was revoked (ULFM MPI_ERR_REVOKED).
	ErrCommRevoked = mpi.ErrCommRevoked
)

// Comm is a communicator: an ordered set of world ranks with ULFM-style
// Revoke/Shrink/Agree recovery (driven through the RankCtx methods of the
// same names). Session.Run bodies start from RankCtx.World and recover from
// rank failures by agreeing on the error, shrinking to the survivors, and
// retrying collectives on the shrunken communicator via RankCtx.On.
type Comm = mpi.Comm

// TraceOptions configures timeline recording (SessionConfig.Trace).
type TraceOptions = timeline.Options

// Timeline is the per-rank event timeline of a traced session.
type Timeline = timeline.Timeline

// TimelineCollector merges timelines from several sessions/worlds into one
// Chrome trace.
type TimelineCollector = timeline.Collector

// SessionConfig configures a simulated cluster session.
type SessionConfig struct {
	// System picks the machine model (default Lassen). CustomSpec, if
	// non-nil, overrides it entirely.
	System     System
	CustomSpec *cluster.Spec
	// Scheme selects the DDT-processing scheme (default
	// SchemeProposedTuned). Use the typed Scheme constants; raw strings
	// such as "GPU-Sync" still convert and are accepted for backward
	// compatibility, but that path is deprecated — new code should write
	// dkf.SchemeGPUSync.
	Scheme Scheme
	// FusionThreshold overrides the fused-kernel flush threshold in
	// bytes (0 = scheme default). Only SchemeProposed and
	// SchemeProposedTuned take one; NewSession rejects it for any other
	// scheme.
	FusionThreshold int64
	// PipelineChunk enables chunked rendezvous for non-contiguous RGET
	// sends larger than this many bytes (0 = whole-message rendezvous).
	PipelineChunk int64
	// Trace, when non-nil, enables per-rank event-timeline recording;
	// retrieve the result with Session.Timeline after Run. The default
	// (nil) keeps the communication hot paths allocation-free.
	Trace *TraceOptions
	// Faults, when non-nil, injects deterministic faults (drops,
	// corruption, delays, link flaps, NIC post errors, kernel-launch
	// failures) and activates the MPI reliability layer: checksummed,
	// acked transport with timeout/backoff retransmission and typed
	// request errors from Wait/Waitall. Build plans with FaultPreset or
	// ParseFaultPlan. The default (nil) keeps every fault-free fast path
	// byte-identical.
	Faults *FaultPlan
	// Heartbeat tunes the rank-failure detector. The zero value selects
	// the defaults (25 µs interval, 150 µs timeout) when Faults schedules
	// rank crashes; setting Heartbeat.TimeoutNs > 0 activates the detector
	// even without planned crashes, enabling Revoke/Shrink/Agree. Keep the
	// timeout well under StallTimeout so detection beats the watchdog.
	Heartbeat HeartbeatConfig
	// StallTimeout bounds, in virtual nanoseconds, how long the
	// simulation may run without any request completing before the
	// watchdog declares a deadlock (Session.Run returns a *StallError).
	// Zero selects the 100 ms default; negative disables the watchdog.
	StallTimeout int64
	// Coll overrides the collective-engine selection policy (per-
	// collective algorithms, size/topology thresholds, fusion-window
	// ablation). The zero value selects the full Auto policy.
	Coll CollTuning
	// Payload selects the payload representation. PayloadExact (default)
	// carries real bytes everywhere — the reference semantics every other
	// mode is verified against. PayloadLazy carries buffers at or above
	// LazyThreshold as a seed+span+checksum algebra instead, making copy
	// costs independent of message size; timings, traces, and checksums
	// are identical to the exact run by construction. Composes with
	// Faults: the reliability layer checksums lazy payloads through the
	// same composable FNV-1a algebra and models in-flight corruption as a
	// deterministic span splice, so chaos runs scale to lazy-mode world
	// sizes.
	Payload PayloadMode
	// LazyThreshold is the minimum allocation size, in bytes, carried
	// lazily under PayloadLazy (0 = 4 KiB default). Smaller buffers stay
	// byte-exact, so header-style metadata keeps working untouched.
	LazyThreshold int64
	// PollInterval overrides, in virtual nanoseconds, the progress-engine
	// polling period (0 = 200 ns default). Large-scale runs raise it: poll
	// events scale as ranks x virtual-time/interval, and at 1024 ranks the
	// default generates billions of events.
	PollInterval int64
	// Backend selects the default communication backend for the
	// collective engine. BackendP2P (default) keeps the two-sided
	// eager/rendezvous schedules; BackendRMA builds the one-sided fabric
	// up front and defaults Allgatherv/Alltoallw to the put-based
	// one-sided ring (explicit CollTuning overrides still win). The
	// RankCtx one-sided verbs (Window/Put/Get/Quiet/...) work under
	// either backend — the choice only moves the collective default.
	Backend Backend
}

// Backend selects the communication backend for the collective engine
// (see SessionConfig.Backend).
type Backend int

const (
	// BackendP2P schedules collectives over two-sided send/recv (default).
	BackendP2P Backend = iota
	// BackendRMA schedules collectives over one-sided puts into
	// symmetric windows with signal-based sync — no rendezvous
	// round-trips, no target-side progress.
	BackendRMA
)

// ParseBackend resolves a backend name ("p2p" or "rma").
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "p2p":
		return BackendP2P, nil
	case "rma":
		return BackendRMA, nil
	}
	return BackendP2P, fmt.Errorf("dkf: unknown backend %q (valid: p2p, rma)", s)
}

func (b Backend) String() string {
	if b == BackendRMA {
		return "rma"
	}
	return "p2p"
}

// PayloadMode selects how message payloads are represented (see
// SessionConfig.Payload).
type PayloadMode int

const (
	// PayloadExact carries real bytes end to end (default).
	PayloadExact PayloadMode = iota
	// PayloadLazy carries large buffers as a lazy span algebra.
	PayloadLazy
)

// DefaultLazyThreshold is the allocation size, in bytes, above which
// PayloadLazy carries buffers lazily when LazyThreshold is unset.
const DefaultLazyThreshold = 4096

// ConfigError is the typed error NewSession returns for an invalid
// SessionConfig. Option names the offending field (dotted for nested
// fields, e.g. "Heartbeat.TimeoutNs"); Reason says what is wrong with it.
type ConfigError struct {
	Option string
	Reason string
}

func (e *ConfigError) Error() string {
	return "dkf: invalid SessionConfig." + e.Option + ": " + e.Reason
}

func cfgErr(option, format string, args ...any) *ConfigError {
	return &ConfigError{Option: option, Reason: fmt.Sprintf(format, args...)}
}

// validate rejects configurations that would misbehave downstream. Only
// genuinely unsupported combinations are refused; every rejection is a
// *ConfigError naming the offending option.
func (cfg *SessionConfig) validate() error {
	if cfg.FusionThreshold < 0 {
		return cfgErr("FusionThreshold", "negative FusionThreshold %d", cfg.FusionThreshold)
	}
	if cfg.PipelineChunk < 0 {
		return cfgErr("PipelineChunk", "negative PipelineChunk %d", cfg.PipelineChunk)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return cfgErr("Faults", "%v", err)
		}
	}
	if cfg.Heartbeat.IntervalNs < 0 {
		return cfgErr("Heartbeat.IntervalNs", "negative Heartbeat.IntervalNs %d", cfg.Heartbeat.IntervalNs)
	}
	if cfg.Heartbeat.TimeoutNs < 0 {
		return cfgErr("Heartbeat.TimeoutNs", "negative Heartbeat.TimeoutNs %d", cfg.Heartbeat.TimeoutNs)
	}
	if cfg.Heartbeat.TimeoutNs > 0 && cfg.Faults == nil {
		return cfgErr("Heartbeat.TimeoutNs", "Heartbeat requires a fault plan (set Faults; an empty plan enables the reliability layer)")
	}
	if cfg.CustomSpec == nil {
		if cfg.System < SystemLassen || cfg.System > SystemABCI {
			return cfgErr("System", "unknown System %d (valid: SystemLassen, SystemABCI)", int(cfg.System))
		}
	} else {
		if cfg.CustomSpec.Nodes < 1 {
			return cfgErr("CustomSpec", "CustomSpec needs at least one node, got %d", cfg.CustomSpec.Nodes)
		}
		if cfg.CustomSpec.GPUsPerNode < 1 {
			return cfgErr("CustomSpec", "CustomSpec needs at least one GPU per node, got %d", cfg.CustomSpec.GPUsPerNode)
		}
	}
	if cfg.Payload != PayloadExact && cfg.Payload != PayloadLazy {
		return cfgErr("Payload", "unknown PayloadMode %d (valid: PayloadExact, PayloadLazy)", int(cfg.Payload))
	}
	if cfg.LazyThreshold < 0 {
		return cfgErr("LazyThreshold", "negative LazyThreshold %d", cfg.LazyThreshold)
	}
	if cfg.LazyThreshold > 0 && cfg.Payload != PayloadLazy {
		return cfgErr("LazyThreshold", "LazyThreshold requires Payload: PayloadLazy")
	}
	if cfg.PollInterval < 0 {
		return cfgErr("PollInterval", "negative PollInterval %d", cfg.PollInterval)
	}
	if cfg.Backend != BackendP2P && cfg.Backend != BackendRMA {
		return cfgErr("Backend", "unknown Backend %d (valid: BackendP2P, BackendRMA)", int(cfg.Backend))
	}
	known := false
	for _, n := range validSchemes() {
		if n == string(cfg.Scheme) {
			known = true
			break
		}
	}
	if !known {
		return cfgErr("Scheme", "unknown scheme %q (valid: %s)",
			cfg.Scheme, strings.Join(validSchemes(), ", "))
	}
	return nil
}

// Session is a simulated cluster plus MPI world, ready to Run rank bodies.
type Session struct {
	cfg      SessionConfig
	env      *sim.Env
	cluster  *cluster.Cluster
	world    *mpi.World
	coll     *coll.Engine
	subs     map[*mpi.Comm]*coll.Engine
	rma      *rma.Fabric // lazily built; shared with the collective engine
	ckpt     *ckpt.Store
	ckptWins map[ckptWinKey]*gpu.Buffer // checkpoint-registered window regions (CheckpointRegisterWindow)
	closed   bool
}

// ckptWinKey identifies one rank's checkpoint-registered window region by
// window name — stable across re-rendezvous, unlike the backing buffer.
type ckptWinKey struct {
	rank int
	name string
}

// rmaFabric returns the session's one-sided fabric, building it (and
// pointing the collective engine at it) on first use — user verbs and
// the put-based collectives share one symmetric heap.
func (s *Session) rmaFabric() *rma.Fabric {
	if s.rma == nil {
		s.rma = rma.New(s.world)
		s.coll.UseRMA(s.rma)
	}
	return s.rma
}

// NewSession builds the cluster and world. It returns a descriptive error
// for any invalid configuration: unknown scheme (the message lists the valid
// names), out-of-range System, negative tuning knobs, a FusionThreshold for
// a scheme that takes none, or a degenerate CustomSpec.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Scheme == "" {
		cfg.Scheme = SchemeProposedTuned
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	factory, err := schemes.ThresholdFactory(string(cfg.Scheme), cfg.FusionThreshold)
	if err != nil {
		return nil, cfgErr("FusionThreshold", "%v", err)
	}
	spec := cfg.System.Spec()
	if cfg.CustomSpec != nil {
		spec = *cfg.CustomSpec
	}
	env := sim.NewEnv()
	cl, err := cluster.Build(env, spec)
	if err != nil {
		return nil, fmt.Errorf("dkf: %w", err)
	}
	if cfg.Payload == PayloadLazy {
		th := cfg.LazyThreshold
		if th == 0 {
			th = DefaultLazyThreshold
		}
		for _, node := range cl.Devices {
			for _, d := range node {
				d.LazyThreshold = th
			}
		}
	}
	mcfg := mpi.DefaultConfig()
	if cfg.PollInterval > 0 {
		mcfg.PollIntervalNs = cfg.PollInterval
	}
	mcfg.PipelineChunkBytes = cfg.PipelineChunk
	mcfg.Timeline = cfg.Trace
	mcfg.Faults = cfg.Faults
	mcfg.Heartbeat = cfg.Heartbeat
	mcfg.StallTimeoutNs = cfg.StallTimeout
	world := mpi.NewWorld(cl, mcfg, factory)
	ctun := cfg.Coll
	if cfg.Backend == BackendRMA {
		// The RMA backend's defaults: put-based schedules wherever a
		// one-sided algorithm exists, unless explicitly overridden.
		if ctun.Allgatherv == coll.Auto {
			ctun.Allgatherv = coll.OneSidedRing
		}
		if ctun.Alltoallw == coll.Auto {
			ctun.Alltoallw = coll.OneSidedRing
		}
	}
	s := &Session{
		cfg:      cfg,
		env:      env,
		cluster:  cl,
		world:    world,
		coll:     coll.New(world, ctun),
		ckpt:     ckpt.NewStore(world.Size()),
		ckptWins: make(map[ckptWinKey]*gpu.Buffer),
	}
	if cfg.Backend == BackendRMA {
		s.rmaFabric() // build the fabric up front, shared with the engine
	}
	return s, nil
}

// NumRanks reports the number of ranks (one per GPU).
func (s *Session) NumRanks() int { return s.world.Size() }

// LiveProcs reports how many simulation processes are still unfinished —
// zero after a clean Run, making it a scheduler-side leak oracle alongside
// LeakedRequests and PendingFusedJobs.
func (s *Session) LiveProcs() int { return s.env.LiveProcs() }

// Alloc allocates a device buffer on rank r's GPU before Run starts. It
// panics — naming the rank and buffer — on a non-positive size or a
// duplicate name; use AllocE to handle those as errors.
func (s *Session) Alloc(r int, name string, bytes int) *Buffer {
	b, err := s.AllocE(r, name, bytes)
	if err != nil {
		panic(err.Error())
	}
	return b
}

// AllocE is Alloc returning an error instead of panicking.
func (s *Session) AllocE(r int, name string, bytes int) (*Buffer, error) {
	if s.closed {
		return nil, fmt.Errorf("dkf: Alloc %q on closed session", name)
	}
	if bytes <= 0 {
		return nil, fmt.Errorf("dkf: rank %d: non-positive allocation of %d bytes for buffer %q", r, bytes, name)
	}
	b, err := s.world.Rank(r).Dev.AllocE(name, bytes)
	if err != nil {
		return nil, fmt.Errorf("dkf: rank %d: %w", r, err)
	}
	return b, nil
}

// TraceOf returns rank r's accumulated cost breakdown.
func (s *Session) TraceOf(r int) *Breakdown { return s.world.Rank(r).Trace }

// Timeline returns the session's event timeline, or nil when the session
// was built without SessionConfig.Trace.
func (s *Session) Timeline() *Timeline { return s.world.Timeline() }

// DeviceStats returns rank r's GPU activity counters.
func (s *Session) DeviceStats(r int) gpu.Stats { return s.world.Rank(r).Dev.Stats }

// PlanStats summarizes canonical layout-cache behavior across all ranks:
// hits/misses of the canonical-keyed caches plus plan compilations by
// kind. A hot cache shows a high hit count and a compile count no larger
// than the number of distinct (canonical form, count) pairs — equivalent
// datatype spellings never recompile.
type PlanStats struct {
	// Hits/Misses aggregate the per-rank canonical caches over every
	// lookup, point-to-point and collective alike. A miss creates an
	// entry and compiles its plan, so Misses == TotalCompiled().
	Hits   int64
	Misses int64
	// Compiled counts compiled pack plans by specialization:
	// "empty", "contig", "strided", "gather".
	Compiled map[string]int64
}

// TotalCompiled sums plan compilations across kinds.
func (ps PlanStats) TotalCompiled() int64 {
	var n int64
	for _, c := range ps.Compiled {
		n += c
	}
	return n
}

// PlanStats aggregates canonical-cache and pack-plan counters across all
// ranks of the session.
func (s *Session) PlanStats() PlanStats {
	var agg layoutcache.Stats
	for r := 0; r < s.world.Size(); r++ {
		agg.Add(s.world.Rank(r).CacheStats())
	}
	ps := PlanStats{
		Hits:     agg.Hits,
		Misses:   agg.Misses,
		Compiled: make(map[string]int64, len(agg.Compiled)),
	}
	for k, n := range agg.Compiled {
		if n != 0 {
			ps.Compiled[datatype.PlanKind(k).String()] = n
		}
	}
	return ps
}

// FaultEvents returns the chronological injected-fault/recovery event log
// (nil when the session was built without SessionConfig.Faults).
func (s *Session) FaultEvents() []FaultEvent { return s.world.FaultEvents() }

// LeakedRequests counts requests still registered in-flight after Run — a
// recovery-path leak detector; a clean run reports zero.
func (s *Session) LeakedRequests() int { return s.world.LeakedRequests() }

// FTEnabled reports whether rank-failure tolerance is active (the session
// was built with a crash plan or an explicit Heartbeat timeout).
func (s *Session) FTEnabled() bool { return s.world.FTEnabled() }

// Survivors lists the ranks that never crashed, sorted (every rank when
// failure tolerance is off).
func (s *Session) Survivors() []int { return s.world.Survivors() }

// FailedRanks lists the ranks the failure detector declared dead, sorted.
func (s *Session) FailedRanks() []int { return s.world.FailedRanks() }

// CrashedRanks lists the ranks whose processes were killed — ground truth,
// a superset of FailedRanks until detection catches up — sorted.
func (s *Session) CrashedRanks() []int { return s.world.CrashedRanks() }

// --- checkpoint/restore (internal/ckpt) ---

// CheckpointRegister adds bufs to rank r's recoverable state in the
// session's epoch-consistent checkpoint store. Register everything a rank
// needs to roll back BEFORE the first Checkpoint; registration order is
// restore order. Snapshots are cheap span clones in lazy payload mode and
// byte copies in exact mode.
func (s *Session) CheckpointRegister(r int, bufs ...*Buffer) {
	s.ckpt.Register(r, bufs...)
}

// CheckpointRegisterWindow adds this rank's region of window w to its
// recoverable state. Unlike CheckpointRegister, the registration tracks
// the window by name: after a Shrink re-rendezvous invalidates the
// window, reopening it under the same name rebinds the registration to
// the fresh region and automatically rolls the contents back to the last
// committed checkpoint epoch — symmetric-heap state gets the same
// restore-on-Shrink story as plain registered buffers, in exact and lazy
// payload modes alike.
func (c *RankCtx) CheckpointRegisterWindow(w *Window) error {
	s := c.sess
	me := c.fabricSelf()
	if me < 0 {
		return fmt.Errorf("dkf: rank %d is not a member of the fabric epoch", c.ID())
	}
	b := w.Buf(me)
	if b == nil {
		return fmt.Errorf("dkf: window %q not attached on rank %d", w.Name(), c.ID())
	}
	w.Retain() // a later Restore may write into the region
	key := ckptWinKey{rank: c.ID(), name: w.Name()}
	switch old := s.ckptWins[key]; {
	case old == nil:
		s.ckpt.Register(c.ID(), b)
	case old != b:
		s.ckpt.Rebind(c.ID(), old, b)
	}
	s.ckptWins[key] = b
	return nil
}

// maybeRestoreWindow completes the re-rendezvous recovery path: when a
// reopened window is checkpoint-registered and its backing region
// changed (the heap was rebuilt), rebind the registration and roll the
// fresh region back to the last committed epoch, charging the restore
// memcpy to the simulated clock.
func (c *RankCtx) maybeRestoreWindow(w *Window) {
	s := c.sess
	key := ckptWinKey{rank: c.ID(), name: w.Name()}
	old := s.ckptWins[key]
	if old == nil {
		return
	}
	me := c.fabricSelf()
	if me < 0 {
		return
	}
	nb := w.Buf(me)
	if nb == nil || nb == old {
		return
	}
	s.ckpt.Rebind(c.ID(), old, nb)
	s.ckptWins[key] = nb
	s.syncCkptDead()
	if n, err := s.ckpt.RestoreBuffer(c.ID(), nb); err == nil {
		c.chargeCkpt("restore-window", n)
	}
}

// syncCkptDead mirrors crashed ranks into the checkpoint store so quorums
// shrink and buddy availability reflects reality.
func (s *Session) syncCkptDead() {
	for _, r := range s.world.CrashedRanks() {
		s.ckpt.MarkDead(r)
	}
}

// Checkpoint takes a driver-side coordinated checkpoint of every live
// registered rank (no virtual time passes — use RankCtx.Checkpoint inside
// Run to charge the simulated machine). It returns the committed epoch
// sequence number, or 0 when nothing is registered.
func (s *Session) Checkpoint() int {
	s.syncCkptDead()
	e := s.ckpt.CaptureAll(s.env.Now(), s.world.WorldComm().Epoch())
	if e == nil {
		return 0
	}
	return e.Seq
}

// Restore rolls every live registered rank back to the latest committed
// checkpoint epoch (driver-side, no virtual time). It fails if no epoch
// has committed or a rank's snapshot was lost (rank and buddy both dead).
func (s *Session) Restore() error {
	s.syncCkptDead()
	var firstErr error
	restored := 0
	for r := 0; r < s.world.Size(); r++ {
		if s.world.IsCrashed(r) || s.ckpt.Registered(r) == 0 {
			continue
		}
		if _, _, err := s.ckpt.RestoreRank(r); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		restored++
	}
	if firstErr != nil {
		return fmt.Errorf("dkf: Restore: %w", firstErr)
	}
	if restored == 0 {
		return fmt.Errorf("dkf: Restore: no committed checkpoint epoch")
	}
	return nil
}

// CheckpointEpoch reports the latest committed checkpoint epoch sequence
// number (0 before the first commit).
func (s *Session) CheckpointEpoch() int {
	if e := s.ckpt.Latest(); e != nil {
		return e.Seq
	}
	return 0
}

// CheckpointBuddy is the rank mirroring r's snapshots: r's state stays
// recoverable after r crashes for as long as the buddy survives.
func (s *Session) CheckpointBuddy(r int) int { return s.ckpt.Buddy(r) }

// CheckpointAvailable reports whether rank r's latest snapshot is
// recoverable under the buddy-placement model.
func (s *Session) CheckpointAvailable(r int) bool {
	s.syncCkptDead()
	return s.ckpt.Available(r)
}

// CheckpointAdopt copies dead rank's latest snapshot into the supplied
// buffers (matching count, sizes, and payload modes). Only dead's buddy
// holds the mirror, so adopter must be CheckpointBuddy(dead).
func (s *Session) CheckpointAdopt(adopter, dead int, into ...*Buffer) error {
	s.syncCkptDead()
	_, err := s.ckpt.AdoptRank(adopter, dead, into)
	return err
}

// engineFor resolves the collective engine scoped to cm, deriving and
// caching a sub-engine per shrunken communicator (the simulation scheduler
// serializes rank bodies, so the map needs no lock).
func (s *Session) engineFor(cm *Comm) *coll.Engine {
	if cm == nil || cm.IsWorld() {
		return s.coll
	}
	if e, ok := s.subs[cm]; ok {
		return e
	}
	if s.subs == nil {
		s.subs = make(map[*mpi.Comm]*coll.Engine)
	}
	e := s.coll.Sub(cm)
	s.subs[cm] = e
	return e
}

// Close releases every device buffer the session allocated and empties
// the devices' staging pools, so long-lived callers don't hold the arenas
// alive. Further Run/Alloc calls fail; Close is idempotent. Traces,
// timelines, and device stats stay readable after Close.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	for _, node := range s.cluster.Devices {
		for _, d := range node {
			d.Close()
		}
	}
	return nil
}

// Run executes body once per rank (each on its own simulated CPU thread)
// and drives the simulation until all ranks finish. A deadlock in the
// communication pattern surfaces as an error naming the stuck ranks.
func (s *Session) Run(body func(c *RankCtx)) error {
	if s.closed {
		return fmt.Errorf("dkf: Run on closed session")
	}
	return s.world.Run(func(r *mpi.Rank, p *sim.Proc) {
		body(&RankCtx{rank: r, proc: p, sess: s})
	})
}

// RankCtx is the per-rank execution context inside Session.Run: the MPI
// rank plus its simulated CPU thread.
type RankCtx struct {
	rank *mpi.Rank
	proc *sim.Proc
	sess *Session
}

// ID returns this rank's number.
func (c *RankCtx) ID() int { return c.rank.ID() }

// Node returns this rank's node index.
func (c *RankCtx) Node() int { return c.rank.Node() }

// NumRanks reports the world size.
func (c *RankCtx) NumRanks() int { return c.sess.world.Size() }

// Now returns the current virtual time in nanoseconds.
func (c *RankCtx) Now() int64 { return c.proc.Now() }

// Sleep advances this rank's virtual time (compute phases).
func (c *RankCtx) Sleep(ns int64) { c.proc.Sleep(ns) }

// Alloc allocates a device buffer on this rank's GPU. It panics — naming
// the rank and buffer — on a non-positive size or a duplicate name; use
// AllocE to handle those as errors.
func (c *RankCtx) Alloc(name string, bytes int) *Buffer {
	b, err := c.AllocE(name, bytes)
	if err != nil {
		panic(err.Error())
	}
	return b
}

// AllocE is Alloc returning an error instead of panicking.
func (c *RankCtx) AllocE(name string, bytes int) (*Buffer, error) {
	return c.sess.AllocE(c.ID(), name, bytes)
}

// Isend posts a non-blocking send of count elements of layout l.
func (c *RankCtx) Isend(dest, tag int, buf *Buffer, l *Layout, count int) *Request {
	return c.rank.Isend(c.proc, dest, tag, buf, l, count)
}

// Irecv posts a non-blocking receive.
func (c *RankCtx) Irecv(src, tag int, buf *Buffer, l *Layout, count int) *Request {
	return c.rank.Irecv(c.proc, src, tag, buf, l, count)
}

// Wait blocks until the request settles and returns its terminal error:
// nil on success, a *OpError when a fault plan exhausted recovery.
func (c *RankCtx) Wait(q *Request) error { return c.rank.Wait(c.proc, q) }

// Waitall blocks until all requests settle (flushing fused work first) and
// returns the joined errors of any failed ones (nil when all succeeded).
func (c *RankCtx) Waitall(qs []*Request) error { return c.rank.Waitall(c.proc, qs) }

// Test advances the progress engine once and reports completion.
func (c *RankCtx) Test(q *Request) bool { return c.rank.Test(c.proc, q) }

// Barrier synchronizes all ranks.
func (c *RankCtx) Barrier() { c.sess.world.Barrier(c.proc) }

// SchemeName reports the DDT scheme processing this rank's datatypes.
func (c *RankCtx) SchemeName() string { return c.rank.SchemeName() }

// --- workloads & experiments ---

// Workload is one of the paper's application-kernel layout families.
type Workload = workload.Workload

// Workloads returns the paper's four workloads (specfem3D_oc,
// specfem3D_cm, MILC, NAS_MG).
func Workloads() []Workload { return workload.All() }

// WorkloadByName looks a workload up by its paper legend name.
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// FillPattern deterministically fills a buffer for verification with PRF
// stream seed: the bytes a lazy-bytes buffer filled from seed holds.
func FillPattern(data []byte, seed uint64) { workload.FillPattern(data, seed) }

// VerifyBlocks checks that the layout-covered bytes of got match want.
func VerifyBlocks(l *Layout, count int, want, got []byte) error {
	return workload.VerifyBlocks(l, count, want, got)
}

// ExperimentTable is a rendered experiment result.
type ExperimentTable = bench.Table

// RunFigure regenerates one experiment table by id: the paper's figures
// ("1", "8", "9", "10", "11", "12", "13", "14"), its other evaluation
// tables ("approaches", "table1"), the design ablations and extensions
// ("ablations", "extended", "scaling"), and the repository's subsystem
// experiments ("coll", "scale", "chaos-scale", "rma"). Figures lists them.
func RunFigure(id string) ([]*ExperimentTable, error) { return bench.Run(id) }

// Figures lists every id RunFigure accepts, in ddtbench -fig all order.
func Figures() []string { return bench.Figures() }

// SchemeNames lists the available scheme names, matching the typed Scheme
// constants one to one (aliases like "MVAPICH2-GDR" are additionally
// accepted by NewSession but not listed here).
func SchemeNames() []string { return schemes.Names() }

// Schemes lists the typed scheme constants in SchemeNames() order.
func Schemes() []Scheme {
	names := schemes.Names()
	out := make([]Scheme, len(names))
	for i, n := range names {
		out[i] = Scheme(n)
	}
	return out
}

// Resized is MPI_Type_create_resized (lb = 0): overrides the extent.
func Resized(base Type, extent int64) Type { return datatype.Resized(base, extent) }

// --- explicit pack/unpack (Algorithm 1 of the paper) ---

// PackSize is MPI_Pack_size for count elements of l.
func (c *RankCtx) PackSize(l *Layout, count int) int64 { return c.rank.PackSize(l, count) }

// Pack is blocking MPI_Pack: it gathers count elements of l from inbuf
// into outbuf at *position, advancing *position.
func (c *RankCtx) Pack(inbuf *Buffer, l *Layout, count int, outbuf *Buffer, position *int64) {
	c.rank.Pack(c.proc, inbuf, l, count, outbuf, position)
}

// Unpack is blocking MPI_Unpack: the inverse of Pack.
func (c *RankCtx) Unpack(inbuf *Buffer, position *int64, outbuf *Buffer, l *Layout, count int) {
	c.rank.Unpack(c.proc, inbuf, position, outbuf, l, count)
}

// --- collectives & topology ---

// CollTagBase is the first tag of the reserved collective range: every tag
// in [CollTagBase, ∞) belongs to the runtime's collective machinery, and
// user Isend/Irecv with such a tag fails immediately with a *TagError.
const CollTagBase = mpi.CollTagBase

// TagError is the typed error returned (via Wait/Waitall) for a user
// send/receive posted with a tag inside the reserved collective range.
type TagError = mpi.TagError

// ErrTagReserved matches any *TagError via errors.Is.
var ErrTagReserved = mpi.ErrTagReserved

// CollTuning overrides the collective engine's algorithm selection; see
// the field docs in internal/coll. The zero value is full Auto.
type CollTuning = coll.Tuning

// CollAlgorithm names a collective schedule.
type CollAlgorithm = coll.Algorithm

// Collective algorithm constants for CollTuning overrides.
const (
	CollAuto              = coll.Auto
	CollLinear            = coll.Linear
	CollPairwise          = coll.Pairwise
	CollRing              = coll.Ring
	CollBruck             = coll.Bruck
	CollRecursiveDoubling = coll.RecursiveDoubling
	CollHierarchical      = coll.Hierarchical
	CollOneSidedRing      = coll.OneSidedRing
	CollOneSidedBruck     = coll.OneSidedBruck
)

// ParseCollAlgorithm resolves an algorithm name ("auto", "linear",
// "pairwise", "ring", "bruck", "recursive-doubling", "hierarchical",
// "onesided-ring", "onesided-bruck").
func ParseCollAlgorithm(s string) (CollAlgorithm, error) { return coll.ParseAlgorithm(s) }

// WOp is one peer's slot of an Alltoallw: per-peer send/recv buffers,
// layouts (displacements folded in as bytes), and counts.
type WOp = coll.WOp

// VOp is one buffer slot of a v-collective (Allgatherv/Gatherv/Scatterv).
type VOp = coll.VOp

// Bcast broadcasts count elements of l from root's buf (binomial tree).
// Errors from the underlying transfers are returned; under a crash plan a
// dead root fails every survivor with an error matching ErrRankFailed.
func (c *RankCtx) Bcast(root int, buf *Buffer, l *Layout, count int) error {
	return c.sess.coll.Bcast(c.proc, c.rank, root, buf, l, count)
}

// AllreduceSumF64 sums n float64 values element-wise across all ranks.
// Any world size is supported (non-power-of-two sizes run the
// binary-blocks fallback); errors from the underlying transfers or an
// undersized buffer are returned.
func (c *RankCtx) AllreduceSumF64(buf *Buffer, n int) error {
	return c.sess.coll.AllreduceSumF64(c.proc, c.rank, buf, n)
}

// Alltoallw runs a DDT-aware personalized all-to-all: ops[i] is the leg
// pair with rank i, len(ops) == NumRanks on every rank. The collective
// engine fuses each schedule phase's packs and unpacks into single kernel
// launches; override the algorithm with SessionConfig.Coll.
func (c *RankCtx) Alltoallw(ops []WOp) error {
	return c.sess.coll.Alltoallw(c.proc, c.rank, ops)
}

// Allgatherv gathers every rank's contribution to every rank; the full
// recvs vector must be passed on every rank (SPMD full-args).
func (c *RankCtx) Allgatherv(send VOp, recvs []VOp) error {
	return c.sess.coll.Allgatherv(c.proc, c.rank, send, recvs)
}

// Gatherv collects every rank's contribution at root; the full recvs
// vector must be passed on every rank (SPMD full-args).
func (c *RankCtx) Gatherv(root int, send VOp, recvs []VOp) error {
	return c.sess.coll.Gatherv(c.proc, c.rank, root, send, recvs)
}

// Scatterv distributes per-rank slots from root; the full sends vector
// must be passed on every rank (SPMD full-args).
func (c *RankCtx) Scatterv(root int, sends []VOp, recv VOp) error {
	return c.sess.coll.Scatterv(c.proc, c.rank, root, sends, recv)
}

// NeighborOp is one leg of a neighborhood exchange
// (MPI_Neighbor_alltoallw style).
type NeighborOp = mpi.NeighborOp

// NeighborAlltoallw exchanges per-neighbor datatyped legs as ONE fused
// phase: every leg's pack in a single kernel launch, every arrival's
// unpack/IPC scatter in another. Legs keep their topology order (index-
// FIFO matching for repeated peers).
func (c *RankCtx) NeighborAlltoallw(ops []NeighborOp) error {
	return c.sess.coll.NeighborAlltoallw(c.proc, c.rank, ops)
}

// --- one-sided RMA (symmetric windows, put/get/signal) ---

// Window is a symmetric-heap window: a named allocation mirrored across
// every rank, offset-addressable by one-sided verbs.
type Window = rma.Window

// Signal is a slotted remote-completion flag array bumped by
// PutSignal/PackPut deposits; see WaitSignal.
type Signal = rma.Signal

// RMAStats counts one-sided activity (puts, gets, doorbells,
// retransmits, bytes) across the session's fabric.
type RMAStats = rma.Stats

// RMAOpError wraps a failed one-sided operation, surfaced by Quiet.
type RMAOpError = rma.OpError

// RMARevokedError reports a one-sided access on a revoked (or
// reseated-away) fabric epoch; it matches errors.Is(err, ErrCommRevoked).
type RMARevokedError = rma.RevokedError

// ErrRMARetriesExhausted matches (via errors.Is) a one-sided op whose
// bounded retransmissions all failed.
var ErrRMARetriesExhausted = rma.ErrRetriesExhausted

// RMAStats aggregates one-sided counters across all ranks; zero when no
// one-sided verb or collective has run.
func (s *Session) RMAStats() RMAStats {
	if s.rma == nil {
		return RMAStats{}
	}
	return s.rma.TotalStats()
}

// RMAPendingOps sums incomplete one-sided operations across every
// endpoint. Zero after every rank's Quiet has drained; nonzero after a
// recovery means reaping leaked an in-flight op.
func (s *Session) RMAPendingOps() int {
	if s.rma == nil {
		return 0
	}
	return s.rma.PendingOps()
}

// RMAEpoch is the fabric's re-rendezvous epoch: 0 until the first Shrink
// reseats the symmetric heap onto a survivor communicator.
func (s *Session) RMAEpoch() int {
	if s.rma == nil {
		return 0
	}
	return s.rma.Epoch()
}

// fabricSelf is this rank's member index in the fabric's current epoch —
// identical to the world rank until a Shrink re-rendezvous densely
// re-ranks the survivors (-1 when this rank is not a member).
func (c *RankCtx) fabricSelf() int { return c.sess.rmaFabric().MemberOf(c.rank.ID()) }

// Window opens (SPMD rendezvous) a named symmetric window of size bytes
// on every fabric member; all members must call with the same name and
// size, and balance it with CloseWindow. Window rank indices and verb
// targets are fabric member indices (== world ranks until a Shrink
// re-rendezvous). Reopening a checkpoint-registered window after a
// re-rendezvous automatically rebinds the registration to the fresh
// region and rolls its contents back to the last committed epoch.
func (c *RankCtx) Window(name string, size int64) (*Window, error) {
	w, err := c.sess.rmaFabric().OpenWindow(c.fabricSelf(), name, size)
	if err != nil {
		return nil, err
	}
	c.maybeRestoreWindow(w)
	return w, nil
}

// WindowSized opens a dynamic window whose size differs per rank; the
// offsets of a peer's regions must be learned out of band (e.g. through
// a Signal exchange), as they are not symmetric. Auto-restore on reopen
// works as for Window.
func (c *RankCtx) WindowSized(name string, localSize int64) (*Window, error) {
	w, err := c.sess.rmaFabric().OpenWindowSized(c.fabricSelf(), name, localSize)
	if err != nil {
		return nil, err
	}
	c.maybeRestoreWindow(w)
	return w, nil
}

// CloseWindow balances one Window/WindowSized open; the last close
// releases the heap space.
func (c *RankCtx) CloseWindow(w *Window) error { return c.sess.rmaFabric().CloseWindow(w) }

// OpenSignal opens (SPMD rendezvous) a named signal with the given slot
// count; balance with CloseSignal.
func (c *RankCtx) OpenSignal(name string, slots int) (*Signal, error) {
	return c.sess.rmaFabric().OpenSignal(name, slots)
}

// CloseSignal balances one OpenSignal.
func (c *RankCtx) CloseSignal(s *Signal) { c.sess.rmaFabric().CloseSignal(s) }

// Put deposits n bytes from src[srcOff:] into target's window region at
// dstOff — one-sided, no target CPU involvement. Completion is local:
// Quiet drains all outstanding puts.
func (c *RankCtx) Put(w *Window, target int, dstOff int64, src *Buffer, srcOff, n int64) error {
	return c.sess.rmaFabric().Endpoint(c.rank.ID()).Put(c.proc, w, target, dstOff, src, srcOff, n)
}

// PutSignal is Put plus a remote signal bump after the payload lands:
// sig[target][slot] += add, payload-before-signal ordering guaranteed.
func (c *RankCtx) PutSignal(w *Window, target int, dstOff int64, src *Buffer, srcOff, n int64, sig *Signal, slot int, add uint64) error {
	return c.sess.rmaFabric().Endpoint(c.rank.ID()).PutSignal(c.proc, w, target, dstOff, src, srcOff, n, sig, slot, add)
}

// Get reads n bytes from target's window region at srcOff into the
// local dst[dstOff:] (RDMA read; completion via Quiet).
func (c *RankCtx) Get(w *Window, target int, srcOff int64, dst *Buffer, dstOff, n int64) error {
	return c.sess.rmaFabric().Endpoint(c.rank.ID()).Get(c.proc, w, target, srcOff, dst, dstOff, n)
}

// PackPut packs count elements of layout l from origin into this rank's
// own region of w at packOff, then deposits the packed bytes at
// target's dstOff, optionally bumping sig[target][slot] by add. Fused,
// one kernel launch triggers the wire leg at retirement (GPU-initiated
// communication); unfused, the CPU synchronizes the pack stream first.
func (c *RankCtx) PackPut(w *Window, target int, dstOff int64, origin *Buffer, l *Layout, count int, packOff int64, sig *Signal, slot int, add uint64, fused bool) error {
	return c.sess.rmaFabric().Endpoint(c.rank.ID()).PackPut(c.proc, w, target, dstOff, origin, l, count, packOff, sig, slot, add, fused)
}

// WaitSignal blocks until sig's slot on this rank reaches atLeast. The
// wait observes rank failures and epoch revocation on the virtual clock
// — a crashed peer surfaces as a *RankFailedError and a revoked fabric
// as a *RMARevokedError instead of a stall — and honors the session's
// StallTimeout: a signal that can never arrive unwinds with a typed
// *StallError on this rank rather than wedging the scheduler.
func (c *RankCtx) WaitSignal(sig *Signal, slot int, atLeast uint64) error {
	return c.sess.rmaFabric().Endpoint(c.rank.ID()).WaitSignal(c.proc, sig, slot, atLeast)
}

// Quiet blocks until every one-sided op this rank issued has completed,
// returning (and clearing) the first failure.
func (c *RankCtx) Quiet() error {
	return c.sess.rmaFabric().Endpoint(c.rank.ID()).Quiet(c.proc)
}

// Fence orders this rank's prior puts before subsequent ones at every
// target (modeled conservatively as full remote completion).
func (c *RankCtx) Fence() error {
	return c.sess.rmaFabric().Endpoint(c.rank.ID()).Fence(c.proc)
}

// --- rank-failure recovery (ULFM verbs) ---

// World returns the world communicator (every rank, epoch 0) — the
// starting point of the Revoke/Shrink/Agree recovery sequence.
func (c *RankCtx) World() *Comm { return c.sess.world.WorldComm() }

// Revoke marks cm revoked at this rank and floods the revocation in-band
// to every other member, failing their pending operations on the comm fast
// with ErrCommRevoked (ULFM MPI_Comm_revoke). The collectives revoke
// automatically when they observe a member death, so explicit calls are
// only needed for application-level aborts.
func (c *RankCtx) Revoke(cm *Comm) { cm.Revoke(c.proc, c.rank) }

// Shrink is the ULFM MPI_Comm_shrink analogue: a rendezvous of cm's live
// members returning a dense re-ranked communicator of the survivors at a
// fresh epoch. Members that die mid-rendezvous are excluded when the
// detector declares them, so Shrink completes within the heartbeat bound.
//
// When a committed checkpoint epoch covers this rank, Shrink additionally
// rolls the rank's registered buffers back to it (automatic
// restore-on-Shrink), charging the restore memcpy to the simulated clock.
// When the session has a one-sided fabric, Shrink also re-rendezvouses it
// onto the survivor communicator (dense re-rank, fresh epoch, rebuilt
// symmetric heap) — reopen windows afterwards; checkpoint-registered
// windows auto-restore on reopen, extending restore-on-Shrink to
// symmetric-heap state.
func (c *RankCtx) Shrink(cm *Comm) (*Comm, error) {
	sub, err := cm.Shrink(c.proc, c.rank)
	if err != nil || sub == nil {
		return sub, err
	}
	c.sess.syncCkptDead()
	st := c.sess.ckpt
	if st.Latest() != nil && st.Registered(c.ID()) > 0 {
		if n, _, rerr := st.RestoreRank(c.ID()); rerr == nil {
			c.chargeCkpt("restore", n)
		}
	}
	if f := c.sess.rma; f != nil {
		if rerr := f.Reseat(c.proc, c.rank, sub); rerr != nil {
			return sub, rerr
		}
	}
	return sub, nil
}

// chargeCkpt bills a checkpoint/restore memcpy of n logical bytes to the
// simulated machine at device-memory bandwidth under trace.Recovery. The
// charge is by logical size in BOTH payload modes — the machine copies the
// bytes even when the host-side representation is a span clone — so lazy
// and exact runs stay clock-identical.
func (c *RankCtx) chargeCkpt(what string, n int64) {
	d := int64(float64(n) / c.rank.Dev.Arch.MemBWBytesPerNs)
	if d <= 0 {
		return
	}
	t0 := c.proc.Now()
	c.rank.Trace.Add(trace.Recovery, d)
	c.proc.Sleep(d)
	if tl := c.sess.world.Timeline(); tl != nil {
		tl.Rank(c.ID()).Span(timeline.LayerFault, trace.Recovery, "", "ckpt-"+what, t0, d)
	}
}

// Checkpoint contributes this rank's registered buffers to the open
// coordinated checkpoint epoch (opening one if needed) and reports whether
// this contribution committed it — true on the last live registered rank.
// The snapshot memcpy is charged to the simulated clock (trace.Recovery).
// Call from every live rank at a consistent point (e.g. after a Barrier or
// a completed collective) to get an epoch no rank can tear.
func (c *RankCtx) Checkpoint() bool {
	s := c.sess
	s.syncCkptDead()
	c.chargeCkpt("capture", s.ckpt.RegisteredBytes(c.ID()))
	_, committed := s.ckpt.CaptureRank(c.ID(), c.proc.Now(), s.world.WorldComm().Epoch())
	return committed
}

// Agree is the MPIX_Comm_agree analogue: a fault-tolerant agreement
// returning the bitwise AND of the live members' flags. When a member of cm
// is dead the agreed flag is still returned, together with a
// *RankFailedError — survivors get a consistent flag plus the failure
// notification.
func (c *RankCtx) Agree(cm *Comm, flag uint64) (uint64, error) {
	return cm.Agree(c.proc, c.rank, flag)
}

// CommCtx scopes a rank's collective operations to a communicator
// (typically a Shrink survivor comm). Ranks, roots, and peer indices are
// comm ranks; the engine inherits the session's CollTuning, with
// topology-bound algorithm choices downgraded off the world scope.
type CommCtx struct {
	c  *RankCtx
	cm *Comm
}

// On returns this rank's collective operations scoped to cm. The rank must
// be a member.
func (c *RankCtx) On(cm *Comm) *CommCtx { return &CommCtx{c: c, cm: cm} }

// Comm returns the scoped communicator.
func (cc *CommCtx) Comm() *Comm { return cc.cm }

// Rank returns this rank's comm rank (-1 if not a member).
func (cc *CommCtx) Rank() int { return cc.cm.CommRank(cc.c.ID()) }

// Size reports the communicator size.
func (cc *CommCtx) Size() int { return cc.cm.Size() }

// Bcast broadcasts count elements of l from comm rank root's buf to every
// member.
func (cc *CommCtx) Bcast(root int, buf *Buffer, l *Layout, count int) error {
	return cc.c.sess.engineFor(cc.cm).Bcast(cc.c.proc, cc.c.rank, root, buf, l, count)
}

// AllreduceSumF64 sums n float64 values element-wise across every member.
func (cc *CommCtx) AllreduceSumF64(buf *Buffer, n int) error {
	return cc.c.sess.engineFor(cc.cm).AllreduceSumF64(cc.c.proc, cc.c.rank, buf, n)
}

// Alltoallw runs the DDT-aware personalized all-to-all over the scoped
// communicator: ops[i] is the leg pair with comm rank i, len(ops) == Size.
func (cc *CommCtx) Alltoallw(ops []WOp) error {
	return cc.c.sess.engineFor(cc.cm).Alltoallw(cc.c.proc, cc.c.rank, ops)
}

// Allgatherv gathers every member's contribution to every member.
func (cc *CommCtx) Allgatherv(send VOp, recvs []VOp) error {
	return cc.c.sess.engineFor(cc.cm).Allgatherv(cc.c.proc, cc.c.rank, send, recvs)
}

// Gatherv collects every member's contribution at comm rank root.
func (cc *CommCtx) Gatherv(root int, send VOp, recvs []VOp) error {
	return cc.c.sess.engineFor(cc.cm).Gatherv(cc.c.proc, cc.c.rank, root, send, recvs)
}

// Scatterv distributes per-member slots from comm rank root.
func (cc *CommCtx) Scatterv(root int, sends []VOp, recv VOp) error {
	return cc.c.sess.engineFor(cc.cm).Scatterv(cc.c.proc, cc.c.rank, root, sends, recv)
}

// CartComm is a Cartesian process topology (MPI_Cart_create).
type CartComm = mpi.CartComm

// CartCreate builds a Cartesian topology over the first prod(dims) ranks.
func (s *Session) CartCreate(dims []int, periods []bool) *CartComm {
	return s.world.CartCreate(dims, periods)
}

// ExtendedWorkloads returns all implemented ddtbench workloads: the
// paper's four plus WRF, LAMMPS_full, NAS_LU, and FFT2D.
func ExtendedWorkloads() []Workload { return workload.Extended() }
