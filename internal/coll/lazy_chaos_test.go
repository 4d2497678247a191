package coll_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/coll"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// This file extends the rank-crash chaos contract to lazy payload mode:
// the self-healing collectives (revocation, fusion-window teardown, the
// PendingFusedJobs oracle) must behave identically whether payloads are
// real bytes or span algebra, and the exact/lazy pair under one fault
// plan must replay the very same failure: same final clock, same
// fault-event sequence, same per-rank timeline sums.

// lazyChaosObs is one seeded run's observables for cross-mode comparison.
type lazyChaosObs struct {
	finalClock int64
	crashed    []int
	rankErrs   []error
	faultEvs   []string
	tlSums     []string
	leaked     int
	fusedLeft  int
	staging    int64
}

// runLazyChaosA2A drives a crash-preset Alltoallw in one payload mode.
func runLazyChaosA2A(t *testing.T, lazy bool, alg coll.Algorithm, seed uint64) *lazyChaosObs {
	t.Helper()
	plan, err := fault.Preset("rank-crash", seed)
	if err != nil {
		t.Fatal(err)
	}
	env, w := lazyCollWorld("Proposed-Tuned", lazy, func(c *mpi.Config) {
		c.Faults = plan
		c.Timeline = &timeline.Options{}
	})
	ops := makeA2AOpsPRF(w, denseVec())
	e := coll.New(w, coll.Tuning{Alltoallw: alg})
	obs := &lazyChaosObs{rankErrs: make([]error, w.Size())}
	const horizon = 400_000
	runErr := w.Run(func(r *mpi.Rank, p *sim.Proc) {
		for obs.rankErrs[r.ID()] == nil && p.Now() < horizon {
			obs.rankErrs[r.ID()] = e.Alltoallw(p, r, ops[r.ID()])
		}
	})
	if runErr != nil {
		t.Fatalf("lazy=%v seed %d: world did not terminate cleanly: %v", lazy, seed, runErr)
	}
	obs.finalClock = env.Now()
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

// TestLazyCollectivesRankCrash asserts both halves at once: (1) lazy-mode
// chaos obeys the full ULFM contract — typed survivor errors, exactly one
// crash, zero leaked requests and zero stranded fused jobs — and (2) the
// byte-exact run under the same plan is observationally identical, so the
// failure path provably never depends on the payload representation.
func TestLazyCollectivesRankCrash(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, alg := range []coll.Algorithm{coll.Linear, coll.Pairwise, coll.Hierarchical} {
		alg := alg
		t.Run("alltoallw/"+alg.String(), func(t *testing.T) {
			for _, seed := range seeds {
				lz := runLazyChaosA2A(t, true, alg, seed)
				if len(lz.crashed) != 1 {
					t.Fatalf("seed %d: crashed ranks %v, want exactly one", seed, lz.crashed)
				}
				dead := lz.crashed[0]
				for i, rerr := range lz.rankErrs {
					if i == dead {
						continue
					}
					if rerr == nil {
						t.Fatalf("seed %d: lazy survivor %d returned success across the failure window", seed, i)
					}
					if !errors.Is(rerr, mpi.ErrRankFailed) && !errors.Is(rerr, mpi.ErrCommRevoked) {
						t.Fatalf("seed %d: lazy survivor %d got untyped error: %v", seed, i, rerr)
					}
				}
				if lz.leaked != 0 || lz.fusedLeft != 0 || lz.staging != 0 {
					t.Fatalf("seed %d: lazy run leaked state: requests=%d fused=%d staging=%d",
						seed, lz.leaked, lz.fusedLeft, lz.staging)
				}

				ex := runLazyChaosA2A(t, false, alg, seed)
				if ex.staging != 0 {
					t.Fatalf("seed %d: exact run left %d staging bytes lent", seed, ex.staging)
				}
				if ex.finalClock != lz.finalClock {
					t.Fatalf("seed %d: final clock differs: exact %d vs lazy %d", seed, ex.finalClock, lz.finalClock)
				}
				if fmt.Sprint(ex.faultEvs) != fmt.Sprint(lz.faultEvs) {
					t.Fatalf("seed %d: fault-event sequences differ:\n  exact: %v\n  lazy:  %v", seed, ex.faultEvs, lz.faultEvs)
				}
				for i := range ex.tlSums {
					if ex.tlSums[i] != lz.tlSums[i] {
						t.Fatalf("seed %d: rank %d timeline sums differ:\n  exact: %s\n  lazy:  %s",
							seed, i, ex.tlSums[i], lz.tlSums[i])
					}
				}
				for i := range ex.rankErrs {
					if (ex.rankErrs[i] == nil) != (lz.rankErrs[i] == nil) {
						t.Fatalf("seed %d: rank %d outcome differs: exact=%v lazy=%v",
							seed, i, ex.rankErrs[i], lz.rankErrs[i])
					}
				}
			}
		})
	}
}

// TestLazyChaosReplayIdentical pins same-seed determinism with faults AND
// lazy payloads combined: two lazy runs replay bit-identically.
func TestLazyChaosReplayIdentical(t *testing.T) {
	a := runLazyChaosA2A(t, true, coll.Hierarchical, 2)
	b := runLazyChaosA2A(t, true, coll.Hierarchical, 2)
	if a.finalClock != b.finalClock {
		t.Fatalf("final clock not reproducible: %d vs %d", a.finalClock, b.finalClock)
	}
	if fmt.Sprint(a.faultEvs) != fmt.Sprint(b.faultEvs) {
		t.Fatal("fault-event sequence not reproducible")
	}
	for i := range a.tlSums {
		if a.tlSums[i] != b.tlSums[i] {
			t.Fatalf("rank %d timeline sums not reproducible", i)
		}
	}
}
