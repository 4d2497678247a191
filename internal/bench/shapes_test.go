package bench

import "testing"

// TestExpectedShapes encodes the qualitative invariants of EXPERIMENTS.md
// as assertions on the shared figure tables, so a model change that flips
// a paper conclusion fails `go test` by name, beside the golden diff.
// Thresholds are deliberately looser than the measured ratios (e.g. 2x
// asserted where 4.1x is measured) so calibration nudges pass but shape
// regressions do not.
func TestExpectedShapes(t *testing.T) {
	// Fig 9: bulk sparse inter-node — the proposed fused design beats the
	// per-request GPU designs by >4x at 16 outstanding buffers; assert 2x.
	t.Run("proposed wins sparse", func(t *testing.T) {
		tab := figure(t, "9")[0]
		last := tab.Rows[len(tab.Rows)-1] // 16 buffers
		if sync, tuned := mustF(t, last[1]), mustF(t, last[5]); tuned*2 > sync {
			t.Errorf("sparse bulk: Proposed-Tuned %.1f us vs GPU-Sync %.1f us, want >= 2x win", tuned, sync)
		}
	})

	// Fig 10: small dense messages — the CPU packs faster than any kernel
	// launch amortizes, so CPU-GPU-Hybrid wins MILC dim=8 with 1 buffer.
	t.Run("hybrid wins small dense", func(t *testing.T) {
		first := figure(t, "10")[0].Rows[0] // 1 buffer
		sync, hybrid, proposed := mustF(t, first[1]), mustF(t, first[3]), mustF(t, first[4])
		if hybrid >= sync || hybrid >= proposed {
			t.Errorf("small dense: hybrid %.1f us, GPU-Sync %.1f us, Proposed %.1f us — hybrid should win",
				hybrid, sync, proposed)
		}
	})

	// Fig 14: the naive per-block memcpy path of SpectrumMPI/OpenMPI is
	// 60-880x slower on sparse workloads; assert a conservative 10x.
	t.Run("naive at least 10x slower", func(t *testing.T) {
		cm := figure(t, "14")[0].Rows[1] // specfem3D_cm
		if x := mustX(t, cm[5]); cm[0] != "specfem3D_cm" || x < 10 {
			t.Errorf("%s: Proposed-Tuned only %.1fx faster than naive SpectrumMPI, want >= 10x", cm[0], x)
		}
	})

	// Fig 8: the threshold sweep must keep both mistuned regimes — too
	// small a threshold flushes constantly (under-fused), too large waits
	// on work that should already be in flight (over-fused).
	t.Run("threshold sweep regimes", func(t *testing.T) {
		tab := figure(t, "8")[0]
		last := tab.Rows[len(tab.Rows)-1] // dim=64; thresholds 16KB..4MB from column 2
		under, best, over := mustF(t, last[2]), mustF(t, last[5]), mustF(t, last[7])
		if best >= under || best >= over {
			t.Errorf("512KB (%.1f us) should beat 16KB (%.1f us) and 4MB (%.1f us)", best, under, over)
		}
		if under < best*1.5 {
			t.Errorf("under-fused regime too shallow: 16KB %.1f us vs best %.1f us, want >= 1.5x", under, best)
		}
		if over < best*1.05 {
			t.Errorf("over-fused regime too shallow: 4MB %.1f us vs best %.1f us, want >= 1.05x", over, best)
		}
	})
}
