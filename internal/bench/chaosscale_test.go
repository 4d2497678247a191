package bench

import (
	"testing"
)

// TestChaosScaleSmoke runs every chaos-scale mode at a CI-sized rank
// count: the crash fires, survivors shrink and retry checksum-exact, the
// restore mode rolls state back, nothing leaks. 256 ranks normally, 64
// under -short.
func TestChaosScaleSmoke(t *testing.T) {
	ranks := 256
	if testing.Short() {
		ranks = 64
	}
	for _, mode := range chaosScaleModes {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			m, crashed, err := runChaosScale(ranks, mode)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "no-fault" {
				if crashed != 0 {
					t.Fatalf("no-fault run crashed %d ranks", crashed)
				}
				return
			}
			if crashed != 1 {
				t.Fatalf("crashed = %d, want 1", crashed)
			}
			if m.virtNs <= 0 || m.kernels == 0 {
				t.Fatalf("degenerate measurement: virt=%d kernels=%d", m.virtNs, m.kernels)
			}
		})
	}
}

// TestChaosScale1024 is the acceptance run: a 1024-rank lazy-mode
// hierarchical Alltoallw under the rank-crash preset completes after
// Shrink with checksum-exact survivor data, a committed checkpoint rolled
// back on every survivor, and zero leaked requests or fused jobs (all
// asserted inside runChaosScale).
func TestChaosScale1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank chaos run skipped in -short")
	}
	m, crashed, err := runChaosScale(1024, "rank-crash+restore")
	if err != nil {
		t.Fatal(err)
	}
	if crashed != 1 {
		t.Fatalf("crashed = %d, want 1", crashed)
	}
	t.Logf("1024-rank chaos+restore: virt=%.1fms wall=%s alloc=%.1fMB kernels=%d",
		float64(m.virtNs)/1e6, m.wall, m.allocMB, m.kernels)
}

// TestChaosScaleFigureRegistered pins the figure id into the registry
// without paying for the full table (the smoke test covers the cells).
func TestChaosScaleFigureRegistered(t *testing.T) {
	found := false
	for _, id := range Figures() {
		if id == "chaos-scale" {
			found = true
		}
	}
	if !found {
		t.Fatal(`Figures() does not list "chaos-scale"`)
	}
	tab := ChaosScale(0)
	if len(tab.Rows) != 0 || len(tab.Header) == 0 {
		t.Fatalf("ChaosScale(0): %d rows, header %v", len(tab.Rows), tab.Header)
	}
}
