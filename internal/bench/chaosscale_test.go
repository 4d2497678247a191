package bench

import "testing"

// TestChaosScaleSmoke reads every chaos-scale mode off the shared table
// (64 and 256 ranks): the crash fires exactly when the mode injects one,
// and every row carries a real measurement. A failed or leaking cell is an
// ERROR row, which the golden check reports.
func TestChaosScaleSmoke(t *testing.T) {
	t.Parallel()
	tab := figure(t, "chaos-scale")[0]
	for _, mode := range chaosScaleModes {
		t.Run(mode, func(t *testing.T) {
			want := "1"
			if mode == "no-fault" {
				want = "0"
			}
			for _, row := range tab.Rows {
				if row[0] != mode {
					continue
				}
				if row[7] != want {
					t.Errorf("%s at %s ranks crashed %q ranks, want %s", mode, row[1], row[7], want)
				}
				if mustF(t, row[3]) <= 0 || mustF(t, row[6]) == 0 {
					t.Errorf("%s at %s ranks: degenerate measurement virt_ms=%s kernels=%s", mode, row[1], row[3], row[6])
				}
			}
		})
	}
}
