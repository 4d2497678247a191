package timeline

import (
	"testing"

	"repro/internal/trace"
)

func TestLedgerChargeFeedsBothViews(t *testing.T) {
	l := NewLedger(NewRecorder(8))
	l.Charge(LayerMPI, trace.Sync, "poll", 10, 5)
	l.Charge(LayerFusion, trace.Launch, "fused-launch", 15, 7)
	if l.Get(trace.Sync) != 5 || l.Get(trace.Launch) != 7 {
		t.Fatalf("breakdown = %s", l.String())
	}
	if got, want := l.Recorder().Sums().String(), l.String(); got != want {
		t.Fatalf("timeline sums %s != breakdown %s", got, want)
	}
	ev := l.Recorder().Events()
	if len(ev) != 2 || ev[1].Layer != LayerFusion || ev[1].Cost != trace.Launch || ev[1].Start != 15 || ev[1].Dur != 7 {
		t.Fatalf("events = %+v", ev)
	}
}

func TestLedgerZeroChargeIsNoOp(t *testing.T) {
	for _, l := range []Ledger{NewLedger(nil), NewLedger(NewRecorder(8))} {
		l.Charge(LayerMPI, trace.Comm, "poll", 10, 0)
		if l.Total() != 0 || len(l.Recorder().Events()) != 0 || l.Recorder().Count(trace.Comm) != 0 {
			t.Fatalf("zero charge recorded: breakdown %s, %d events", l.String(), len(l.Recorder().Events()))
		}
	}
}

func TestLedgerNegativeChargePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		l    *Ledger
	}{
		{"traced", &Ledger{rec: NewRecorder(8)}},
		{"untraced", &Ledger{}},
		{"nil", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic on negative charge")
				}
				if tc.l != nil && tc.l.Total() != 0 {
					t.Fatalf("negative charge accrued: %s", tc.l.String())
				}
			}()
			tc.l.Charge(LayerMPI, trace.Comm, "poll", 10, -1)
		})
	}
}

func TestNilLedgerIsNoOp(t *testing.T) {
	var l *Ledger
	l.Charge(LayerFusion, trace.Scheduling, "enqueue", 0, 20)
	if l.Recorder() != nil {
		t.Fatal("nil ledger has a recorder")
	}
}

func TestLedgerResetClearsBothViews(t *testing.T) {
	l := NewLedger(NewRecorder(8))
	l.Charge(LayerMPI, trace.Comm, "poll", 0, 5)
	l.Reset()
	if l.Total() != 0 || l.Recorder().Sums().Total() != 0 || len(l.Recorder().Events()) != 0 {
		t.Fatalf("after reset: breakdown %s, timeline %s", l.String(), l.Recorder().Sums())
	}
	l.Charge(LayerMPI, trace.Comm, "poll", 10, 3)
	if l.Get(trace.Comm) != 3 || l.Recorder().Sums().Get(trace.Comm) != 3 {
		t.Fatal("ledger must keep working after reset")
	}
	untraced := NewLedger(nil)
	untraced.Charge(LayerMPI, trace.Comm, "poll", 0, 5)
	untraced.Reset()
	if untraced.Total() != 0 {
		t.Fatal("reset left an untraced ledger's breakdown")
	}
}
