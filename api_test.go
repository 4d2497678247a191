package dkf_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	dkf "repro"
)

// TestNewSessionRejectsInvalidConfigs is the one validation table: every
// bad configuration fails fast in NewSession with a nil session and a
// *ConfigError naming the offending option, whose message says what is
// wrong with it.
func TestNewSessionRejectsInvalidConfigs(t *testing.T) {
	abci := dkf.SystemABCI.Spec()
	noNodes := abci
	noNodes.Nodes = 0
	noGPUs := abci
	noGPUs.GPUsPerNode = 0
	cases := []struct {
		name    string
		cfg     dkf.SessionConfig
		option  string
		wantSub string
	}{
		{"negative fusion threshold", dkf.SessionConfig{FusionThreshold: -1}, "FusionThreshold", "negative FusionThreshold"},
		{"fusion threshold on GPU-Sync", dkf.SessionConfig{Scheme: dkf.SchemeGPUSync, FusionThreshold: 1 << 20}, "FusionThreshold", "GPU-Sync takes no fusion threshold"},
		{"fusion threshold on Proposed-Auto", dkf.SessionConfig{Scheme: dkf.SchemeProposedAuto, FusionThreshold: 1 << 20}, "FusionThreshold", "Proposed-Auto takes no fusion threshold"},
		{"negative pipeline chunk", dkf.SessionConfig{PipelineChunk: -1}, "PipelineChunk", "negative PipelineChunk"},
		{"system below range", dkf.SessionConfig{System: dkf.System(-1)}, "System", "unknown System"},
		{"system above range", dkf.SessionConfig{System: dkf.System(99)}, "System", "unknown System"},
		{"unknown scheme", dkf.SessionConfig{Scheme: "bogus"}, "Scheme", `unknown scheme "bogus"`},
		{"custom spec without nodes", dkf.SessionConfig{CustomSpec: &noNodes}, "CustomSpec", "at least one node"},
		{"custom spec without gpus", dkf.SessionConfig{CustomSpec: &noGPUs}, "CustomSpec", "at least one GPU"},
		{"unknown payload mode", dkf.SessionConfig{Payload: dkf.PayloadMode(9)}, "Payload", "unknown PayloadMode 9"},
		{"negative lazy threshold", dkf.SessionConfig{Payload: dkf.PayloadLazy, LazyThreshold: -1}, "LazyThreshold", "negative LazyThreshold"},
		{"lazy threshold without lazy mode", dkf.SessionConfig{LazyThreshold: 64}, "LazyThreshold", "requires Payload: PayloadLazy"},
		{"negative heartbeat interval", dkf.SessionConfig{Heartbeat: dkf.HeartbeatConfig{IntervalNs: -1}, Faults: &dkf.FaultPlan{}}, "Heartbeat.IntervalNs", "negative Heartbeat.IntervalNs"},
		{"negative heartbeat timeout", dkf.SessionConfig{Heartbeat: dkf.HeartbeatConfig{TimeoutNs: -1}, Faults: &dkf.FaultPlan{}}, "Heartbeat.TimeoutNs", "negative Heartbeat.TimeoutNs"},
		{"heartbeat without faults", dkf.SessionConfig{Heartbeat: dkf.HeartbeatConfig{TimeoutNs: 1000}}, "Heartbeat.TimeoutNs", "requires a fault plan"},
		{"unknown backend", dkf.SessionConfig{Backend: dkf.Backend(7)}, "Backend", "unknown Backend 7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := dkf.NewSession(tc.cfg)
			if sess != nil {
				sess.Close()
				t.Fatalf("NewSession(%+v) returned a session, want nil", tc.cfg)
			}
			var ce *dkf.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("NewSession error %v, want *ConfigError", err)
			}
			if ce.Option != tc.option {
				t.Fatalf("ConfigError.Option = %q, want %q (err: %v)", ce.Option, tc.option, err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestConfigErrorTyped pins the typed error's contract beyond the table
// above: the message leads with the dotted option name, the *ConfigError
// survives wrapping, and PayloadLazy with Faults — once blanket-rejected
// but genuinely supported — constructs a session.
func TestConfigErrorTyped(t *testing.T) {
	cases := []struct {
		name       string
		cfg        dkf.SessionConfig
		wantOption string
		wantPrefix string
	}{
		{"negative fusion threshold", dkf.SessionConfig{FusionThreshold: -1}, "FusionThreshold",
			"dkf: invalid SessionConfig.FusionThreshold: negative FusionThreshold -1"},
		{"unknown scheme", dkf.SessionConfig{Scheme: "bogus"}, "Scheme",
			`dkf: invalid SessionConfig.Scheme: unknown scheme "bogus" (valid: `},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := dkf.NewSession(tc.cfg)
			if err == nil || !strings.HasPrefix(err.Error(), tc.wantPrefix) {
				t.Fatalf("NewSession error %v, want prefix %q", err, tc.wantPrefix)
			}
			var ce *dkf.ConfigError
			if !errors.As(fmt.Errorf("setup: %w", err), &ce) || ce.Option != tc.wantOption {
				t.Fatalf("wrapped error %v does not unwrap to a *ConfigError on %q", err, tc.wantOption)
			}
		})
	}

	plan, err := dkf.ParseFaultPlan("mixed,seed=4")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := dkf.NewSession(dkf.SessionConfig{Payload: dkf.PayloadLazy, Faults: plan})
	if err != nil {
		t.Fatalf("PayloadLazy + Faults rejected: %v", err)
	}
	sess.Close()
}

// TestUnknownSchemeErrorListsValidNames checks the error is actionable.
func TestUnknownSchemeErrorListsValidNames(t *testing.T) {
	_, err := dkf.NewSession(dkf.SessionConfig{Scheme: "nope"})
	if err == nil {
		t.Fatal("want error")
	}
	for _, name := range dkf.SchemeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid scheme %q", err, name)
		}
	}
}

// TestSchemeConstantsRoundTrip pins the typed constants to SchemeNames():
// every listed name is a valid constant value and vice versa.
func TestSchemeConstantsRoundTrip(t *testing.T) {
	constants := []dkf.Scheme{
		dkf.SchemeGPUSync, dkf.SchemeGPUAsync, dkf.SchemeCPUGPUHybrid,
		dkf.SchemeNaiveMemcpy, dkf.SchemeStagedHost, dkf.SchemeProposed,
		dkf.SchemeProposedTuned, dkf.SchemeProposedAuto,
	}
	names := dkf.SchemeNames()
	if len(constants) != len(names) {
		t.Fatalf("have %d typed constants but %d scheme names", len(constants), len(names))
	}
	byName := map[string]bool{}
	for _, n := range names {
		byName[n] = true
	}
	for _, c := range constants {
		if !byName[string(c)] {
			t.Errorf("constant %q not in SchemeNames() %v", c, names)
		}
	}
	if typed := dkf.Schemes(); len(typed) != len(names) {
		t.Fatalf("Schemes() has %d entries, want %d", len(typed), len(names))
	} else {
		for i, s := range typed {
			if string(s) != names[i] {
				t.Errorf("Schemes()[%d] = %q, want %q", i, s, names[i])
			}
		}
	}
}

// TestProductionAliasSchemesAccepted keeps the Fig. 14 legend names working.
func TestProductionAliasSchemesAccepted(t *testing.T) {
	for _, s := range []dkf.Scheme{dkf.SchemeMVAPICH2GDR, dkf.SchemeSpectrumMPI, dkf.SchemeOpenMPI} {
		if _, err := dkf.NewSession(dkf.SessionConfig{Scheme: s}); err != nil {
			t.Errorf("alias %q rejected: %v", s, err)
		}
	}
}

func TestAllocErrorsAndPanics(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AllocE(0, "z", 0); err == nil || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("zero-size AllocE = %v, want error naming rank 0", err)
	}
	if _, err := sess.AllocE(0, "n", -4); err == nil {
		t.Fatal("negative AllocE must fail")
	}
	if _, err := sess.AllocE(0, "dup", 8); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AllocE(0, "dup", 8); err == nil || !strings.Contains(err.Error(), `"dup"`) {
		t.Fatalf("duplicate AllocE = %v, want error naming the buffer", err)
	}
	// Same name on a different rank is fine.
	if _, err := sess.AllocE(1, "dup", 8); err != nil {
		t.Fatalf("same name on another rank must work: %v", err)
	}
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "rank 2") || !strings.Contains(msg, `"bad"`) {
				t.Fatalf("Alloc panic %q must name rank and buffer", msg)
			}
		}()
		sess.Alloc(2, "bad", -1)
	}()
}

func TestSessionClose(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{Trace: &dkf.TraceOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	l := dkf.Commit(dkf.Contiguous(64, dkf.Byte))
	sbuf := sess.Alloc(0, "s", int(l.ExtentBytes))
	rbuf := sess.Alloc(4, "r", int(l.ExtentBytes))
	dkf.FillPattern(sbuf.Data, 3)
	if err := sess.Run(func(c *dkf.RankCtx) {
		switch c.ID() {
		case 0:
			c.Wait(c.Isend(4, 0, sbuf, l, 1))
		case 4:
			c.Wait(c.Irecv(0, 0, rbuf, l, 1))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	if sbuf.Data != nil {
		t.Fatal("Close must release buffer memory")
	}
	if err := sess.Run(func(c *dkf.RankCtx) {}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Run after Close = %v, want closed-session error", err)
	}
	if _, err := sess.AllocE(0, "late", 8); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("AllocE after Close = %v, want closed-session error", err)
	}
	// Observability survives Close.
	if sess.TraceOf(0).Total() == 0 {
		t.Fatal("trace must stay readable after Close")
	}
	if sess.Timeline() == nil {
		t.Fatal("timeline must stay readable after Close")
	}
}
