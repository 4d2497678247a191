package fault

import (
	"strings"
	"testing"
)

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []Plan{
		{Link: LinkPlan{DropProb: -0.1}},
		{Link: LinkPlan{CorruptProb: 1.5}},
		{NIC: NICPlan{PostErrorProb: 2}},
		{GPU: GPUPlan{LaunchFailProb: -1}},
		{Link: LinkPlan{DelayMaxNs: -1}},
		{Link: LinkPlan{DegradeFactor: 0.5}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: plan %+v validated", i, p)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan: %v", err)
	}
	if enabled(nilPlan) {
		t.Error("nil plan enabled")
	}
	if enabled(&Plan{Seed: 7}) {
		t.Error("all-zero plan enabled")
	}
}

func TestNewInjectorNilAndInvalid(t *testing.T) {
	inj, err := NewInjector(nil, nil)
	if inj != nil || err != nil {
		t.Fatalf("nil plan: (%v, %v)", inj, err)
	}
	if _, err := NewInjector(&Plan{Link: LinkPlan{DropProb: 9}}, nil); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestNilSafety(t *testing.T) {
	// Every call a fault-free lower layer can make on nil handles must be
	// a no-op: this is the "no plan, no perturbation" contract.
	var inj *Injector
	var site *Site
	if inj.Site("x") != nil || inj.Events() != nil || inj.Total() != 0 {
		t.Fatal("nil injector not inert")
	}
	if inj.Counts() != "(no faults)" || inj.Count(Drop) != 0 {
		t.Fatal("nil injector counters not inert")
	}
	inj.SetHook(func(Event) {})
	if site.Roll(1) || site.Int63n(100) != 0 || site.Plan() != nil {
		t.Fatal("nil site not inert")
	}
	site.Record(Drop, "x")
	site.Recordf(Drop, "x%d", 1)
}

func TestPerSiteStreamsAreIndependentAndDeterministic(t *testing.T) {
	plan := &Plan{Seed: 42, Link: LinkPlan{DropProb: 0.5}}
	draw := func(consumeOther int) []bool {
		var now int64
		inj, err := NewInjector(plan, func() int64 { return now })
		if err != nil {
			t.Fatal(err)
		}
		other := inj.Site("link:other")
		for i := 0; i < consumeOther; i++ {
			other.Roll(0.5)
		}
		s := inj.Site("link:a")
		out := make([]bool, 64)
		for i := range out {
			out[i] = s.Roll(0.5)
		}
		return out
	}
	base := draw(0)
	interleaved := draw(17)
	for i := range base {
		if base[i] != interleaved[i] {
			t.Fatalf("draw %d differs when another site consumed entropy: streams not independent", i)
		}
	}
}

func TestDegenerateProbabilitiesConsumeNoDraws(t *testing.T) {
	inj, _ := NewInjector(&Plan{Seed: 5, Link: LinkPlan{DropProb: 0.5}}, func() int64 { return 0 })
	a := inj.Site("a")
	b := inj.Site("b") // same draws expected modulo seed; compare a to itself pattern
	_ = b
	var withNoise, plain []bool
	for i := 0; i < 32; i++ {
		a.Roll(0)   // disabled class: no draw
		a.Roll(1.0) // certain class: no draw
		withNoise = append(withNoise, a.Roll(0.5))
	}
	a2 := &Site{inj: inj, name: "a", state: inj.plan.Seed ^ fnv64a("a")}
	a2.next()
	for i := 0; i < 32; i++ {
		plain = append(plain, a2.Roll(0.5))
	}
	for i := range plain {
		if plain[i] != withNoise[i] {
			t.Fatalf("draw %d perturbed by degenerate-probability rolls", i)
		}
	}
}

func TestEventsRecordedWithClockAndHook(t *testing.T) {
	now := int64(100)
	inj, _ := NewInjector(&Plan{Seed: 1, Link: LinkPlan{DropProb: 1}}, func() int64 { return now })
	var hooked []Event
	inj.SetHook(func(e Event) { hooked = append(hooked, e) })
	s := inj.Site("link:x")
	s.Record(Drop, "msg 3")
	now = 250
	s.Recordf(Retransmit, "attempt %d", 2)
	evs := inj.Events()
	if len(evs) != 2 || len(hooked) != 2 {
		t.Fatalf("events = %d, hooked = %d", len(evs), len(hooked))
	}
	if evs[0].At != 100 || evs[1].At != 250 || evs[1].Detail != "attempt 2" {
		t.Fatalf("events: %v", evs)
	}
	if inj.Count(Drop) != 1 || inj.Count(Retransmit) != 1 || inj.Total() != 2 {
		t.Fatalf("counts: %s", inj.Counts())
	}
	if got := inj.Counts(); !strings.Contains(got, "drop=1") || !strings.Contains(got, "retransmit=1") {
		t.Fatalf("Counts() = %q", got)
	}
	if evs[0].String() == "" || Kind(200).String() != "Kind(200)" {
		t.Fatal("string forms broken")
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := Preset(name, 9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Seed != 9 || !enabled(p) {
			t.Fatalf("%s: seed=%d enabled=%v", name, p.Seed, enabled(p))
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := Preset("bogus", 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("drop-heavy,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Link.DropProb != 0.12 {
		t.Fatalf("parsed %+v", p)
	}
	p, err = ParsePlan("drop=0.05, corrupt=0.02, seed=42, delaymax=5000, degradefactor=4")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || p.Link.DropProb != 0.05 || p.Link.CorruptProb != 0.02 ||
		p.Link.DelayMaxNs != 5000 || p.Link.DegradeFactor != 4 {
		t.Fatalf("parsed %+v", p)
	}
	for _, bad := range []string{"nope", "drop=x", "seed=-1", "zzz=1", "drop=2"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestInt63nRange(t *testing.T) {
	inj, _ := NewInjector(&Plan{Seed: 3, Link: LinkPlan{DelayProb: 1}}, func() int64 { return 0 })
	s := inj.Site("d")
	for i := 0; i < 1000; i++ {
		if v := s.Int63n(17); v < 0 || v >= 17 {
			t.Fatalf("Int63n(17) = %d", v)
		}
	}
	if s.Int63n(0) != 0 || s.Int63n(-5) != 0 {
		t.Fatal("degenerate Int63n")
	}
}

// enabled reports whether the plan can inject any fault at all.
func enabled(p *Plan) bool {
	if p == nil {
		return false
	}
	for _, v := range p.probs() {
		if v > 0 {
			return true
		}
	}
	return len(p.Proc.Crashes) > 0
}
