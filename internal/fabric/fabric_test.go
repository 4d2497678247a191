package fabric

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func edrSpec() LinkSpec {
	return LinkSpec{Name: "IB-EDR", LatencyNs: 1000, BWBytesPerNs: 25, PerMessageNs: 300}
}

// testLink is the 0->1 link of a two-node network whose links are spec.
func testLink(env *sim.Env, spec LinkSpec) *Link {
	return MustNetwork(env, NetworkSpec{Nodes: 2, Link: spec}).LinkBetween(0, 1)
}

func TestLinkTransferTiming(t *testing.T) {
	env := sim.NewEnv()
	l := testLink(env, edrSpec())
	var arrived int64 = -1
	env.Spawn("sender", func(p *sim.Proc) {
		l.Transfer(25_000, func() { arrived = env.Now() })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// serialization = 300 + 25000/25 = 1300; + latency 1000 = 2300
	if arrived != 2300 {
		t.Fatalf("arrived at %d, want 2300", arrived)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	env := sim.NewEnv()
	l := testLink(env, edrSpec())
	var first, second int64
	env.Spawn("sender", func(p *sim.Proc) {
		l.Transfer(25_000, func() { first = env.Now() })
		l.Transfer(25_000, func() { second = env.Now() })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if second-first != 1300 {
		t.Fatalf("second arrived %d after first, want one serialization time 1300", second-first)
	}
}

func TestLatencyPipelines(t *testing.T) {
	// Two small messages: the second's latency overlaps the first's.
	env := sim.NewEnv()
	l := testLink(env, LinkSpec{Name: "x", LatencyNs: 10_000, BWBytesPerNs: 25, PerMessageNs: 100})
	var a1, a2 int64
	env.Spawn("sender", func(p *sim.Proc) {
		l.Transfer(25, func() { a1 = env.Now() })
		l.Transfer(25, func() { a2 = env.Now() })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if a2-a1 >= 10_000 {
		t.Fatalf("latency did not pipeline: gap %d", a2-a1)
	}
}

func TestBadLinkSpecPanics(t *testing.T) {
	if err := (LinkSpec{Name: "bad", BWBytesPerNs: 0}).Validate(); err == nil {
		t.Fatal("expected validation error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected MustNetwork panic")
		}
	}()
	testLink(sim.NewEnv(), LinkSpec{Name: "bad", BWBytesPerNs: 0})
}

func newTestNetwork(t *testing.T) (*sim.Env, *Network) {
	t.Helper()
	env := sim.NewEnv()
	n := MustNetwork(env, NetworkSpec{
		Nodes:      3,
		Link:       edrSpec(),
		PostCostNs: 200,
		CtrlBytes:  64,
	})
	return env, n
}

func TestNetworkSendDelivers(t *testing.T) {
	env, n := newTestNetwork(t)
	var at int64 = -1
	env.Spawn("s", func(p *sim.Proc) {
		n.Post(p)
		n.Send(0, 1, 1000, func() { at = env.Now() })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// post 200 + (300 + 40) + 1000 latency = 1540+... = 200+340+1000
	want := int64(200 + 300 + 40 + 1000)
	if at != want {
		t.Fatalf("delivered at %d, want %d", at, want)
	}
}

func TestNetworkLoopback(t *testing.T) {
	env, n := newTestNetwork(t)
	var at int64 = -1
	env.Spawn("s", func(p *sim.Proc) {
		n.Send(2, 2, 1<<20, func() { at = env.Now() })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 300 {
		t.Fatalf("loopback delivered at %d, want per-message cost only", at)
	}
}

func TestRDMAReadRoundTrip(t *testing.T) {
	env, n := newTestNetwork(t)
	var at int64 = -1
	env.Spawn("r", func(p *sim.Proc) {
		n.RDMARead(0, 1, 25_000, func() { at = env.Now() })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// ctrl: 300 + 64/25(=3) + 1000 = 1303(ceil 1303?) then data: 300+1000+1000
	// = two latencies + two serializations; just assert both directions paid.
	oneWay := int64(300 + 1000 + 1000) // data only
	if at <= oneWay {
		t.Fatalf("RDMA read at %d, should include request leg (> %d)", at, oneWay)
	}
}

func TestRDMAWriteOneWay(t *testing.T) {
	env, n := newTestNetwork(t)
	var readAt, writeAt int64
	env.Spawn("r", func(p *sim.Proc) {
		n.RDMARead(0, 1, 25_000, func() { readAt = env.Now() })
	})
	env.Spawn("w", func(p *sim.Proc) {
		n.RDMAWrite(2, 1, 25_000, func() { writeAt = env.Now() })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if writeAt >= readAt {
		t.Fatalf("one-way write (%d) should beat read round trip (%d)", writeAt, readAt)
	}
}

func TestDistinctDirectionsDoNotContend(t *testing.T) {
	env, n := newTestNetwork(t)
	var a01, a10 int64
	env.Spawn("s", func(p *sim.Proc) {
		n.Send(0, 1, 250_000, func() { a01 = env.Now() })
		n.Send(1, 0, 250_000, func() { a10 = env.Now() })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if a01 != a10 {
		t.Fatalf("opposite directions should not serialize: %d vs %d", a01, a10)
	}
}

func TestSameDirectionContends(t *testing.T) {
	env, n := newTestNetwork(t)
	var a1, a2 int64
	env.Spawn("s", func(p *sim.Proc) {
		n.Send(0, 1, 250_000, func() { a1 = env.Now() })
		n.Send(0, 1, 250_000, func() { a2 = env.Now() })
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if a2 <= a1 {
		t.Fatalf("same direction should serialize: %d then %d", a1, a2)
	}
}

func TestNetworkStats(t *testing.T) {
	env, n := newTestNetwork(t)
	env.Spawn("s", func(p *sim.Proc) {
		n.Send(0, 1, 100, nil)
		n.Send(1, 2, 200, nil)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if n.TotalMessages() != 2 || n.TotalBytes() != 300 {
		t.Fatalf("stats: msgs=%d bytes=%d", n.TotalMessages(), n.TotalBytes())
	}
}

// TestMissingLinkPanics: every pair that is not a crossbar link panics with
// the same message, including (0, Nodes), whose flat index would
// otherwise alias link 1->0.
func TestMissingLinkPanics(t *testing.T) {
	_, n := newTestNetwork(t)
	nodes := n.Spec.Nodes
	for _, c := range []struct{ a, b int }{
		{0, 7}, {0, 0}, {-1, 0}, {0, -1}, {nodes, 0}, {0, nodes},
	} {
		t.Run(fmt.Sprintf("%d->%d", c.a, c.b), func(t *testing.T) {
			defer func() {
				want := fmt.Sprintf("fabric: no link %d->%d", c.a, c.b)
				if got := recover(); got != want {
					t.Fatalf("panic %v, want %q", got, want)
				}
			}()
			n.LinkBetween(c.a, c.b)
		})
	}
}

// TestLinkNames: a crossbar link is named from its endpoints when the name
// is read, and the fault sites are drawn under those names.
func TestLinkNames(t *testing.T) {
	_, n := newTestNetwork(t)
	if got := n.LinkBetween(2, 1).Name(); got != "IB-EDR[2->1]" {
		t.Errorf("crossbar link name %q", got)
	}
	var names []string
	for _, l := range n.Links() {
		names = append(names, l.Name())
	}
	want := "IB-EDR[0->1] IB-EDR[0->2] IB-EDR[1->0] IB-EDR[1->2] IB-EDR[2->0] IB-EDR[2->1]"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("links %s, want %s", got, want)
	}
}

// TestCrossbarBuildAllocs: NewNetwork makes the crossbar in a constant
// number of allocations, whatever the node count.
func TestCrossbarBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	// A GC first, so that starting its workers is not counted, and enough
	// runs that a one-off runtime allocation averages away.
	runtime.GC()
	build := func(nodes int) float64 {
		env := sim.NewEnv()
		return testing.AllocsPerRun(20, func() {
			MustNetwork(env, NetworkSpec{Nodes: nodes, Link: edrSpec()})
		})
	}
	small, large := build(16), build(256)
	if small != large || large > 2 {
		t.Fatalf("NewNetwork allocates %v times at 16 nodes and %v at 256, want the same, at most 2", small, large)
	}
}

// Property: arrival time is monotone in message size, and total link
// occupancy equals the sum of serialization times.
func TestPropertyTransferMonotone(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 30 {
			return true
		}
		env := sim.NewEnv()
		l := testLink(env, edrSpec())
		var expected int64
		for _, s := range sizes {
			b := int64(s) + 1
			expected += l.Spec().PerMessageNs + (b+int64(l.Spec().BWBytesPerNs)-1)/int64(l.Spec().BWBytesPerNs)
			l.Transfer(b, nil)
		}
		if err := env.Run(); err != nil {
			return false
		}
		// ceil in the model vs integer arithmetic here: allow exact match
		// by recomputing with the same formula.
		return l.BusyUntil() == expected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// readObject receives both legs of an RDMA read issued with RDMAReadBy:
// its control leg answers with the payload, which lands in landed.
type readObject struct {
	n              *Network
	reader, target int
	landed         int64
}

type readCtrl readObject

func (c *readCtrl) Handle() {
	c.n.RDMAReadReply(c.target, c.reader, 25_000, (*readObject)(c))
}
func (c *readCtrl) Deliver(d Delivery) {
	if !d.Corrupt && !d.Dup {
		c.Handle()
	}
}

func (o *readObject) Handle()          { o.landed = o.n.env.Now() }
func (o *readObject) Deliver(Delivery) { o.Handle() }

// TestRDMAReadByMatchesRDMARead checks that a read whose object receives
// both legs lands when the closure form does, over a link and in
// loopback.
func TestRDMAReadByMatchesRDMARead(t *testing.T) {
	for _, target := range []int{1, 0} {
		env, n := newTestNetwork(t)
		want := int64(-1)
		env.Spawn("r", func(p *sim.Proc) {
			n.RDMARead(0, target, 25_000, func() { want = env.Now() })
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		env, n = newTestNetwork(t)
		o := &readObject{n: n, reader: 0, target: target, landed: -1}
		env.Spawn("r", func(p *sim.Proc) { n.RDMAReadBy(0, target, (*readCtrl)(o), o) })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if o.landed != want || want < 0 {
			t.Errorf("target %d: RDMAReadBy landed at %d, RDMARead at %d", target, o.landed, want)
		}
	}
}
