package fabric

import (
	"fmt"
	"math"
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
	n, err := NewNetwork(env, NetworkSpec{Nodes: 2, Link: spec})
	if err != nil {
		panic(err)
	}
	return n.LinkBetween(0, 1)
}

// arriveAt is a receiver that records when it receives a message in at.
func arriveAt(env *sim.Env, at *int64) Receiver {
	return ReceiverFunc(func(Delivery) { *at = env.Now() })
}

func TestLinkTransferTiming(t *testing.T) {
	env := sim.NewEnv()
	l := testLink(env, edrSpec())
	var arrived int64 = -1
	env.Spawn("sender", func(p *sim.Proc) {
		l.Transfer(25_000, arriveAt(env, &arrived))
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
		l.Transfer(25_000, arriveAt(env, &first))
		l.Transfer(25_000, arriveAt(env, &second))
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
		l.Transfer(25, arriveAt(env, &a1))
		l.Transfer(25, arriveAt(env, &a2))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if a2-a1 >= 10_000 {
		t.Fatalf("latency did not pipeline: gap %d", a2-a1)
	}
}

// TestBadLinkSpecPanics: a zero-bandwidth link spec fails Validate, and
// NewNetwork rejects it before building a link.
func TestBadLinkSpecPanics(t *testing.T) {
	bad := LinkSpec{Name: "bad", BWBytesPerNs: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := NewNetwork(sim.NewEnv(), NetworkSpec{Nodes: 2, Link: bad}); err == nil {
		t.Fatal("NewNetwork accepted a zero-bandwidth link")
	}
}

func newTestNetwork(t *testing.T) (*sim.Env, *Network) {
	t.Helper()
	env := sim.NewEnv()
	n, err := NewNetwork(env, NetworkSpec{
		Nodes:      3,
		Link:       edrSpec(),
		PostCostNs: 200,
		CtrlBytes:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return env, n
}

func TestNetworkSendDelivers(t *testing.T) {
	env, n := newTestNetwork(t)
	var at int64 = -1
	env.Spawn("s", func(p *sim.Proc) {
		n.Post(p)
		n.Send(0, 1, 1000, arriveAt(env, &at))
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
		n.Send(2, 2, 1<<20, arriveAt(env, &at))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 300 {
		t.Fatalf("loopback delivered at %d, want per-message cost only", at)
	}
}

// wantRead is when an RDMA read of bytes issued at time 0 on an idle
// network lands: the control leg's serialization and latency, then the
// payload's. A loopback read pays one per-message cost.
func wantRead(n *Network, reader, target int, bytes int64) int64 {
	s := n.Spec.Link
	if reader == target {
		return s.PerMessageNs
	}
	ser := func(b int64) int64 { return s.PerMessageNs + int64(math.Ceil(float64(b)/s.BWBytesPerNs)) }
	return ser(n.Spec.CtrlBytes) + s.LatencyNs + ser(bytes) + s.LatencyNs
}

func TestRDMAReadRoundTrip(t *testing.T) {
	env, n := newTestNetwork(t)
	o := newReadObject(n, 0, 1, 25_000)
	env.Spawn("r", func(p *sim.Proc) { o.issue() })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// ctrl: 300 + ceil(64/25) + 1000 = 1303, then data: 300 + 1000 + 1000,
	// so 3603: two latencies and two serializations.
	oneWay := int64(300 + 1000 + 1000) // data only
	if o.landed <= oneWay || o.landed != 3603 {
		t.Fatalf("RDMA read at %d, should include request leg (> %d) and land at 3603", o.landed, oneWay)
	}
}

func TestRDMAWriteOneWay(t *testing.T) {
	env, n := newTestNetwork(t)
	var writeAt int64
	read := newReadObject(n, 0, 1, 25_000)
	env.Spawn("r", func(p *sim.Proc) { read.issue() })
	env.Spawn("w", func(p *sim.Proc) {
		n.Send(2, 1, 25_000, arriveAt(env, &writeAt)) // an RDMA write is a send
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if writeAt >= read.landed {
		t.Fatalf("one-way write (%d) should beat read round trip (%d)", writeAt, read.landed)
	}
}

func TestDistinctDirectionsDoNotContend(t *testing.T) {
	env, n := newTestNetwork(t)
	var a01, a10 int64
	env.Spawn("s", func(p *sim.Proc) {
		n.Send(0, 1, 250_000, arriveAt(env, &a01))
		n.Send(1, 0, 250_000, arriveAt(env, &a10))
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
		n.Send(0, 1, 250_000, arriveAt(env, &a1))
		n.Send(0, 1, 250_000, arriveAt(env, &a2))
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
	n.eachLink(func(l *Link) { names = append(names, l.Name()) })
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
			if _, err := NewNetwork(env, NetworkSpec{Nodes: nodes, Link: edrSpec()}); err != nil {
				t.Fatal(err)
			}
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
			expected += l.spec.PerMessageNs + (b+int64(l.spec.BWBytesPerNs)-1)/int64(l.spec.BWBytesPerNs)
			l.Transfer(b, nil)
		}
		if err := env.Run(); err != nil {
			return false
		}
		// ceil in the model vs integer arithmetic here: allow exact match
		// by recomputing with the same formula.
		return l.busyUntil == expected
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
	bytes          int64
	landed         int64
}

func newReadObject(n *Network, reader, target int, bytes int64) *readObject {
	return &readObject{n: n, reader: reader, target: target, bytes: bytes, landed: -1}
}

// issue reads o.bytes from o.target into o.reader.
func (o *readObject) issue() { o.n.RDMAReadBy(o.reader, o.target, (*readCtrl)(o), o) }

type readCtrl readObject

func (c *readCtrl) Handle() {
	c.n.RDMAReadReply(c.target, c.reader, c.bytes, (*readObject)(c))
}
func (c *readCtrl) Deliver(d Delivery) {
	if !d.Corrupt && !d.Dup {
		c.Handle()
	}
}

func (o *readObject) Handle()          { o.landed = o.n.env.Now() }
func (o *readObject) Deliver(Delivery) { o.Handle() }

// TestRDMAReadByMatchesRDMARead checks that a read whose object receives
// both legs lands when the link arithmetic says a read does, over a link
// and in loopback.
func TestRDMAReadByMatchesRDMARead(t *testing.T) {
	for _, target := range []int{1, 0} {
		env, n := newTestNetwork(t)
		o := newReadObject(n, 0, target, 25_000)
		env.Spawn("r", func(p *sim.Proc) { o.issue() })
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if want := wantRead(n, 0, target, 25_000); o.landed != want {
			t.Errorf("target %d: RDMAReadBy landed at %d, want %d", target, o.landed, want)
		}
	}
}
