package fusion

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/pack"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// TestMixedBatchCompletionOrder pins when and in what order the requests
// of a mixed fused batch complete, untraced and traced, and the traced
// device's fused and fused-req: spans. The batch has two runs of small
// requests that end at the same time (0-1 and 3-4, which complete
// together in index order), a big and a medium request that end alone and
// earlier (the big one holds most thread blocks), and a DirectIPC request
// whose link floor sets the kernel's end; a second launch (7-8) is one
// run. Waiters on every request's DoneEvent wake in completion order. The
// expected values are modelled results: a host-side change to the launch
// must leave every one of them as it is.
func TestMixedBatchCompletionOrder(t *testing.T) {
	const (
		wantOrder = "[2@10647 6@10661 0@10776 1@10776 3@10776 4@10776 5@29106 7@37589 8@37589]"
		wantSpans = "fused:batch-1 8850+20256, fused-req:req-1 8850+1926, fused-req:req-2 8850+1926, " +
			"fused-req:req-3 8850+1797, fused-req:req-4 8850+1926, fused-req:req-5 8850+1926, " +
			"fused-req:req-6 8850+20256, fused-req:req-7 8850+1811, " +
			"fused:batch-2 36207+1382, fused-req:req-8 36207+1382, fused-req:req-9 36207+1382"
	)
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			env, dev, s := newSched(Config{ThresholdBytes: 1 << 40})
			if traced {
				dev.TL = timeline.NewRecorder(0)
			}
			small := func() *pack.Job { j, _ := mkPackJob(dev, 1, 8, 4); return j }
			ipc, _ := mkPackJob(dev, 5, 16, 4)
			ipc.Op = pack.OpDirectIPC
			ipc.Target = dev.Alloc("ipc-target", ipc.Origin.Len())
			ipc.Peer = &pack.Peer{BWBytesPerNs: 1, LatencyNs: 20_000}
			medium, _ := mkPackJob(dev, 6, 64, 4)
			big, _ := mkPackJob(dev, 2, 4096, 4)
			first := []*pack.Job{small(), small(), big, small(), small(), ipc, medium}
			second := []*pack.Job{small(), small()}
			var order []string
			env.Spawn("pe", func(p *sim.Proc) {
				for _, batch := range [][]*pack.Job{first, second} {
					base := len(order)
					var evs []*sim.Event
					for _, j := range batch {
						uid := s.Enqueue(p, j)
						ev := s.DoneEvent(uid)
						evs = append(evs, ev)
						i := base + len(evs) - 1
						env.Spawn("waiter", func(q *sim.Proc) {
							q.Wait(ev)
							order = append(order, fmt.Sprintf("%d@%d", i, q.Now()))
						})
					}
					s.Flush(p)
					for _, ev := range evs {
						p.Wait(ev)
					}
					p.Sleep(1) // let the last waiters record
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(order); got != wantOrder {
				t.Errorf("completions %s\nwant        %s", got, wantOrder)
			}
			if !traced {
				return
			}
			var spans []string
			for _, ev := range dev.TL.Events() {
				if strings.HasPrefix(ev.Name, "fused") {
					spans = append(spans, fmt.Sprintf("%s %d+%d", ev.Name, ev.Start, ev.Dur))
				}
			}
			if got := strings.Join(spans, ", "); got != wantSpans {
				t.Errorf("spans %s\nwant  %s", got, wantSpans)
			}
		})
	}
}
