package dkf_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	dkf "repro"
)

// TestReadmeBlocksAreExamples: README's Go blocks are, in order, the
// bodies of this file's examples (tabs as four spaces), so each snippet
// compiles and its printed output is checked.
func TestReadmeBlocksAreExamples(t *testing.T) {
	readme, _ := os.ReadFile("README.md")
	src, _ := os.ReadFile("example_test.go")
	blocks := regexp.MustCompile("(?s)```go\n(.*?)```").FindAllStringSubmatch(string(readme), -1)
	bodies := regexp.MustCompile(`(?s)\nfunc (Example\w*)\(\) \{(\n.*?)\n\}\n`).FindAllStringSubmatch(string(src), -1)
	if len(blocks) != len(bodies) {
		t.Fatalf("README has %d Go blocks, example_test.go %d examples", len(blocks), len(bodies))
	}
	for i, b := range bodies {
		want := strings.ReplaceAll(strings.ReplaceAll(b[2], "\n\t", "\n"), "\t", "    ")[1:] + "\n"
		if blocks[i][1] != want {
			t.Errorf("README Go block %d is not the body of %s:\n%s", i+1, b[1], want)
		}
	}
}

func ExampleNewSession() {
	sess, _ := dkf.NewSession(dkf.SessionConfig{
		System: dkf.SystemLassen,        // 2 nodes x 4 V100, NVLink2 + IB EDR
		Scheme: dkf.SchemeProposedTuned, // the paper's dynamic kernel fusion
	})
	column := dkf.Commit(dkf.Vector(256, 1, 256, dkf.Float64)) // non-contiguous
	sbuf := sess.Alloc(0, "src", int(column.ExtentBytes))
	rbuf := sess.Alloc(4, "dst", int(column.ExtentBytes))
	dkf.FillPattern(sbuf.Data, 1)
	_ = sess.Run(func(c *dkf.RankCtx) {
		switch c.ID() {
		case 0:
			c.Wait(c.Isend(4, 0, sbuf, column, 1))
		case 4:
			c.Wait(c.Irecv(0, 0, rbuf, column, 1))
		}
	})
	fmt.Println(dkf.VerifyBlocks(column, 1, sbuf.Data, rbuf.Data)) // every block arrived
	// Output: <nil>
}

func ExampleEquivalent() {
	vecType := dkf.Vector(4, 2, 8, dkf.Byte)
	hindexedType := dkf.Hindexed([]int{2, 2, 2, 2}, []int64{0, 8, 16, 24}, dkf.Byte)
	la, lb := dkf.Commit(vecType), dkf.Commit(hindexedType)
	fmt.Println(la.Canonical() == lb.Canonical())         // same signature
	fmt.Println(dkf.Equivalent(vecType, hindexedType))    // without committing twice
	_, err := dkf.CommitE(dkf.Vector(-1, 1, 1, dkf.Byte)) // typed validation errors
	fmt.Println(errors.Is(err, dkf.ErrInvalidType))       // Commit remains the panicking wrapper
	// Output:
	// true
	// true
	// true
}

func ExampleSession_PlanStats() {
	sess, _ := dkf.NewSession(dkf.SessionConfig{})
	sparse := dkf.Commit(dkf.Indexed([]int{1, 2, 1}, []int{0, 4, 9}, dkf.Float32))
	buf := sess.Alloc(0, "buf", int(sparse.ExtentBytes))
	_ = sess.Run(func(c *dkf.RankCtx) {
		if c.ID() == 0 {
			c.Waitall([]*dkf.Request{c.Irecv(0, 0, buf, sparse, 1), c.Isend(0, 0, buf, sparse, 1)})
		}
	})
	ps := sess.PlanStats() // hits/misses + plans compiled by kind
	fmt.Println(ps.Hits, ps.Misses, ps.Compiled["gather"], ps.TotalCompiled())
	// Output: 1 1 1 1
}

func ExampleSession_Timeline() {
	sess, _ := dkf.NewSession(dkf.SessionConfig{
		Scheme: dkf.SchemeProposedTuned,
		Trace:  &dkf.TraceOptions{}, // default ring capacity (64k events/rank)
	})
	_ = sess.Run(func(c *dkf.RankCtx) { c.Barrier() })
	var trace bytes.Buffer                  // or a file, to open in Perfetto
	_ = sess.Timeline().WriteChrome(&trace) // Chrome trace-event JSON
	fmt.Println(json.Valid(trace.Bytes()))
	// Output: true
}

func ExampleRankCtx_Alltoallw() {
	sess, _ := dkf.NewSession(dkf.SessionConfig{
		Scheme: dkf.SchemeProposedTuned,
		Coll:   dkf.CollTuning{Alltoallw: dkf.CollHierarchical}, // or leave Auto
	})
	leg := dkf.Commit(dkf.Vector(64, 1, 2, dkf.Float64)) // every other double
	ops := make([][]dkf.WOp, sess.NumRanks())            // ops[rank][peer]
	for r := range ops {
		for p := range ops {
			send := sess.Alloc(r, fmt.Sprint("s", p), int(leg.ExtentBytes))
			dkf.FillPattern(send.Data, uint64(r*len(ops)+p))
			ops[r] = append(ops[r], dkf.WOp{SendBuf: send, SendType: leg, SendCount: 1,
				RecvBuf: sess.Alloc(r, fmt.Sprint("r", p), int(leg.ExtentBytes)), RecvType: leg, RecvCount: 1})
		}
	}
	err := sess.Run(func(c *dkf.RankCtx) { _ = c.Alltoallw(ops[c.ID()]) }) // on every rank (SPMD)
	fmt.Println(err, dkf.VerifyBlocks(leg, 1, ops[2][5].SendBuf.Data, ops[5][2].RecvBuf.Data))
	// Output: <nil> <nil>
}

func ExampleRankCtx_PutSignal() {
	sess, _ := dkf.NewSession(dkf.SessionConfig{Backend: dkf.BackendRMA})
	const n = 4096
	column := dkf.Commit(dkf.Vector(n/8, 1, 2, dkf.Float64)) // n bytes packed
	src := sess.Alloc(0, "src", int(column.ExtentBytes))
	_ = sess.Run(func(c *dkf.RankCtx) { // on every rank (SPMD)
		win, _ := c.Window("halo", 3*n)      // symmetric window rendezvous
		sig, _ := c.OpenSignal("arrived", 1) // slotted completion flags
		if c.ID() == 0 {
			_ = c.PutSignal(win, 1, 0, src, 0, n, sig, 0, 1)
			// Pack into our own region at 2n, deposit at rank 1's n: one
			// fused kernel whose retirement rings the doorbell.
			_ = c.PackPut(win, 1, n, src, column, 1, 2*n, sig, 0, 1, true)
		}
		if c.ID() == 1 {
			_ = c.WaitSignal(sig, 0, 2) // polls on the virtual clock
		}
		_ = c.Quiet() // drain; surfaces *RMAOpError
	})
	st := sess.RMAStats()
	fmt.Println(st.Puts, st.PackPuts, sess.RMAPendingOps())
	// Output: 1 1 0
}

func ExampleFaultPreset() {
	plan, _ := dkf.FaultPreset("drop-heavy", 42) // or dkf.ParseFaultPlan("drop=0.05,corrupt=0.02")
	sess, _ := dkf.NewSession(dkf.SessionConfig{
		Scheme: dkf.SchemeProposedTuned,
		Faults: plan,
	})
	column := dkf.Commit(dkf.Vector(256, 1, 256, dkf.Float64))
	sbuf := sess.Alloc(0, "src", int(column.ExtentBytes))
	rbuf := sess.Alloc(4, "dst", int(column.ExtentBytes))
	dkf.FillPattern(sbuf.Data, 1)
	err := sess.Run(func(c *dkf.RankCtx) { // delivery is still byte-exact, or a typed error
		switch c.ID() {
		case 0:
			c.Wait(c.Isend(4, 0, sbuf, column, 1))
		case 4:
			c.Wait(c.Irecv(0, 0, rbuf, column, 1))
		}
	})
	fmt.Println(err, dkf.VerifyBlocks(column, 1, sbuf.Data, rbuf.Data), len(sess.FaultEvents()) > 0)
	// Output: <nil> <nil> true
}
