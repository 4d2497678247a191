package dkf_test

import (
	"errors"
	"strings"
	"testing"

	dkf "repro"
)

func TestCommitETypedErrors(t *testing.T) {
	bad := dkf.Vector(4, -1, 8, dkf.Byte)
	l, err := dkf.CommitE(bad)
	if l != nil || err == nil {
		t.Fatalf("CommitE(invalid) = %v, %v; want nil, error", l, err)
	}
	if !errors.Is(err, dkf.ErrInvalidType) {
		t.Fatalf("error %v does not unwrap to ErrInvalidType", err)
	}
	var ite *dkf.InvalidTypeError
	if !errors.As(err, &ite) || ite.Constructor != "Vector" {
		t.Fatalf("error %v is not an *InvalidTypeError naming Vector", err)
	}

	// Commit stays the panicking wrapper (Alloc/AllocE convention).
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Commit(invalid) did not panic")
		}
	}()
	dkf.Commit(bad)
}

func TestCanonicalAndEquivalentExposed(t *testing.T) {
	a := dkf.Vector(4, 2, 8, dkf.Byte)
	b := dkf.Hindexed([]int{2, 2, 2, 2}, []int64{0, 8, 16, 24}, dkf.Byte)
	if !dkf.Equivalent(a, b) {
		t.Fatal("vector and its hindexed spelling should be equivalent")
	}
	la, lb := dkf.Commit(a), dkf.Commit(b)
	if la.Canonical() == "" || la.Canonical() != lb.Canonical() {
		t.Fatalf("canonical signatures differ:\n %s\n %s", la.Canonical(), lb.Canonical())
	}
	// Debug output names the canonical family.
	if s := la.String(); !strings.Contains(s, "canon") {
		t.Fatalf("Layout.String() = %q should include the canonical form", s)
	}
	if dkf.Equivalent(a, dkf.Vector(4, 3, 8, dkf.Byte)) {
		t.Fatal("different payloads reported equivalent")
	}
}

func TestSessionPlanStats(t *testing.T) {
	sess, err := dkf.NewSession(dkf.SessionConfig{Scheme: "Proposed-Tuned"})
	if err != nil {
		t.Fatal(err)
	}
	// Two equivalent spellings of the same layout: one compile, later hits.
	la := dkf.Commit(dkf.Vector(16, 8, 32, dkf.Byte))
	lb := dkf.Commit(dkf.Hvector(16, 8, 32, dkf.Byte))
	sbuf := sess.Alloc(0, "s", int(la.ExtentBytes)*2)
	rbuf := sess.Alloc(4, "r", int(la.ExtentBytes)*2)
	dkf.FillPattern(sbuf.Data, 3)
	err = sess.Run(func(c *dkf.RankCtx) {
		switch c.ID() {
		case 0:
			c.Wait(c.Isend(4, 0, sbuf, la, 2))
			c.Wait(c.Isend(4, 1, sbuf, lb, 2))
		case 4:
			c.Wait(c.Irecv(0, 0, rbuf, la, 2))
			c.Wait(c.Irecv(0, 1, rbuf, lb, 2))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	on := sess.PlanStats()
	if on.Misses == 0 {
		t.Fatal("expected at least one canonical-cache miss")
	}
	if on.Hits == 0 {
		t.Fatal("equivalent spellings at equal count should hit the canonical cache")
	}
	if on.TotalCompiled() != on.Misses {
		t.Fatalf("compiles (%d) should track misses (%d): one plan per cache entry",
			on.TotalCompiled(), on.Misses)
	}
	// count=2 of this vector breaks the stride run at the repeat seam
	// (extent 488 != stride 32), so the compiled plan is a gather.
	if n := on.Compiled["gather"]; n == 0 {
		t.Fatalf("repeated vector layout should compile a gather plan, got %v", on.Compiled)
	}
}
