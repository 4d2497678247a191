package rma

import (
	"testing"
	"unsafe"
)

// TestOpSize pins an op at the 128-B size class: one is allocated per
// one-sided leg, so a field that pushes it past 128 B costs every put.
func TestOpSize(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n != 128 {
		t.Fatalf("op is %d B, want 128", n)
	}
}
