package mpi

import (
	"testing"
	"unsafe"
)

// TestRequestSize pins Request in the 160-B size class: every two-sided
// leg makes two, and state that only some legs use belongs behind a
// pointer (pipe, rel).
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got > 160 {
		t.Fatalf("Request is %d B, want at most 160", got)
	}
}

// TestMessageSize pins message at 128 B: every eager frame, envelope and
// tracked frame is one.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(message{}); got != 128 {
		t.Fatalf("message is %d B, want 128", got)
	}
}
