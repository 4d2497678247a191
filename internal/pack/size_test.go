package pack

import (
	"testing"
	"unsafe"
)

// TestJobSize pins a Job at exactly 56 B and a Peer at no more than 24 B:
// a fusion request-list entry holds its job inline, and a DirectIPC leg
// makes one Peer.
func TestJobSize(t *testing.T) {
	if n := unsafe.Sizeof(Job{}); n != 56 {
		t.Errorf("Job is %d B, want 56", n)
	}
	if n := unsafe.Sizeof(Peer{}); n > 24 {
		t.Errorf("Peer is %d B, want at most 24", n)
	}
}
