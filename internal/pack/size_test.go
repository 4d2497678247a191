package pack

import (
	"testing"
	"unsafe"

	"repro/internal/layoutcache"
)

var sinkJob *Job

// TestJobSize pins a Job at no more than 96 B, and a DirectIPC job with
// its Peer, made together by DirectIPCFor in one allocation, at no more
// than 144 B: one job is allocated per leg that is not packed from its op.
func TestJobSize(t *testing.T) {
	if n := unsafe.Sizeof(Job{}); n > 96 {
		t.Errorf("Job is %d B, want at most 96", n)
	}
	if n := unsafe.Sizeof(ipcJob{}); n > 144 {
		t.Errorf("a DirectIPC job and its Peer are %d B, want at most 144", n)
	}
	e := &layoutcache.Entry{}
	if n := testing.AllocsPerRun(10, func() { sinkJob = DirectIPCFor(nil, nil, e, Peer{}) }); n != 1 {
		t.Errorf("DirectIPCFor allocates %v times, want 1", n)
	}
}
