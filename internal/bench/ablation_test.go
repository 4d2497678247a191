package bench

import "testing"

func TestAblationSyncVsStatusPoll(t *testing.T) {
	tab := figure(t, "ablations")[0]
	poll := mustF(t, tab.Rows[0][1])
	sync := mustF(t, tab.Rows[1][1])
	if poll >= sync {
		t.Fatalf("status-poll (%f) should beat boundary-sync (%f)", poll, sync)
	}
}

func TestAblationFlushPolicy(t *testing.T) {
	tab := figure(t, "ablations")[1]
	nothing := mustF(t, tab.Rows[0][1])
	tuned := mustF(t, tab.Rows[1][1])
	if tuned >= nothing {
		t.Fatalf("tuned threshold (%f) should beat fuse-nothing (%f)", tuned, nothing)
	}
	// fuse-everything delays communication; it must not beat tuned.
	everything := mustF(t, tab.Rows[2][1])
	if everything < tuned {
		t.Fatalf("fuse-everything (%f) unexpectedly beats tuned (%f)", everything, tuned)
	}
}

func TestAblationPartitioning(t *testing.T) {
	tab := figure(t, "ablations")[2]
	prop := mustF(t, tab.Rows[0][1])
	uniform := mustF(t, tab.Rows[1][1])
	if prop > uniform {
		t.Fatalf("work-proportional (%f) should not lose to uniform (%f)", prop, uniform)
	}
}

func TestAblationRendezvous(t *testing.T) {
	tab := figure(t, "ablations")[3]
	rget := mustF(t, tab.Rows[0][1])
	rput := mustF(t, tab.Rows[1][1])
	// RPUT overlaps the handshake with packing; it should not be slower.
	if rput > rget*1.05 {
		t.Fatalf("RPUT (%f) should not be slower than RGET (%f)", rput, rget)
	}
}

func TestAblationLayoutCache(t *testing.T) {
	tab := figure(t, "ablations")[4]
	cached := mustF(t, tab.Rows[0][1])
	uncached := mustF(t, tab.Rows[1][1])
	if cached >= uncached {
		t.Fatalf("cached (%f) should beat flatten-every-message (%f)", cached, uncached)
	}
}

func TestAblationPipelineBounded(t *testing.T) {
	tab := figure(t, "ablations")[5]
	whole := mustF(t, tab.Rows[0][1])
	chunked := mustF(t, tab.Rows[1][1])
	if chunked > whole*1.3 {
		t.Fatalf("chunked (%f) should stay within 30%% of whole-message (%f)", chunked, whole)
	}
}
