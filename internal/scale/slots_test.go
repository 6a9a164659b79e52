package scale

import (
	"fmt"
	"testing"
)

// TestEndpointSlotsOrderNothing is a metamorphic relation over every smoke
// lane: interning K endpoint names that no one ever uses, after the cluster
// boots and before the workload runs, shifts the slot of every endpoint
// minted later (every application master, every JobMaster worker) by K. The
// run must not notice: an endpoint ID is an address, and nothing may order,
// hash or break ties by one. So every golden field — counts, hashes, the
// gateway's and the replay's decision streams, the obs query checksum — is
// the same at K = 1 and K = 257 as at K = 0.
func TestEndpointSlotsOrderNothing(t *testing.T) {
	run := func(t *testing.T, l *Lane, k int) golden {
		t.Helper()
		cfg := l.Smoke()
		cfg.Seed = 1
		cfg.RecordDecisionHash = true
		h, err := newHarness(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			h.net.Endpoint(fmt.Sprintf("unused-%d", i))
		}
		return goldenOf(h.run())
	}
	for i := range Lanes {
		l := &Lanes[i]
		if l.Smoke == nil {
			continue
		}
		t.Run(l.Name, func(t *testing.T) {
			base := run(t, l, 0)
			for _, k := range []int{1, 257} {
				if got := run(t, l, k); got != base {
					t.Errorf("K=%d unused endpoints moved the run:\n got  %+v\n want %+v", k, got, base)
				}
			}
		})
	}
}
