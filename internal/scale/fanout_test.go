package scale

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestOneCapacityDeltaPerAgentPerInstant runs every smoke lane with a tap on
// the master's capacity messages: no agent is sent two CapacityDeltas at one
// instant. (A capacity sync and a recovery nudge send their agent's open
// message early, and a stand-down and an obs round every agent's, so a touch
// after one of them in the same instant would send an agent a second; no
// smoke lane makes one.)
func TestOneCapacityDeltaPerAgentPerInstant(t *testing.T) {
	for _, l := range Lanes {
		if l.Smoke == nil {
			continue
		}
		t.Run(l.Name, func(t *testing.T) {
			cfg := l.Smoke()
			cfg.Seed = 1
			h, err := newHarness(cfg)
			if err != nil {
				t.Fatal(err)
			}
			type key struct {
				to string
				at sim.Time
			}
			seen := map[key]bool{}
			h.cl.Net.Tap = func(_, to string, msg transport.Message) {
				if _, ok := msg.(*protocol.CapacityDelta); ok {
					k := key{to, h.cl.Eng.Now()}
					if seen[k] {
						t.Errorf("%s sent a second CapacityDelta at %v", to, k.at)
					}
					seen[k] = true
				}
			}
			h.run()
			if len(seen) == 0 {
				t.Fatal("no CapacityDelta sent")
			}
		})
	}
}
