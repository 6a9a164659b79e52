package master

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
)

// flapHarness drives one master with manual heartbeats from a single
// machine, so the test controls exactly when the dead-agent scan sees a
// timeout.
func flapConfig() Config {
	cfg := DefaultConfig("fm-1")
	cfg.FlapPenalty = 2
	cfg.FlapThreshold = 4
	cfg.FlapDecayEvery = 5 * sim.Second
	cfg.FlapDecayStep = 2
	return cfg
}

func (h *masterHarness) beat(mc string) {
	h.net.SendID(h.net.Endpoint(protocol.AgentEndpoint(mc)), h.net.Endpoint(protocol.MasterEndpoint), &protocol.AgentHeartbeat{
		Machine: h.top.MachineID(mc), HealthScore: 100, Seq: h.seq.Next(),
	})
}

func (h *masterHarness) beatFor(mc string, d sim.Time) {
	end := h.eng.Now() + d
	for h.eng.Now() < end {
		h.beat(mc)
		h.eng.Run(h.eng.Now() + sim.Second)
	}
}

// TestFlapBlacklistFromRepeatedTimeouts pins the cluster-level half of the
// multi-level blacklist: two heartbeat-timeout deaths inside the decay
// window blacklist the machine; healthy heartbeats alone must NOT
// rehabilitate it (a flapping node looks healthy between crashes); score
// decay does, once no other signal pins the machine.
func TestFlapBlacklistFromRepeatedTimeouts(t *testing.T) {
	cfg := flapConfig()
	cfg.FlapDecayEvery = 20 * sim.Second // slow decay: both deaths land inside the window
	h := newMasterHarness(t, cfg)
	mc := "r000m000"
	h.eng.Run(50 * sim.Millisecond) // promotion
	s := h.m1.Scheduler()

	h.beatFor(mc, 2*sim.Second)
	h.eng.Run(h.eng.Now() + 5*sim.Second) // silence > timeout: death #1
	if !s.Down(mc) {
		t.Fatal("machine not declared down after silence")
	}
	if s.Blacklisted(mc) {
		t.Fatal("blacklisted after a single death (threshold is two)")
	}
	h.beatFor(mc, 2*sim.Second) // recovers...
	if s.Down(mc) {
		t.Fatal("machine still down while heartbeating")
	}
	h.eng.Run(h.eng.Now() + 5*sim.Second) // ...and dies again: death #2
	h.beat(mc)
	h.eng.Run(h.eng.Now() + 100*sim.Millisecond)
	if !s.Blacklisted(mc) {
		t.Fatal("two deaths inside the decay window did not blacklist")
	}

	// Healthy beats must not clear a flap blacklist.
	h.beatFor(mc, 3*sim.Second)
	if !s.Blacklisted(mc) {
		t.Fatal("healthy heartbeats rehabilitated a flapping machine")
	}

	// Decay does: 2 points per 20s from a score of 4.
	h.beatFor(mc, 25*sim.Second)
	if s.Blacklisted(mc) {
		t.Fatal("flap score decay did not rehabilitate the machine")
	}
}

// TestFlapBlacklistFromSurpriseRestarts pins the second signal: an agent
// restart announcing itself with a CapacityQuery while the master thought
// the machine was up counts as a death too.
func TestFlapBlacklistFromSurpriseRestarts(t *testing.T) {
	h := newMasterHarness(t, flapConfig())
	mc := "r000m000"
	h.eng.Run(50 * sim.Millisecond)
	s := h.m1.Scheduler()

	for i := 0; i < 2; i++ {
		h.beat(mc)
		h.eng.Run(h.eng.Now() + 200*sim.Millisecond)
		h.net.SendID(h.net.Endpoint(protocol.AgentEndpoint(mc)), h.net.Endpoint(protocol.MasterEndpoint), protocol.CapacityQuery{
			Machine: h.top.MachineID(mc), Seq: h.seq.Next(),
		})
		h.eng.Run(h.eng.Now() + 200*sim.Millisecond)
	}
	if !s.Blacklisted(mc) {
		t.Fatal("two surprise restarts did not blacklist")
	}

	// The recovery query of a timeout-declared death must not double-count:
	// a fresh machine that dies once (scored 2) and restarts with a query
	// while still marked down stays under the threshold.
	mc2 := "r000m001"
	h.beatFor(mc2, 2*sim.Second)
	h.eng.Run(h.eng.Now() + 5*sim.Second) // timeout death (+2)
	if !s.Down(mc2) {
		t.Fatal("second machine not declared down")
	}
	h.net.SendID(h.net.Endpoint(protocol.AgentEndpoint(mc2)), h.net.Endpoint(protocol.MasterEndpoint), protocol.CapacityQuery{
		Machine: h.top.MachineID(mc2), Seq: h.seq.Next(),
	})
	h.eng.Run(h.eng.Now() + 200*sim.Millisecond)
	if s.Blacklisted(mc2) {
		t.Fatal("recovery CapacityQuery double-counted a timeout death")
	}
}
