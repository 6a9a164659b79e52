package master

import (
	"reflect"
	"testing"

	"repro/internal/lockservice"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

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

// die lets mc heartbeat for two seconds and then go silent past the
// heartbeat timeout, so the dead-agent scan declares it dead once.
func (h *masterHarness) die(t *testing.T, mc string) {
	t.Helper()
	h.beatFor(mc, 2*sim.Second)
	if h.m1.Scheduler().Down(h.top.MachineID(mc)) {
		t.Fatal("machine still down while heartbeating")
	}
	h.eng.Run(h.eng.Now() + 4*sim.Second)
	if !h.m1.Scheduler().Down(h.top.MachineID(mc)) {
		t.Fatal("machine not declared down after silence")
	}
}

// TestFlapBlacklistFromRepeatedTimeouts pins the cluster-level half of the
// multi-level blacklist: four heartbeat-timeout deaths inside one decay
// period blacklist the machine; healthy heartbeats alone must NOT
// rehabilitate it (a flapping node looks healthy between crashes); score
// decay does, once no other signal pins the machine.
func TestFlapBlacklistFromRepeatedTimeouts(t *testing.T) {
	h := newMasterHarness(t, Config{ProcessName: "fm-1"})
	mc := "r000m000"
	h.eng.Run(50 * sim.Millisecond) // promotion; the first decay is at 30 s
	s := h.m1.Scheduler()

	for death := 1; death <= 3; death++ {
		h.die(t, mc)
	}
	h.beat(mc)
	h.eng.Run(h.eng.Now() + 100*sim.Millisecond)
	if s.Blacklisted(h.top.MachineID(mc)) {
		t.Fatal("blacklisted after three deaths (threshold is four)")
	}
	h.die(t, mc) // death #4, before the first decay
	h.beat(mc)
	h.eng.Run(h.eng.Now() + 100*sim.Millisecond)
	if !s.Blacklisted(h.top.MachineID(mc)) {
		t.Fatal("four deaths inside the decay period did not blacklist")
	}

	// Healthy beats must not clear a flap blacklist.
	h.beatFor(mc, 3*sim.Second)
	if now := h.eng.Now(); now >= flapDecayEvery {
		t.Fatalf("setup: healthy beats ran to %v, past the first decay", now)
	}
	if !s.Blacklisted(h.top.MachineID(mc)) {
		t.Fatal("healthy heartbeats rehabilitated a flapping machine")
	}

	// Decay does: one point at 30 s takes the score of 8 below the threshold.
	h.beatFor(mc, 5*sim.Second)
	if s.Blacklisted(h.top.MachineID(mc)) {
		t.Fatal("flap score decay did not rehabilitate the machine")
	}
}

// TestFlapBlacklistFromSurpriseRestarts pins the second signal: an agent
// restart announcing itself with a CapacityQuery while the master thought
// the machine was up counts as a death too.
func TestFlapBlacklistFromSurpriseRestarts(t *testing.T) {
	h := newMasterHarness(t, Config{ProcessName: "fm-1"})
	mc := "r000m000"
	h.eng.Run(50 * sim.Millisecond)
	s := h.m1.Scheduler()

	for i := 0; i < 4; i++ {
		h.beat(mc)
		h.eng.Run(h.eng.Now() + 200*sim.Millisecond)
		h.net.SendID(h.net.Endpoint(protocol.AgentEndpoint(mc)), h.net.Endpoint(protocol.MasterEndpoint), protocol.CapacityQuery{
			Machine: h.top.MachineID(mc), Seq: h.seq.Next(),
		})
		h.eng.Run(h.eng.Now() + 200*sim.Millisecond)
	}
	if !s.Blacklisted(h.top.MachineID(mc)) {
		t.Fatal("four surprise restarts did not blacklist")
	}

	// The recovery query of a timeout-declared death must not double-count:
	// a fresh machine that dies twice (scored 4) and restarts with a query
	// each time while still marked down stays under the threshold, where
	// counting the queries too would reach it.
	mc2 := "r000m001"
	for i := 0; i < 2; i++ {
		h.die(t, mc2)
		h.net.SendID(h.net.Endpoint(protocol.AgentEndpoint(mc2)), h.net.Endpoint(protocol.MasterEndpoint), protocol.CapacityQuery{
			Machine: h.top.MachineID(mc2), Seq: h.seq.Next(),
		})
		h.eng.Run(h.eng.Now() + 200*sim.Millisecond)
	}
	if now := h.eng.Now(); now >= flapDecayEvery {
		t.Fatalf("setup: deaths ran to %v, past the first decay", now)
	}
	if s.Blacklisted(h.top.MachineID(mc2)) {
		t.Fatal("recovery CapacityQuery double-counted a timeout death")
	}
}

// TestPromotionRestoresBlacklistPins promotes over a checkpoint whose
// blacklist holds a vote-pinned, a flap-pinned and a health-only machine and
// one the topology does not hold. The unknown name is skipped; healthy
// heartbeats clear the health-only machine and neither pinned one.
func TestPromotionRestoresBlacklistPins(t *testing.T) {
	eng := sim.NewEngine(9)
	h := &masterHarness{eng: eng, net: transport.NewNet(eng), lock: lockservice.New(eng),
		ckpt: NewCheckpointStore(), top: testTop(t, 2, 2)}
	h.ckpt.SetBlacklist([]BlacklistEntry{
		{Machine: "r000m000", Pins: pinVotes},
		{Machine: "r000m001", Pins: pinFlap},
		{Machine: "r001m000"},
		{Machine: "r009m009", Pins: pinVotes},
	})
	h.m1 = NewMaster(Config{ProcessName: "fm-1"}, eng, h.net, h.lock, h.top, h.ckpt)
	h.eng.Run(50 * sim.Millisecond) // promotion
	s := h.m1.Scheduler()
	listed := []string{"r000m000", "r000m001", "r001m000"}
	for _, mc := range listed {
		if !s.Blacklisted(h.top.MachineID(mc)) {
			t.Fatalf("promotion did not restore %s to the blacklist", mc)
		}
	}
	for _, mc := range listed {
		h.beat(mc)
	}
	h.eng.Run(h.eng.Now() + 100*sim.Millisecond)
	for mc, want := range map[string]bool{"r000m000": true, "r000m001": true, "r001m000": false} {
		if got := s.Blacklisted(h.top.MachineID(mc)); got != want {
			t.Errorf("%s blacklisted = %v after a healthy heartbeat, want %v", mc, got, want)
		}
	}
	want := []BlacklistEntry{{Machine: "r000m000", Pins: pinVotes}, {Machine: "r000m001", Pins: pinFlap}}
	if got := h.ckpt.Load().Blacklist; !reflect.DeepEqual(got, want) {
		t.Errorf("checkpointed blacklist = %v, want %v", got, want)
	}
}

// TestPinOnListedMachineIsCheckpointed lists a machine by its health score,
// then lets two applications vote it bad: the vote pin it gains while listed
// reaches the checkpoint in one write, so a successor would keep it listed.
func TestPinOnListedMachineIsCheckpointed(t *testing.T) {
	h := newMasterHarness(t, Config{ProcessName: "fm-1"})
	h.eng.Run(50 * sim.Millisecond) // promotion
	mc := h.top.MachineID("r000m000")
	for i := 0; i < healthScoreStrikes; i++ {
		h.net.SendID(h.net.Endpoint(protocol.AgentEndpoint("r000m000")), h.net.Endpoint(protocol.MasterEndpoint),
			&protocol.AgentHeartbeat{Machine: mc, HealthScore: healthScoreThreshold - 1, Seq: h.seq.Next()})
		h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	}
	if got, want := h.ckpt.Load().Blacklist, []BlacklistEntry{{Machine: "r000m000"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after health strikes the checkpoint lists %v, want %v", got, want)
	}
	writes := h.ckpt.BlacklistWrites
	var seqs [2]protocol.Sequencer
	for i, app := range []string{"app1", "app2"} {
		h.sendFrom(app, protocol.BadMachineReport{App: app, Machine: mc, Seq: seqs[i].Next()})
	}
	if got, want := h.ckpt.Load().Blacklist, []BlacklistEntry{{Machine: "r000m000", Pins: pinVotes}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after two votes the checkpoint lists %v, want %v", got, want)
	}
	if n := h.ckpt.BlacklistWrites - writes; n != 1 {
		t.Errorf("the vote pin took %d blacklist writes, want 1", n)
	}
}
