package core

import (
	"testing"

	"repro/internal/appmaster"
	"repro/internal/master"
	"repro/internal/resource"
	"repro/internal/sim"
)

// The cluster blacklist is hard state (paper §4.3): a promoted FuxiMaster
// restores each listed machine together with the pins that held it on its
// predecessor, so the rule that would have cleared it there is the rule that
// clears it on the successor. A successor that restored the list alone saw
// no pin and rehabilitated the machine at its first healthy heartbeat.

// failover crashes the primary and runs until its standby has promoted and
// closed recovery; it returns the new primary.
func failover(t *testing.T, c *Cluster) *master.Master {
	t.Helper()
	old := c.KillPrimaryMaster()
	c.Run(master.LockTTL + master.RecoveryWindow + sim.Second)
	p := c.Primary()
	if p == nil || p == old {
		t.Fatal("the standby did not take over")
	}
	return p
}

// listed returns the checkpointed blacklist entry of machine.
func listed(c *Cluster, machine string) (master.BlacklistEntry, bool) {
	for _, e := range c.Ckpt.Load().Blacklist {
		if e.Machine == machine {
			return e, true
		}
	}
	return master.BlacklistEntry{}, false
}

func TestVoteBlacklistSurvivesFailover(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 2, Seed: 21, Standby: true})
	bad := c.Top.MachineID("r000m001")
	for _, app := range []string{"app1", "app2"} {
		am := c.NewAppMaster(appmaster.Config{App: app, Units: []resource.ScheduleUnit{simpleUnit(1, 100, 1)}},
			appmaster.NoCallbacks{})
		c.Run(100 * sim.Millisecond)
		am.ReportBadMachine(bad)
	}
	c.Run(sim.Second)
	if !c.Scheduler().Blacklisted(bad) {
		t.Fatal("setup: two applications' votes did not blacklist the machine")
	}
	if e, ok := listed(c, "r000m001"); !ok || e.Pins == 0 {
		t.Fatalf("checkpoint lists %+v (%v), want the machine with its vote pin", e, ok)
	}

	failover(t, c)
	c.Run(3 * sim.Second) // healthy heartbeats
	if !c.Scheduler().Blacklisted(bad) {
		t.Fatal("the successor's first healthy heartbeat cleared a vote-blacklisted machine")
	}
	if _, ok := listed(c, "r000m001"); !ok {
		t.Fatal("the successor dropped the machine from the checkpointed blacklist")
	}
}

func TestFlapBlacklistSurvivesFailover(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 2, Seed: 22, Standby: true})
	flappy := c.Top.MachineID("r000m000")
	c.Run(2 * sim.Second) // the master has heard the machine
	// Each outage outlasts the heartbeat timeout and each restart lasts
	// until a beat lands, so each cycle is one death; four inside the 30 s
	// decay period blacklist the machine.
	for i := 0; i < 4; i++ {
		c.KillMachine("r000m000")
		c.Run(4500 * sim.Millisecond)
		c.RestartMachine("r000m000")
		c.Run(1500 * sim.Millisecond)
	}
	if !c.Scheduler().Blacklisted(flappy) {
		t.Fatal("setup: four deaths did not blacklist the machine")
	}
	if c.Now() >= 30*sim.Second {
		t.Fatalf("setup: deaths ran to %v, past the first flap decay", c.Now())
	}

	p := failover(t, c)
	promoted := c.Now()
	c.Run(3 * sim.Second) // healthy heartbeats
	if !c.Scheduler().Blacklisted(flappy) {
		t.Fatal("the successor's first healthy heartbeat cleared a flap-blacklisted machine")
	}
	// The decay path still clears it, on the successor's own decay clock.
	c.Eng.Run(promoted + 31*sim.Second)
	if c.Primary() != p {
		t.Fatal("setup: primary changed again")
	}
	if c.Scheduler().Blacklisted(flappy) {
		t.Fatal("flap decay on the successor did not rehabilitate the machine")
	}
}

func TestHealthBlacklistRehabilitatedAfterFailover(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 2, Seed: 23, Standby: true})
	sick := c.Top.MachineID("r000m000")
	c.Run(sim.Second)
	c.Agent("r000m000").SetHealth(5)
	c.Run(5 * sim.Second)
	if !c.Scheduler().Blacklisted(sick) {
		t.Fatal("setup: a sick machine was not blacklisted")
	}
	if e, ok := listed(c, "r000m000"); !ok || e.Pins != 0 {
		t.Fatalf("checkpoint lists %+v (%v), want the machine with no pin", e, ok)
	}

	failover(t, c)
	if !c.Scheduler().Blacklisted(sick) {
		t.Fatal("the successor lost a machine that stayed sick")
	}
	c.Agent("r000m000").SetHealth(100)
	c.Run(2 * sim.Second)
	if c.Scheduler().Blacklisted(sick) {
		t.Fatal("a machine listed by its health score alone outlived its first healthy heartbeat")
	}
	if _, ok := listed(c, "r000m000"); ok {
		t.Fatal("the checkpoint still lists the rehabilitated machine")
	}
}
