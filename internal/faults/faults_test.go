package faults_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

func newCluster(t *testing.T, racks, perRack int, seed int64) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{Racks: racks, MachinesPerRack: perRack, Seed: seed, Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// apply plans camp on the cluster's own stream and arms it, as the
// experiment drivers do.
func apply(c *core.Cluster, camp faults.Campaign) (faults.Schedule, int) {
	return c.Faults.ApplyCampaign(camp, c.Eng.Rand())
}

func TestPaperCampaignSizes(t *testing.T) {
	if got := faults.Paper5Percent().Total(); got != 15 {
		t.Errorf("5%% campaign = %d machines, want 15", got)
	}
	if got := faults.Paper10Percent().Total(); got != 29 {
		t.Errorf("10%% campaign = %d machines, want 29 (paper reports ~30)", got)
	}
}

func TestApplyInjectsAllKinds(t *testing.T) {
	c, err := core.NewCluster(core.Config{Racks: 4, MachinesPerRack: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	camp := faults.Campaign{
		NodeDown: 2, PartialWorkerFailure: 3, SlowMachine: 4, SlowFactor: 5,
		Start: sim.Second, Window: 10 * sim.Second, KillFuxiMaster: true,
	}
	plan, skipped := apply(c, camp)
	if len(plan) != 10 {
		t.Fatalf("plan size = %d, want 10 (9 machines + master kill)", len(plan))
	}
	if skipped != 0 {
		t.Fatalf("skipped = %d on a 40-machine cluster, want 0", skipped)
	}
	// Victims are distinct machines.
	seen := map[int32]bool{}
	for _, f := range plan {
		if f.At < camp.Start || f.At >= camp.Start+camp.Window {
			t.Fatalf("%v at %v outside window", f.Kind, f.At)
		}
		for _, id := range f.Targets {
			if seen[id] {
				t.Fatalf("machine %d injected twice", id)
			}
			seen[id] = true
		}
	}
	c.Run(20 * sim.Second)
	// Effects landed, and (Downtime 0) stay.
	for _, f := range plan {
		if len(f.Targets) == 0 {
			continue
		}
		name := c.Top.MachineName(f.Targets[0])
		switch f.Kind {
		case faults.NodeDown:
			if c.Agents[f.Targets[0]].Up() {
				t.Errorf("%s still up", name)
			}
		case faults.PartialWorkerFailure:
			if !c.Faults.Broken(f.Targets[0]) {
				t.Errorf("%s not broken", name)
			}
		case faults.SlowMachine:
			if c.Slowdown(f.Targets[0]) != 5 {
				t.Errorf("%s slowdown = %v", name, c.Slowdown(f.Targets[0]))
			}
		}
	}
	in := c.Faults
	if in.Fired(faults.NodeDown) != 2 || in.Fired(faults.PartialWorkerFailure) != 3 ||
		in.Fired(faults.SlowMachine) != 4 || in.Fired(faults.FuxiMasterFailure) != 1 {
		t.Errorf("fired down=%d broken=%d slow=%d master=%d, want 2/3/4/1",
			in.Fired(faults.NodeDown), in.Fired(faults.PartialWorkerFailure),
			in.Fired(faults.SlowMachine), in.Fired(faults.FuxiMasterFailure))
	}
	// Master was killed; with no standby there is no primary.
	if c.Primary() != nil {
		t.Error("primary survived KillFuxiMaster")
	}
}

func TestApplyDeterministic(t *testing.T) {
	planOf := func() faults.Schedule {
		plan, _ := apply(newCluster(t, 3, 10, 7), faults.Paper5Percent())
		return plan
	}
	if a, b := planOf(), planOf(); !reflect.DeepEqual(a, b) {
		t.Fatalf("plans diverge:\n%+v\n%+v", a, b)
	}
}

func TestApplyMoreVictimsThanMachines(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	plan, skipped := apply(c, faults.Campaign{NodeDown: 10, Window: sim.Second})
	if len(plan) != 2 || skipped != 8 {
		t.Fatalf("placed %d, skipped %d on a 2-machine cluster, want 2 and 8: all 10 accounted for", len(plan), skipped)
	}
	for _, f := range plan {
		if len(f.Targets) != 1 {
			t.Errorf("placed fault without its victim: %+v", f)
		}
	}
}

// Regression: an early Apply returned when distinct victims ran out — the
// truncated kind AND every kind scheduled after it were silently dropped.
// Every configured fault must be accounted for: placed or counted as
// skipped, with the victims going to the kinds in campaign order.
func TestApplySkipsReportedNotSilent(t *testing.T) {
	c := newCluster(t, 1, 3, 5)
	camp := faults.Campaign{NodeDown: 2, PartialWorkerFailure: 2, SlowMachine: 2, SlowFactor: 4, Window: sim.Second}
	plan, skipped := apply(c, camp)
	if len(plan)+skipped != camp.Total() {
		t.Fatalf("%d placed + %d skipped, want every one of the %d configured faults accounted for", len(plan), skipped, camp.Total())
	}
	var kinds []faults.Kind
	for _, f := range plan {
		kinds = append(kinds, f.Kind)
	}
	want := []faults.Kind{faults.NodeDown, faults.NodeDown, faults.PartialWorkerFailure}
	if !reflect.DeepEqual(kinds, want) || skipped != 3 {
		t.Errorf("placed %v, skipped %d on a 3-machine cluster, want %v and 3", kinds, skipped, want)
	}
}

// A machine inside a PartialWorkerFailure window refuses to launch workers
// (and says why); once the window closes it no longer does.
func TestBrokenMachineRefusesWorkers(t *testing.T) {
	c := newCluster(t, 1, 1, 4)
	a := c.Agent("r000m000")
	var status []protocol.WorkerStatus
	c.Net.Register("app", func(_ transport.EndpointID, msg transport.Message) {
		if s, ok := msg.(protocol.WorkerStatus); ok {
			status = append(status, s)
		}
	})
	launch := func(worker uint32) {
		c.Net.SendID(c.Net.Endpoint("app"), c.Net.Endpoint(protocol.AgentEndpoint(a.Machine)), protocol.WorkPlan{
			UnitID: 1, Worker: worker, Size: resource.New(100, 100), Seq: uint64(len(status) + 1),
		})
		c.Run(sim.Second)
	}
	c.Faults.Fire(faults.Fault{Kind: faults.PartialWorkerFailure, Targets: []int32{0}, For: 5 * sim.Second})
	launch(1)
	if len(a.Procs()) != 0 {
		t.Error("broken machine started a process")
	}
	if len(status) != 1 || status[0].State != protocol.WorkerFailed {
		t.Fatalf("launch on a broken machine answered %+v, want one WorkerFailed", status)
	}
	broken := status[0].FailureDetail
	c.Run(5 * sim.Second)
	launch(2)
	if c.Faults.Broken(0) || (len(status) > 1 && status[1].FailureDetail == broken) {
		t.Errorf("machine still refuses launches after its window closed: %+v", status)
	}
}

func TestPlanOverAPool(t *testing.T) {
	camp := faults.Campaign{
		NodeDown: 1, PartialWorkerFailure: 2, SlowMachine: 2, SlowFactor: 6,
		KillFuxiMaster: true, Window: sim.Second, Downtime: 3 * sim.Second,
	}
	plan, skipped := camp.Plan(rand.New(rand.NewSource(21)), 6)
	if skipped != 0 || len(plan) != 6 {
		t.Fatalf("placed %d, skipped %d, want 6 and 0", len(plan), skipped)
	}
	n := map[faults.Kind]int{}
	seen := map[int32]bool{}
	for _, f := range plan {
		n[f.Kind]++
		switch f.Kind {
		case faults.FuxiMasterFailure:
			if len(f.Targets) != 0 || f.For != 0 {
				t.Errorf("master kill carries targets or a restart: %+v", f)
			}
			continue
		case faults.SlowMachine:
			if f.Factor != 6 {
				t.Errorf("slow factor %v, want 6", f.Factor)
			}
		}
		if f.For != camp.Downtime {
			t.Errorf("%v holds for %v, want the campaign's downtime", f.Kind, f.For)
		}
		if len(f.Targets) != 1 || seen[f.Targets[0]] {
			t.Errorf("victims not distinct across kinds: %+v", f)
		}
		seen[f.Targets[0]] = true
	}
	if n[faults.NodeDown] != 1 || n[faults.PartialWorkerFailure] != 2 || n[faults.SlowMachine] != 2 || n[faults.FuxiMasterFailure] != 1 {
		t.Errorf("kinds planned: %v", n)
	}
}

func TestCampaignFor(t *testing.T) {
	// 300 machines at 5% reproduces Table 3's column exactly.
	c := faults.CampaignFor(300, 5, 8)
	if c != (faults.Campaign{NodeDown: 2, PartialWorkerFailure: 2, SlowMachine: 11, SlowFactor: 8}) {
		t.Errorf("CampaignFor(300, 5%%) = %+v, want the Paper5Percent mix", c)
	}
	// Small clusters still get at least one victim of each kind.
	small := faults.CampaignFor(10, 5, 4)
	if small.NodeDown < 1 || small.PartialWorkerFailure < 1 || small.SlowMachine < 1 {
		t.Errorf("small-cluster campaign starves a kind: %+v", small)
	}
	// Scales roughly with cluster size.
	big := faults.CampaignFor(5000, 5, 4)
	if big.Total() < 240 || big.Total() > 260 {
		t.Errorf("5000-machine 5%% campaign totals %d victims, want ≈ 250", big.Total())
	}
}

func TestPlanNetworkFaults(t *testing.T) {
	camp := faults.Campaign{
		NodeDown:         1,
		NetworkPartition: 2, PartitionMachines: 2, PartitionFor: 3 * sim.Second,
		LinkFlap: 1, FlapDown: sim.Second, FlapUp: sim.Second, FlapCycles: 2,
		DelaySpike: 1, SpikeDelay: sim.Millisecond, SpikeFor: sim.Second,
		Window: sim.Second,
	}
	plan, skipped := camp.Plan(rand.New(rand.NewSource(9)), 6)
	if skipped != 0 || len(plan) != 5 {
		t.Fatalf("placed %d, skipped %d, want 5 and 0", len(plan), skipped)
	}
	var single []int32
	for _, f := range plan {
		switch f.Kind {
		case faults.NetworkPartition:
			if len(f.Targets) != 2 || f.Targets[0] >= f.Targets[1] || f.For != 3*sim.Second {
				t.Errorf("partition %+v, want 2 machines in ID order for 3 s", f)
			}
			continue
		case faults.LinkFlap:
			if f.Down != sim.Second || f.Up != sim.Second || f.Cycles != 2 {
				t.Errorf("flap parameters lost: %+v", f)
			}
		case faults.DelaySpike:
			if f.Delay != sim.Millisecond || f.For != sim.Second {
				t.Errorf("spike parameters lost: %+v", f)
			}
		}
		single = append(single, f.Targets...)
	}
	// Flap/spike victims come from the distinct pool shared with machine
	// faults.
	if len(single) != 3 || single[0] == single[1] || single[0] == single[2] || single[1] == single[2] {
		t.Errorf("victim reuse across kinds: killed, flapped, spiked = %v", single)
	}
}

// Campaigns without network faults must plan exactly as they did before the
// network kinds existed: the network block may not consume randomness when
// its counts are zero, and comes last when they are not.
func TestNetworkFaultsDoNotPerturbMachinePlans(t *testing.T) {
	planOf := func(camp faults.Campaign) faults.Schedule {
		plan, _ := camp.Plan(rand.New(rand.NewSource(11)), 6)
		return plan
	}
	base := faults.Campaign{NodeDown: 2, SlowMachine: 2, SlowFactor: 3, Window: sim.Second}
	a := planOf(base)
	withNet := base
	withNet.NetworkPartition = 1
	withNet.PartitionMachines = 2
	b := planOf(withNet)
	if len(b) != len(a)+1 {
		t.Fatalf("plan lengths %d vs %d", len(a), len(b))
	}
	if !reflect.DeepEqual(a, b[:len(a)]) {
		t.Fatalf("machine-fault plan perturbed:\n%+v\n%+v", a, b)
	}
	if b[len(b)-1].Kind != faults.NetworkPartition {
		t.Errorf("network fault not scheduled last: %+v", b[len(b)-1])
	}
}

func TestShuffleHelper(t *testing.T) {
	items := []string{"a", "b", "c", "d"}
	out := faults.Shuffle(rand.New(rand.NewSource(1)), items)
	if len(out) != 4 {
		t.Fatal("length changed")
	}
	if &out[0] == &items[0] {
		t.Error("shuffle aliased input")
	}
}
