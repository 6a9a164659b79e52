package baseline

import (
	"testing"

	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

func testTop(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.Build(topology.Spec{
		Racks: 2, MachinesPerRack: 2,
		MachineCapacity: resource.New(12000, 96*1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestWorkloadCompletes(t *testing.T) {
	res, err := RunWorkload(testTop(t), AMConfig{
		App: "b1", Size: resource.New(1000, 2048),
		Instances: 20, Duration: sim.Second, Heartbeat: sim.Second,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanSec <= 0 {
		t.Errorf("makespan = %v", res.MakespanSec)
	}
	if res.Messages == 0 || res.Decisions == 0 {
		t.Errorf("no traffic recorded: %+v", res)
	}
}

func TestMaxContainersRespected(t *testing.T) {
	eng := sim.NewEngine(2)
	net := transport.NewNet(eng)
	NewRM(eng, net, testTop(t))
	am := NewAM(AMConfig{
		App: "b2", Size: resource.New(1000, 2048),
		Instances: 10, Duration: 2 * sim.Second, MaxContainers: 2, Heartbeat: sim.Second,
	}, eng, net)
	peak := 0
	for i := 0; i < 200 && !am.Done(); i++ {
		eng.Run(eng.Now() + 100*sim.Millisecond)
		if am.running > peak {
			peak = am.running
		}
	}
	if !am.Done() {
		t.Fatal("workload incomplete")
	}
	if peak > 2 {
		t.Errorf("peak containers = %d, want <= 2", peak)
	}
}

func TestPerTaskReallocationCostsRounds(t *testing.T) {
	// 1 container, N sequential tasks: each task completion forces a full
	// heartbeat round trip before the next starts, so the makespan is at
	// least N * (duration + heartbeat-ish gap), clearly above N * duration.
	const n = 10
	res, err := RunWorkload(testTop(t), AMConfig{
		App: "b3", Size: resource.New(1000, 2048),
		Instances: n, Duration: sim.Second, MaxContainers: 1, Heartbeat: sim.Second,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanSec < float64(n)*1.3 {
		t.Errorf("makespan %.1fs too fast: no per-task reallocation penalty visible", res.MakespanSec)
	}
}

func TestFullDemandHeartbeatsKeepFlowing(t *testing.T) {
	// With demand outstanding and a busy cluster, the AM keeps re-sending
	// full requests every heartbeat — the message overhead the incremental
	// protocol removes.
	eng := sim.NewEngine(4)
	net := transport.NewNet(eng)
	top, err := topology.Build(topology.Spec{
		Racks: 1, MachinesPerRack: 1,
		MachineCapacity: resource.New(1000, 2048), // fits exactly 1 container
	})
	if err != nil {
		t.Fatal(err)
	}
	NewRM(eng, net, top)
	NewAM(AMConfig{
		App: "b4", Size: resource.New(1000, 2048),
		Instances: 50, Duration: 30 * sim.Second, Heartbeat: sim.Second,
	}, eng, net)
	eng.Run(20 * sim.Second)
	if sent := net.Stats().Sent; sent < 15 {
		t.Errorf("messages in 20s = %d, want >= 15 (per-heartbeat full requests)", sent)
	}
}

func TestSurplusAllocationReturned(t *testing.T) {
	res, err := RunWorkload(testTop(t), AMConfig{
		App: "b5", Size: resource.New(500, 1024),
		Instances: 3, Duration: 500 * sim.Millisecond, MaxContainers: 3, Heartbeat: 250 * sim.Millisecond,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanSec <= 0 {
		t.Error("did not complete")
	}
}

// TestRMsKeepTheirOwnAppSizes: two resource managers in one process that
// each host an app of the same name, at different sizes, keep separate
// books. Every container RM 1 granted comes back at RM 1's size, so its
// pool ends exactly at capacity.
func TestRMsKeepTheirOwnAppSizes(t *testing.T) {
	top := testTop(t)
	eng1 := sim.NewEngine(6)
	net1 := transport.NewNet(eng1)
	rm1 := NewRM(eng1, net1, top)
	am1 := NewAM(AMConfig{
		App: "x", Size: resource.New(1000, 2048),
		Instances: 8, Duration: 10 * sim.Second, Heartbeat: sim.Second,
	}, eng1, net1)
	eng1.Run(2 * sim.Second) // RM 1's containers are out

	eng2 := sim.NewEngine(7)
	net2 := transport.NewNet(eng2)
	NewRM(eng2, net2, top)
	NewAM(AMConfig{
		App: "x", Size: resource.New(4000, 2048),
		Instances: 1, Duration: sim.Second, Heartbeat: sim.Second,
	}, eng2, net2)
	eng2.Run(sim.Minute)

	eng1.Run(sim.Hour)
	if !am1.Done() {
		t.Fatal("RM 1's workload incomplete")
	}
	for _, m := range top.Machines() {
		if got, want := rm1.free[m], top.Machine(m).Capacity; !got.Equal(want) {
			t.Errorf("RM 1 frees %v on %s after every task returned, want its capacity %v", got, m, want)
		}
	}
}
