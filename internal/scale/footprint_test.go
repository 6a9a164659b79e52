package scale

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/agent"
	"repro/internal/appmaster"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// heapCost runs fn and returns the objects and bytes it allocated (live or
// not: the counters only grow, so a collection in the middle does not matter).
func heapCost(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestPerProcessFootprint guards the compact per-process tables against the
// obvious over-correction: a "dense" table indexed by machine or by app would
// be fast and O(cluster) per agent or per application master, and replay
// builds tens of thousands of short-lived masters. It builds the replay smoke
// cluster's agents, then walks replay-shaped application masters through one
// job (register, demand with a machine hint, grants on several machines,
// returns, unregister), and holds the objects and bytes per process to what
// the same walk cost with the map-based tables these replaced (measured at
// that commit with this file: 12.6 objects / 1,684 bytes per agent, 43.0 /
// 3,078 per master, timers and transport included; both repeat exactly).
func TestPerProcessFootprint(t *testing.T) {
	const (
		maxAgentMallocs, maxAgentBytes = 12.6, 1684.0
		maxAMMallocs, maxAMBytes       = 43.0, 3078.0
		jobs                           = 2000
	)
	cfg := SmokeReplayConfig()
	top, err := topology.Build(topology.Spec{
		Racks: cfg.Racks, MachinesPerRack: cfg.MachinesPerRack,
		MachineCapacity: topology.PaperTestbedMachine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(cfg.Seed)
	net := transport.NewNet(eng)
	net.Register(protocol.MasterEndpoint, func(transport.EndpointID, transport.Message) {})
	machines := top.Machines()

	var agents []*agent.Agent
	mallocs, bytes := heapCost(func() {
		acfg := agent.DefaultConfig()
		for _, m := range machines {
			agents = append(agents, agent.New(acfg, eng, net, top.Machine(m)))
		}
	})
	perAgentMallocs := float64(mallocs) / float64(len(agents))
	perAgentBytes := float64(bytes) / float64(len(agents))
	t.Logf("per agent: %.1f objects, %.0f bytes", perAgentMallocs, perAgentBytes)
	if perAgentMallocs > maxAgentMallocs || perAgentBytes > maxAgentBytes {
		t.Errorf("agent footprint %.1f objects / %.0f bytes, map-based tables cost %.1f / %.0f",
			perAgentMallocs, perAgentBytes, maxAgentMallocs, maxAgentBytes)
	}

	// Names and unit definitions are the caller's, as in the harness.
	names := make([]string, jobs)
	units := make([][]resource.ScheduleUnit, jobs)
	for i := range names {
		names[i] = fmt.Sprintf("job-%05d", i)
		units[i] = []resource.ScheduleUnit{{ID: 1, Priority: 3, Size: unitSize(i), MaxCount: 6}}
	}
	mallocs, bytes = heapCost(func() {
		for i, name := range names {
			am := appmaster.New(appmaster.Config{
				App: name, QuotaGroup: "batch", Units: units[i], FullSyncInterval: cfg.FullSyncEvery,
			}, eng, net, top, appmaster.NoCallbacks{})
			home := int32(i % len(machines))
			am.Request(1,
				resource.LocalityHint{Type: resource.LocalityMachine, Value: machines[home], Count: 1},
				resource.LocalityHint{Type: resource.LocalityCluster, Count: 5})
			changes := make([]protocol.MachineDelta, 6)
			for k := range changes {
				changes[k] = protocol.MachineDelta{Machine: (home + int32(7*k)) % int32(len(machines)), Delta: 1}
			}
			net.Send(protocol.MasterEndpoint, name, protocol.GrantUpdate{
				App: name, UnitID: 1, Changes: changes, Epoch: 1, Seq: 1,
			})
			eng.Run(eng.Now() + sim.Millisecond)
			for _, ch := range changes {
				if am.Held(1, ch.Machine) != 1 {
					t.Fatalf("%s: grant on machine %d not held", name, ch.Machine)
				}
				am.ReturnContainers(1, ch.Machine, 1)
			}
			am.Unregister()
			eng.Run(eng.Now() + sim.Millisecond)
		}
	})
	perAMMallocs := float64(mallocs) / jobs
	perAMBytes := float64(bytes) / jobs
	t.Logf("per application master: %.1f objects, %.0f bytes", perAMMallocs, perAMBytes)
	if perAMMallocs > maxAMMallocs || perAMBytes > maxAMBytes {
		t.Errorf("application master footprint %.1f objects / %.0f bytes, map-based tables cost %.1f / %.0f",
			perAMMallocs, perAMBytes, maxAMMallocs, maxAMBytes)
	}
}

// clampedNegative runs cfg to its end and sums the agents' ClampedNegative
// counters: capacity releases that found less in an agent's ledger than the
// master took out of its own.
func clampedNegative(t *testing.T, cfg Config) (clamped int, res *Result) {
	t.Helper()
	h, err := newHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res = h.run()
	for _, a := range h.agents {
		clamped += a.ClampedNegative
	}
	return clamped, res
}

// TestFaultFreeChurnNeverClampsCapacity pins what the agent's silent clamp
// used to hide: with no faults injected, the master and every agent agree on
// every (app, unit) count at every instant a release lands, so no CapacityDelta
// ever asks an agent to release more than it holds. The fault lanes are not
// held to this — there a release can legitimately race the CapacitySync that
// already reflects it (EXPERIMENTS.md, "Where churn's time went") — and their
// ledgers are judged by the invariant checker's convergence instead.
func TestFaultFreeChurnNeverClampsCapacity(t *testing.T) {
	clamped, res := clampedNegative(t, SmokeChurnConfig())
	if res.Decisions == 0 {
		t.Fatal("churn smoke made no decisions")
	}
	if clamped != 0 {
		t.Fatalf("fault-free churn: agents clamped %d over-releases to zero", clamped)
	}
}
