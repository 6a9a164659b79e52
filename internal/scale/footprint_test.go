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
// 3,078 per master, timers and transport included; both repeat exactly). It
// also holds what an agent keeps once it runs: agentSteadyBytes.
func TestPerProcessFootprint(t *testing.T) {
	const (
		maxAgentMallocs, maxAgentBytes = 12.6, 1684.0
		// agentSteadyBytes measures 7,870 live bytes (7,905 under -race);
		// per-agent heartbeat buffers and sized capacity rows held 13,810.
		maxAgentSteadyBytes      = 8200.0
		maxAMMallocs, maxAMBytes = 43.0, 3078.0
		jobs                     = 2000
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
		for _, m := range machines {
			agents = append(agents, agent.New(agent.Config{}, eng, net, top.Machine(m)))
		}
	})
	perAgentMallocs := float64(mallocs) / float64(len(agents))
	perAgentBytes := float64(bytes) / float64(len(agents))
	t.Logf("per agent: %.1f objects, %.0f bytes", perAgentMallocs, perAgentBytes)
	if perAgentMallocs > maxAgentMallocs || perAgentBytes > maxAgentBytes {
		t.Errorf("agent footprint %.1f objects / %.0f bytes, map-based tables cost %.1f / %.0f",
			perAgentMallocs, perAgentBytes, maxAgentMallocs, maxAgentBytes)
	}

	steady := agentSteadyBytes(t)
	t.Logf("per agent at steady state: %.0f live bytes", steady)
	if steady > maxAgentSteadyBytes {
		t.Errorf("agent steady-state footprint %.0f live bytes, bound %.0f", steady, maxAgentSteadyBytes)
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
				resource.LocalityHint{Type: resource.LocalityMachine, Node: home, Count: 1},
				resource.LocalityHint{Type: resource.LocalityCluster, Count: 5})
			// The network clears the update once it has landed: the machines
			// are read back from where they were drawn.
			const grants = 6
			granted := func(k int) int32 { return (home + int32(7*k)) % int32(len(machines)) }
			gu := transport.Acquire[protocol.GrantUpdate](net)
			gu.App, gu.Epoch, gu.Seq = name, 1, 1
			for k := range grants {
				gu.Changes = append(gu.Changes, protocol.UnitDelta{UnitID: 1, Machine: granted(k), Delta: 1})
			}
			net.SendID(net.Endpoint(protocol.MasterEndpoint), net.Endpoint(name), gu)
			eng.Run(eng.Now() + sim.Millisecond)
			for k := range grants {
				if am.Held(1, granted(k)) != 1 {
					t.Fatalf("%s: grant on machine %d not held", name, granted(k))
				}
				am.ReturnContainers(1, granted(k), 1)
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

// agentSteadyBytes is the live heap one agent holds at steady state, with
// what the network keeps on its behalf: churn's shape of 40 capacity rows
// per agent, a four-row CapacityDelta to every agent each quarter second,
// and AnchorEvery+2 beats of it, so every agent has sent delta beats, anchor
// beats and reaped. Agents boot in one instant, as core.NewCluster boots
// them, so their beats travel together. The count covers the capacity rows,
// the heartbeat payloads, the timers and the share of the network's free
// lists; the application names the rows point at are interned first and
// left out.
func agentSteadyBytes(t *testing.T) float64 {
	const n, rows, perDelta = 1000, 40, 4
	top, err := topology.Build(topology.Spec{Racks: 25, MachinesPerRack: n / 25, MachineCapacity: topology.PaperTestbedMachine()})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	master := net.Register(protocol.MasterEndpoint, func(transport.EndpointID, transport.Message) {})
	apps := make([]int32, 2500)
	for i := range apps {
		apps[i] = int32(net.Endpoint(fmt.Sprintf("app-%04d", i)))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	agents := make([]*agent.Agent, n)
	eps := make([]transport.EndpointID, n)
	seqs := make([]protocol.Sequencer, n)
	for i, m := range top.Machines() {
		agents[i] = agent.New(agent.Config{}, eng, net, top.Machine(m))
		eps[i] = net.Endpoint(protocol.AgentEndpoint(m))
	}
	row := func(i, r int) protocol.CapacityEntry {
		return protocol.CapacityEntry{App: apps[(i*7+r*61)%len(apps)], UnitID: 1 + r%40, Size: resource.New(500, 2048), Count: 1}
	}
	send := func(i int, entries func(d *protocol.CapacityDelta)) {
		d := transport.Acquire[protocol.CapacityDelta](net)
		d.Epoch, d.Seq = 1, seqs[i].Next()
		entries(d)
		net.SendID(master, eps[i], d)
	}
	for i := range agents {
		send(i, func(d *protocol.CapacityDelta) {
			for r := 0; r < rows; r++ {
				d.Entries = append(d.Entries, row(i, r))
			}
		})
	}
	for round := 0; round < 4*(agent.AnchorEvery+2); round++ {
		eng.Run(eng.Now() + 250*sim.Millisecond)
		for i := range agents {
			send(i, func(d *protocol.CapacityDelta) {
				for r := 0; r < perDelta; r++ {
					e := row(i, (round/2*perDelta+r)%rows)
					e.Count = 1 - 2*(round%2) // grant, release, grant, ...
					d.Entries = append(d.Entries, e)
				}
			})
		}
	}
	eng.Run(eng.Now() + 250*sim.Millisecond)
	runtime.GC()
	runtime.ReadMemStats(&after)
	for _, a := range agents {
		if a.ClampedNegative != 0 {
			t.Fatalf("agent %s clamped %d releases: the stream is not the one described", a.Machine, a.ClampedNegative)
		}
	}
	runtime.KeepAlive(agents)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
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
