package master

import (
	"fmt"
	"testing"

	"repro/internal/agent"
	"repro/internal/ident"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Scheduler hot-path microbenchmarks (wired into CI as a -short smoke so
// the hot path cannot silently regress into a build failure; the numbers
// themselves are tracked by the scale harness).

func benchTop(b *testing.B, racks, perRack int) *topology.Topology {
	b.Helper()
	top, err := topology.Build(topology.Spec{
		Racks: racks, MachinesPerRack: perRack,
		MachineCapacity: topology.PaperTestbedMachine(),
	})
	if err != nil {
		b.Fatal(err)
	}
	return top
}

// BenchmarkSchedulerSingleDecision measures one incremental decision pair:
// a cluster-level demand that grants immediately, and the return that
// releases it — the paper's event-driven steady state.
func BenchmarkSchedulerSingleDecision(b *testing.B) {
	s := NewScheduler(benchTop(b, 125, 40), Options{})
	if err := s.RegisterApp("app", "", []resource.ScheduleUnit{
		{ID: 1, Priority: 10, MaxCount: 1 << 30, Size: resource.New(1000, 4096)},
	}); err != nil {
		b.Fatal(err)
	}
	hint := []resource.LocalityHint{{Type: resource.LocalityCluster, Count: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := s.UpdateDemand("app", 1, hint)
		if err != nil || len(ds) != 1 {
			b.Fatalf("demand: %v (%d decisions)", err, len(ds))
		}
		if _, err := s.Return("app", 1, ds[0].Machine, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerFullRound measures a full batched scheduling round at
// the paper's 5,000-machine footprint: release one application's grants,
// sweep the whole cluster reassigning the freed capacity to queued demand,
// re-queue the application.
func BenchmarkSchedulerFullRound(b *testing.B) {
	const apps = 8
	s := NewScheduler(benchTop(b, 125, 40), Options{})
	names := make([]string, apps)
	for i := range names {
		names[i] = fmt.Sprintf("app-%02d", i)
		if err := s.RegisterApp(names[i], "", []resource.ScheduleUnit{
			{ID: 1, Priority: 10 + i%3, MaxCount: 1 << 30, Size: resource.New(1000, 4096)},
		}); err != nil {
			b.Fatal(err)
		}
		// Saturate: each app wants far more than its cluster share,
		// so the tree always holds queued cluster-level demand.
		if _, err := s.UpdateDemand(names[i], 1, []resource.LocalityHint{
			{Type: resource.LocalityCluster, Count: 12_000}}); err != nil {
			b.Fatal(err)
		}
	}
	machines := s.top.Machines()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := names[i%apps]
		released := 0
		granted := s.Granted(app, 1)
		for _, m := range machines { // deterministic machine order
			if n := granted[m]; n > 0 {
				if err := s.Release(app, 1, m, n); err != nil {
					b.Fatal(err)
				}
				released += n
			}
		}
		ds := s.AssignOn(machines)
		if len(ds) == 0 && released > 0 {
			b.Fatal("sweep reassigned nothing")
		}
		if _, err := s.UpdateDemand(app, 1, []resource.LocalityHint{
			{Type: resource.LocalityCluster, Count: released}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInternLookup measures the intern table's hot operations against
// the string-keyed map it replaced: the registration-order Intern hit (the
// per-message app resolution) and the read-only ID lookup.
func BenchmarkInternLookup(b *testing.B) {
	names := make([]string, 4096)
	for i := range names {
		names[i] = fmt.Sprintf("scale-app-%04d", i)
	}
	b.Run("intern-hit", func(b *testing.B) {
		var tbl ident.Table
		for _, n := range names {
			tbl.Intern(n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tbl.Intern(names[i&4095])
		}
	})
	b.Run("id-to-name", func(b *testing.B) {
		var tbl ident.Table
		for _, n := range names {
			tbl.Intern(n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = tbl.Name(int32(i & 4095))
		}
	})
	b.Run("string-map-baseline", func(b *testing.B) {
		m := make(map[string]int32, 4096)
		for i, n := range names {
			m[n] = int32(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = m[names[i&4095]]
		}
	})
}

// BenchmarkTreeWalk measures one free-up's candidate walk over a populated
// cluster queue: the ID-indexed tree (slice-indexed queues, bitmap dead
// skipping) against the legacy string-era baseline that re-scans and
// re-sorts per free-up. Both walks stream the same candidates. churn-shape
// walks the indexed tree in the churn lane's steady state.
func BenchmarkTreeWalk(b *testing.B) {
	build := func(legacy bool) (*Scheduler, waitTree) {
		s := newTestScheduler(benchTop(b, 125, 40), Options{}, legacy)
		for i := 0; i < 64; i++ {
			app := fmt.Sprintf("app-%03d", i)
			if err := s.RegisterApp(app, "", []resource.ScheduleUnit{
				{ID: 1, Priority: 10 + i%4, MaxCount: 1 << 30, Size: resource.New(1000, 4096)},
			}); err != nil {
				b.Fatal(err)
			}
			if _, err := s.UpdateDemand(app, 1, []resource.LocalityHint{
				{Type: resource.LocalityCluster, Count: 2000}}); err != nil {
				b.Fatal(err)
			}
		}
		return s, s.tree
	}
	for _, legacy := range []bool{false, true} {
		name := "indexed"
		if legacy {
			name = "legacy"
		}
		b.Run(name, func(b *testing.B) {
			s, tree := build(legacy)
			free := resource.New(1000, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				visited := 0
				tree.forEachCandidate(int32(i%5000), int32(i%125), 0, 0, &free,
					func(e *waitEntry) bool {
						visited++
						return visited < 2 // a typical free-up satisfies 1-2 entries
					})
			}
			_ = s
		})
	}
	// One op is one free-up on the churn-shaped tree (see churnShape): what
	// dead machine and rack queues and live buckets no fragment fits cost
	// on top of the one grant.
	b.Run("churn-shape", func(b *testing.B) {
		cs := newChurnShape()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cs.freeUp(i)
		}
	})
}

// BenchmarkCheckpointEncodeRoundTrip measures the hard-state serialization
// boundary: encoding and decoding a snapshot of 2,500 apps × 4 units plus a
// blacklist — the payload a hot-standby promotion reads (names only; no
// interned ID can leak into durable state because the format cannot express
// one).
func BenchmarkCheckpointEncodeRoundTrip(b *testing.B) {
	var s Snapshot
	s.Epoch = 7
	for i := 0; i < 2500; i++ {
		app := AppConfig{Name: fmt.Sprintf("scale-app-%04d", i), Group: "default"}
		for u := 1; u <= 4; u++ {
			app.Units = append(app.Units, resource.ScheduleUnit{
				ID: u, Priority: u, MaxCount: 3, Size: resource.New(1000, 4096),
			})
		}
		s.Apps = append(s.Apps, app)
	}
	for i := 0; i < 50; i++ {
		s.Blacklist = append(s.Blacklist, fmt.Sprintf("r%03dm%03d", i, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := EncodeSnapshot(s)
		out, err := DecodeSnapshot(enc)
		if err != nil || len(out.Apps) != len(s.Apps) {
			b.Fatalf("round-trip: %v (%d apps)", err, len(out.Apps))
		}
	}
}

// BenchmarkHeartbeatDeltaEncode measures the agent's steady-state beat with
// delta encoding: a populated capacity table, nothing changing — the 5,000
// agents × 1 Hz path that used to rebuild the full allocation map every
// second.
func BenchmarkHeartbeatDeltaEncode(b *testing.B) {
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	net.Register(protocol.MasterEndpoint, func(transport.EndpointID, transport.Message) {})
	top := benchTop(b, 1, 1)
	a := agent.New(agent.Config{}, eng, net, top.Machine(top.Machines()[0]))
	// Populate the capacity table the way the master would.
	entries := make([]protocol.CapacityEntry, 40)
	for i := range entries {
		entries[i] = protocol.CapacityEntry{
			App: int32(net.Endpoint(fmt.Sprintf("app-%02d", i))), UnitID: 1 + i%4,
			Size: resource.New(1000, 4096), Count: 2,
		}
	}
	net.SendID(net.Endpoint(protocol.MasterEndpoint), net.Endpoint(protocol.AgentEndpoint(a.Machine)), &protocol.CapacityDelta{
		Entries: entries, Epoch: 1, Seq: 1,
	})
	eng.Run(eng.Now() + 20*sim.Second) // consume the first anchors
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One heartbeat interval per iteration ≈ one delta-encoded beat
		// (every AnchorEvery-th is a full anchor, amortized in).
		eng.Run(eng.Now() + sim.Second)
	}
}

// BenchmarkCapacityDeltaDecode measures the agent-side decode of one
// batched CapacityDelta carrying a round's worth of entries.
func BenchmarkCapacityDeltaDecode(b *testing.B) {
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	net.Register(protocol.MasterEndpoint, func(transport.EndpointID, transport.Message) {})
	top := benchTop(b, 1, 1)
	a := agent.New(agent.Config{}, eng, net, top.Machine(top.Machines()[0]))
	grant := make([]protocol.CapacityEntry, 16)
	revoke := make([]protocol.CapacityEntry, 16)
	for i := range grant {
		grant[i] = protocol.CapacityEntry{
			App: int32(net.Endpoint(fmt.Sprintf("app-%02d", i))), UnitID: 1, Size: resource.New(1000, 4096), Count: 1,
		}
		revoke[i] = grant[i]
		revoke[i].Count = -1
	}
	ep := protocol.AgentEndpoint(a.Machine)
	seq := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		net.SendID(net.Endpoint(protocol.MasterEndpoint), net.Endpoint(ep), &protocol.CapacityDelta{Entries: grant, Epoch: 1, Seq: seq})
		seq++
		net.SendID(net.Endpoint(protocol.MasterEndpoint), net.Endpoint(ep), &protocol.CapacityDelta{Entries: revoke, Epoch: 1, Seq: seq})
		eng.Run(eng.Now() + sim.Millisecond)
	}
}

// benchPaperLedger builds the paper-scale ledger the per-machine paths are
// sized against: 5,000 machines, 2,500 apps × 40 units × 3 containers of
// demand in the scale harness's unit shapes. Demand arrives one container
// per unit per pass, so — as in the saturated churn steady state — the
// ~100k containers the cluster holds are spread over nearly every unit
// (~20 cells per machine) and the other two thirds of the demand queue.
func benchPaperLedger(b *testing.B) *Scheduler {
	b.Helper()
	s := NewScheduler(benchTop(b, 125, 40), Options{})
	sizes := []resource.Vector{resource.New(500, 2048), resource.New(1000, 4096), resource.New(250, 1024)}
	names := make([]string, 2500)
	for a := range names {
		names[a] = fmt.Sprintf("scale-app-%04d", a)
		units := make([]resource.ScheduleUnit, 40)
		for u := range units {
			units[u] = resource.ScheduleUnit{ID: u + 1, Priority: 1 + (a+u)%4, MaxCount: 3, Size: sizes[(a+u)%3]}
		}
		if err := s.RegisterApp(names[a], "", units); err != nil {
			b.Fatal(err)
		}
	}
	one := []resource.LocalityHint{{Type: resource.LocalityCluster, Count: 1}}
	for pass := 0; pass < 3; pass++ {
		for _, app := range names {
			for u := 1; u <= 40; u++ {
				if _, err := s.UpdateDemand(app, u, one); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return s
}

// BenchmarkEvacuate measures revoking every grant on one machine (the
// heartbeat-timeout and blacklist path): index is the shipped walk over the
// machine's cells, scan the all-apps scan it replaced (the test oracle).
// The grants are put back outside the timer.
func BenchmarkEvacuate(b *testing.B) {
	s := benchPaperLedger(b)
	putBack := func(m int32, ds []Decision) {
		s.down[m] = false
		s.setFree(m, s.top.MachineByID(m).Capacity)
		for _, d := range ds {
			s.restoreGrant(s.apps[d.App], d.UnitID, m, -d.Delta)
		}
	}
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := int32(i*37) % s.nMach
			ds := s.machineDownID(m)
			b.StopTimer()
			if len(ds) == 0 {
				b.Fatal("nothing evacuated")
			}
			putBack(m, ds)
			b.StartTimer()
		}
	})
	b.Run("scan", func(b *testing.B) {
		apps := s.Apps()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := int32(i*37) % s.nMach
			ds := scanEvacuation(s, apps, m, ReasonRevokeNodeDown)
			if len(ds) == 0 {
				b.Fatal("nothing to evacuate")
			}
		}
	})
}

// BenchmarkCapacitySyncTable measures building one agent's CapacitySync
// payload (agent restart, gap repair, heal): index vs the replaced scan.
func BenchmarkCapacitySyncTable(b *testing.B) {
	s := benchPaperLedger(b)
	apps := s.Apps()
	for _, v := range []struct {
		name  string
		table func(int32) []protocol.CapacityEntry
	}{
		{"index", s.capacityTable},
		{"scan", func(m int32) []protocol.CapacityEntry { return scanGrantsOn(s, apps, m) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(v.table(int32(i*37)%s.nMach)) == 0 {
					b.Fatal("empty capacity table")
				}
			}
		})
	}
}

// BenchmarkCheckInvariants measures the once-a-virtual-second audit on the
// paper-scale ledger (5,000 machines, 100k units, 300k containers): a sweep
// over everything, a plain sweep after one release and re-grant on each of 50
// machines (1 % of the cluster — a quiet second), and the full walk the
// dirty-set audit replaced.
func BenchmarkCheckInvariants(b *testing.B) {
	check := func(b *testing.B, bad []string) {
		if len(bad) > 0 {
			b.Fatal(bad)
		}
	}
	b.Run("all", func(b *testing.B) {
		s := benchPaperLedger(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			check(b, s.CheckAllInvariants())
		}
	})
	b.Run("touched=1pct", func(b *testing.B) {
		s := benchPaperLedger(b)
		check(b, s.CheckAllInvariants())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for m := int32(i % 100); m < s.nMach; m += 100 {
				c := s.grants.cells[m][0]
				st := s.appByID[c.app]
				u := &st.unitArr[c.unit]
				s.releaseOn(st, u, m, 1)
				s.credit(st, u, m, 1)
			}
			s.audit.sweeps = 1 // keep the periodic full sweep out of the measurement
			check(b, s.CheckInvariants())
		}
	})
	b.Run("oracle-fullwalk", func(b *testing.B) {
		s := benchPaperLedger(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			check(b, oracleCheckInvariants(s))
		}
	})
}
