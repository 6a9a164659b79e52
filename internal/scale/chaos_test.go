package scale

import (
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/master"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
)

// czTiny returns a chaos configuration small enough for unit tests: the
// 20-machine churn workload with two partition storms (6 s — past the 3 s
// heartbeat timeout — and 2 s — below it), a link-flap window, delay spikes,
// and a lock-service partition of the primary, all inside a 30-second
// horizon.
func czTiny() Config {
	c := SmokeChaosConfig()
	c.Racks, c.MachinesPerRack = 4, 5
	c.Apps, c.UnitsPerApp = 30, 5
	c.ContainersPerUnit = 3
	c.HoldTime = 2 * sim.Second
	c.ArrivalWindow = 3 * sim.Second
	c.ChurnWarmup = 6 * sim.Second
	c.ChurnMeasure = 24 * sim.Second
	c.Horizon = c.ChurnWarmup + c.ChurnMeasure
	c.ChaosPartitionAt = []sim.Time{8 * sim.Second, 17 * sim.Second}
	c.ChaosPartitionFor = []sim.Time{6 * sim.Second, 2 * sim.Second}
	c.ChaosPartitionPct = 10 // 2 machines per storm
	c.ChaosFlapAt = []sim.Time{20 * sim.Second}
	c.ChaosFlaps = 1
	c.ChaosSpikeAt = []sim.Time{22 * sim.Second}
	c.ChaosSpikes = 1
	c.ChaosLockPartitionAt = 23 * sim.Second
	c.ChaosLockPartitionFor = 5 * sim.Second
	return c
}

func TestChaosRunCompletes(t *testing.T) {
	cfg := czTiny()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Invariants) > 0 {
		t.Errorf("invariant violations under chaos: %v", res.Invariants)
	}
	if res.InvariantChecks == 0 {
		t.Error("invariant checker never ran")
	}
	cz := res.Chaos
	if cz == nil {
		t.Fatal("no chaos section in the result")
	}

	// Every scheduled storm landed and healed.
	if cz.Partitions != 2 || cz.Heals != 2 {
		t.Errorf("partitions=%d heals=%d, want 2/2", cz.Partitions, cz.Heals)
	}
	if cz.MachinesPartitioned != 4 {
		t.Errorf("machines partitioned %d, want 4 (2 per storm)", cz.MachinesPartitioned)
	}
	if cz.LinkFlaps != 1 || cz.DelaySpikes != 1 {
		t.Errorf("flaps=%d spikes=%d, want 1/1", cz.LinkFlaps, cz.DelaySpikes)
	}
	if cz.InjectionsSkipped != 0 {
		t.Errorf("%d injections skipped", cz.InjectionsSkipped)
	}

	// Every heal window reconverged, and the probe measured real time doing
	// it (convergence cannot be instantaneous: the heal-time capacity resync
	// takes at least a round trip).
	if cz.Unconverged != 0 {
		t.Fatalf("%d heal windows never reconverged", cz.Unconverged)
	}
	if cz.ConvergenceP99MS <= 0 || cz.ConvergenceMaxMS < cz.ConvergenceP99MS ||
		cz.ConvergenceP99MS < cz.ConvergenceP50MS {
		t.Errorf("convergence percentiles inconsistent: p50=%.1f p99=%.1f max=%.1f",
			cz.ConvergenceP50MS, cz.ConvergenceP99MS, cz.ConvergenceMaxMS)
	}

	// The 6-second storm outlived the heartbeat timeout: the master declared
	// the victims dead, revoked their grants (lost), and repair traffic
	// re-landed on them after the heal (reissued).
	if cz.LostGrants == 0 {
		t.Error("no grants lost through a storm longer than the heartbeat timeout")
	}
	if cz.ReissuedGrants == 0 {
		t.Error("no grants reissued onto healed machines")
	}

	// The lock partition forced a promotion: the deposed primary fenced
	// itself and the standby took the lease at a higher epoch.
	if cz.LockPartitions != 1 {
		t.Errorf("lock partitions %d, want 1", cz.LockPartitions)
	}
	if cz.MasterEpoch < 2 {
		t.Errorf("master epoch %d after a lock partition, want >= 2", cz.MasterEpoch)
	}

	// The partition actually dropped traffic, attributed per link.
	if cz.LinksWithLoss == 0 || cz.LinkMsgsDropped == 0 {
		t.Errorf("no link loss recorded: links=%d dropped=%d", cz.LinksWithLoss, cz.LinkMsgsDropped)
	}
	if cz.WorstLink == "" || cz.WorstLinkDropped == 0 {
		t.Errorf("worst link not attributed: %q dropped %d", cz.WorstLink, cz.WorstLinkDropped)
	}

}

// TestChaosDeterministicAcrossRuns runs the identical chaos schedule twice:
// every measurement — storm accounting, convergence percentiles,
// lost/reissued counts, per-link loss attribution — must be identical. The whole
// ChaosStats struct is comparable, so the runs must agree field for field.
func TestChaosDeterministicAcrossRuns(t *testing.T) {
	base := czTiny()
	base.ChurnMeasure = 16 * sim.Second
	base.Horizon = base.ChurnWarmup + base.ChurnMeasure
	base.ChaosPartitionAt = []sim.Time{8 * sim.Second}
	base.ChaosPartitionFor = []sim.Time{6 * sim.Second}
	base.ChaosFlapAt = []sim.Time{16 * sim.Second}
	base.ChaosSpikeAt = []sim.Time{17 * sim.Second}
	base.ChaosLockPartitionAt = 0
	base.ChaosLockPartitionFor = 0

	var ref *ChaosStats
	for _, name := range []string{"run-a", "run-b"} {
		res, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if res.Chaos == nil {
			t.Fatalf("%s: no chaos section", name)
		}
		if len(res.Invariants) > 0 {
			t.Errorf("%s: invariant violations: %v", name, res.Invariants)
		}
		if ref == nil {
			ref = res.Chaos
			if ref.Partitions != 1 || ref.Unconverged != 0 || ref.ConvergenceMaxMS <= 0 {
				t.Fatalf("reference run measured nothing useful: %+v", ref)
			}
			continue
		}
		if *res.Chaos != *ref {
			t.Errorf("%s: chaos stats diverge:\n got %+v\nwant %+v",
				name, *res.Chaos, *ref)
		}
	}
}

// TestChaosOverReplaySmoke composes two lanes that had no business excluding
// each other: the replay smoke (gateway-fed diurnal jobs, two machine-failure
// storms, a master failover) under the chaos smoke's network schedule
// (partitions, flaps, spikes, a lock-service cut). The probes and the injector
// do not care which workload runs, so the composition must hold what each lane
// holds alone — checker silent, every heal converged, every submission
// completed or shed — and be as deterministic: two runs agree on every count
// and on both decision hashes.
func TestChaosOverReplaySmoke(t *testing.T) {
	cfg, cz := SmokeReplayConfig(), SmokeChaosConfig()
	cfg.Chaos = true
	cfg.ChaosPartitionAt, cfg.ChaosPartitionFor, cfg.ChaosPartitionPct = cz.ChaosPartitionAt, cz.ChaosPartitionFor, cz.ChaosPartitionPct
	cfg.ChaosFlapAt, cfg.ChaosFlaps = cz.ChaosFlapAt, cz.ChaosFlaps
	cfg.ChaosSpikeAt, cfg.ChaosSpikes, cfg.ChaosSpikeDelay = cz.ChaosSpikeAt, cz.ChaosSpikes, cz.ChaosSpikeDelay
	cfg.ChaosLockPartitionAt, cfg.ChaosLockPartitionFor = cz.ChaosLockPartitionAt, cz.ChaosLockPartitionFor
	cfg.RecordDecisionHash = true

	var ref *Result
	for _, name := range []string{"run-a", "run-b"} {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if replayBroken(res) || chaosBroken(res) {
			t.Fatalf("%s breaks a lane contract: invariants %v, truncated %v, gateway %+v, chaos %+v",
				name, res.Invariants, res.Truncated, res.Gateway, res.Chaos)
		}
		if res.InvariantChecks == 0 || res.Chaos.Partitions != 2 || res.Chaos.LockPartitions != 1 || res.MasterFailovers != 1 {
			t.Fatalf("%s: %d checks, %d partitions, %d lock cuts, %d master crashes: the schedules did not both land",
				name, res.InvariantChecks, res.Chaos.Partitions, res.Chaos.LockPartitions, res.MasterFailovers)
		}
		if ref == nil {
			ref = res
			continue
		}
		got := [...]uint64{res.Decisions, res.Grants, res.Revokes, res.EventsFired, res.MessagesSent,
			uint64(res.CompletedApps), res.Gateway.Submitted, res.Gateway.Shed}
		want := [...]uint64{ref.Decisions, ref.Grants, ref.Revokes, ref.EventsFired, ref.MessagesSent,
			uint64(ref.CompletedApps), ref.Gateway.Submitted, ref.Gateway.Shed}
		if got != want || *res.Chaos != *ref.Chaos {
			t.Errorf("%s diverged:\n got %v %+v\nwant %v %+v", name, got, *res.Chaos, want, *ref.Chaos)
		}
		if res.DecisionStreamHash != ref.DecisionStreamHash || res.Gateway.DecisionHash != ref.Gateway.DecisionHash {
			t.Errorf("%s: hashes %s/%s, want %s/%s", name, res.DecisionStreamHash, res.Gateway.DecisionHash,
				ref.DecisionStreamHash, ref.Gateway.DecisionHash)
		}
	}
}

// chaosOf returns the armed harness's chaos probe.
func chaosOf(tb testing.TB, h *harness) *chaosProbe {
	tb.Helper()
	for _, p := range h.probes {
		if cz, ok := p.(*chaosProbe); ok {
			return cz
		}
	}
	tb.Fatal("the harness runs no chaos probe")
	return nil
}

// settledProbe runs the armed harness forward on the probe's own 5 ms grid
// until convergedAll over victims holds (the churn never stops, but between
// scheduling rounds no capacity delta is in flight), so a caller measures a
// probe that walked every victim's cells.
func settledProbe(tb testing.TB, h *harness, victims []int32) {
	tb.Helper()
	cz := chaosOf(tb, h)
	for i := 0; i < 400; i++ {
		if cz.convergedAll(victims) {
			return
		}
		h.eng.Run(h.eng.Now() + chaosConvergePoll)
	}
	tb.Fatal("master and agent ledgers never agreed on a 2 s grid of probes")
}

// TestConvergenceProbeAllocatesNothing: one convergedAll call over every
// machine of the settled smoke chaos cluster — the probe fires every 5
// virtual ms for as long as a heal takes.
func TestConvergenceProbeAllocatesNothing(t *testing.T) {
	h, err := newHarness(SmokeChaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res := h.run(); chaosBroken(res) {
		t.Fatalf("smoke chaos run broke its contract: %+v", res.Chaos)
	}
	victims := make([]int32, h.top.Size())
	grants := 0
	for i := range victims {
		victims[i] = int32(i)
		h.primarySched().ForEachGrantOn(int32(i), func(string, int, int) { grants++ })
	}
	if grants == 0 {
		t.Fatal("settled cluster holds no grants; the probe would compare nothing")
	}
	settledProbe(t, h, victims)
	cz := chaosOf(t, h)
	if n := testing.AllocsPerRun(20, func() { cz.convergedAll(victims) }); n != 0 {
		t.Errorf("convergedAll allocates %v times per probe, want 0", n)
	}
}

// TestOverlappingHealWindowsKeepCounting pins the per-machine window count:
// machine 3 sits in two heal→converged windows at once (default schedules
// never overlap); when the first closes, grants landing on it must still
// count as reissued until the second closes too.
func TestOverlappingHealWindowsKeepCounting(t *testing.T) {
	cfg := czTiny()
	cfg.Apps = 1 // one app, settled within the first second
	cfg.ChaosPartitionAt, cfg.ChaosFlapAt, cfg.ChaosSpikeAt = nil, nil, nil
	cfg.ChaosLockPartitionAt = 0
	h, err := newHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cz := chaosOf(t, h)
	h.eng.Run(500 * sim.Millisecond)
	// Machine 4's agent holds capacity the master never granted, so a window
	// over it stays open until the phantom is withdrawn.
	phantom := func(delta int, seq uint64) {
		h.net.SendID(h.net.Endpoint("rogue"), h.net.Endpoint(protocol.AgentEndpoint(h.top.MachineName(4))), &protocol.CapacityDelta{
			Entries: []protocol.CapacityEntry{{
				App: int32(h.net.Endpoint("ghost")), UnitID: 1, Size: resource.New(250, 1024), Count: delta,
			}},
			Epoch: h.agents[4].MasterEpoch(), Seq: seq,
		})
		h.eng.Run(h.eng.Now() + sim.Millisecond)
	}
	phantom(1, 1)
	cz.healed([]int32{3})
	cz.healed([]int32{3, 4})
	if cz.victimActive[3] != 2 || cz.victimActive[4] != 1 {
		t.Fatalf("window counts after two heals: machine 3 = %d, machine 4 = %d, want 2 and 1",
			cz.victimActive[3], cz.victimActive[4])
	}
	h.eng.Run(h.eng.Now() + 2*chaosConvergePoll)
	if cz.conv.Count() != 1 {
		t.Fatalf("%d windows closed, want only the first", cz.conv.Count())
	}
	before := cz.reissued
	cz.granted(3, 2)
	if cz.reissued != before+2 {
		t.Errorf("grant on a machine still inside the second window not counted: reissued %d -> %d", before, cz.reissued)
	}
	phantom(-1, 2)
	h.eng.Run(h.eng.Now() + 2*chaosConvergePoll)
	if cz.conv.Count() != 2 || cz.victimActive[3] != 0 || cz.victimActive[4] != 0 {
		t.Fatalf("after both windows closed: %d observations, counts %d/%d", cz.conv.Count(), cz.victimActive[3], cz.victimActive[4])
	}
	before = cz.reissued
	cz.granted(3, 2)
	if cz.reissued != before {
		t.Error("grant outside every window counted as reissued")
	}
}

var probeFixture struct {
	once    sync.Once
	h       *harness
	victims []int32
	err     error
}

// BenchmarkConvergenceProbe measures one convergedAll call at paper scale:
// the 5,000-machine chaos lane warmed to its steady state (2,500 apps × 40
// units × 3 containers), probing a storm's worth of victims (2% = 100
// machines) whose ledgers agree, so every victim's cells are walked.
func BenchmarkConvergenceProbe(b *testing.B) {
	f := &probeFixture
	f.once.Do(func() {
		cfg := DefaultChaosConfig()
		if f.h, f.err = newHarness(cfg); f.err != nil {
			return
		}
		f.h.eng.Run(cfg.ChurnWarmup)
		for id := int32(0); id < 100; id++ {
			f.victims = append(f.victims, id*50)
		}
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
	settledProbe(b, f.h, f.victims)
	cz := chaosOf(b, f.h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !cz.convergedAll(f.victims) {
			b.Fatal("settled victims diverged")
		}
	}
}

// TestOverlappingFaultSchedule is the first schedule in the repo whose
// windows overlap, as one literal: a link flap on a machine inside an open
// partition and still cycling when it heals, a second partition requested
// while the first is open (it must wait for the heal, not replace it), and a
// master crash inside a lock-service cut. The run must finish with the
// checker silent and every heal converged.
func TestOverlappingFaultSchedule(t *testing.T) {
	cfg := SmokeChaosConfig()
	cfg.ChaosPartitionAt, cfg.ChaosFlapAt, cfg.ChaosSpikeAt = nil, nil, nil
	cfg.ChaosLockPartitionAt = 0
	// Never fires; a configured master failover is what boots the standby.
	cfg.MasterFailoverAt = []sim.Time{cfg.Horizon + sim.Minute}
	h, err := newHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.inj.Apply(faults.Schedule{
		{Kind: faults.NetworkPartition, At: 22 * sim.Second, For: 6 * sim.Second, Targets: []int32{3, 17, 42, 58, 91}},
		{Kind: faults.LinkFlap, At: 25 * sim.Second, Targets: []int32{17}, Down: 500 * sim.Millisecond, Up: 500 * sim.Millisecond, Cycles: 5},
		{Kind: faults.NetworkPartition, At: 26 * sim.Second, For: 2 * sim.Second, Targets: []int32{5, 17}},
		{Kind: faults.LockPartition, At: 34 * sim.Second, For: 5 * sim.Second},
		{Kind: faults.FuxiMasterFailure, At: 35 * sim.Second, For: master.LockTTL + master.RecoveryWindow + sim.Second},
	})
	res := h.run()
	if len(res.Invariants) > 0 {
		t.Errorf("invariant violations: %v", res.Invariants)
	}
	if res.InvariantChecks == 0 {
		t.Error("invariant checker never ran")
	}
	cz := res.Chaos
	if cz.Partitions != 2 || cz.Heals != 2 || cz.MachinesPartitioned != 7 {
		t.Errorf("partitions=%d heals=%d machines=%d, want 2/2/7", cz.Partitions, cz.Heals, cz.MachinesPartitioned)
	}
	if cz.Unconverged != 0 || cz.ConvergenceMaxMS <= 0 {
		t.Errorf("%d heal windows never reconverged (max %.0f ms)", cz.Unconverged, cz.ConvergenceMaxMS)
	}
	if cz.LinkFlaps != 1 || cz.LockPartitions != 1 || res.MasterFailovers != 1 {
		t.Errorf("flaps=%d lock cuts=%d master crashes=%d, want 1/1/1", cz.LinkFlaps, cz.LockPartitions, res.MasterFailovers)
	}
	if cz.MasterEpoch < 2 || h.primary() == nil {
		t.Errorf("no successor after the crash inside the lock cut: epoch %d, primary %v", cz.MasterEpoch, h.primary())
	}
	if chaosBroken(res) {
		t.Errorf("the run breaks the chaos lane's contract: %+v", cz)
	}
}
