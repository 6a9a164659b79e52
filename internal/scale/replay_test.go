package scale

import (
	"testing"

	"repro/internal/sim"
)

// rpTiny returns a replay configuration small enough for unit tests: two
// 20-second days on a 20-machine cluster, one failure storm at the first
// day's peak, one master failover in the second day's shoulder.
func rpTiny() Config {
	c := SmokeReplayConfig()
	c.Racks, c.MachinesPerRack = 4, 5
	c.GatewayUsers = 20_000
	c.GatewayHotTenants = 20
	c.ReplayDays = 2
	c.ReplayDayLength = 20 * sim.Second
	c.ReplaySessionsPerSec = 8
	if testing.Short() {
		c.ReplaySessionsPerSec = 5
	}
	c.ReplayBurstGap = 100 * sim.Millisecond
	c.ReplayWidthMax = 8
	c.ReplayHoldMin = 200 * sim.Millisecond
	c.ReplayHoldMax = 2 * sim.Second
	c.ReplayStormAt = []sim.Time{3 * sim.Second}
	c.ReplayStormWindow = 2 * sim.Second
	c.ReplayStormDowntime = 8 * sim.Second
	c.MasterFailoverAt = []sim.Time{28 * sim.Second}
	c.Horizon = 2 * sim.Minute
	return c
}

func TestReplayRunCompletes(t *testing.T) {
	cfg := rpTiny()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("replay run did not drain (sim %.1fs)", res.SimSeconds)
	}
	if len(res.Invariants) > 0 {
		t.Errorf("invariant violations: %v", res.Invariants)
	}
	rp := res.Replay
	if rp == nil {
		t.Fatal("no replay section in the result")
	}
	g := res.Gateway
	if g == nil {
		t.Fatal("no gateway section in the result")
	}

	// The open-loop trace fed the gateway: every submission accounted for.
	if rp.Submissions <= 0 || uint64(rp.Submissions) != g.Submitted {
		t.Errorf("replay submissions %d vs gateway submitted %d", rp.Submissions, g.Submitted)
	}
	if rp.Sessions == 0 || uint64(rp.Submissions) < rp.Sessions {
		t.Errorf("sessions %d > submissions %d", rp.Sessions, rp.Submissions)
	}
	if g.Completed+g.Shed != g.Submitted {
		t.Errorf("completed %d + shed %d != submitted %d", g.Completed, g.Shed, g.Submitted)
	}
	if rp.MeanBurstLen <= 1 {
		t.Errorf("mean burst length %.2f, want > 1 (correlated sessions)", rp.MeanBurstLen)
	}

	// Diurnal shape: the peak quarter-day must carry well more traffic than
	// the trough quarter (rate ratio is 4 at ±60% amplitude).
	if rp.SubmissionsPeak <= 2*rp.SubmissionsTrough {
		t.Errorf("diurnal shape missing: peak %d vs trough %d submissions",
			rp.SubmissionsPeak, rp.SubmissionsTrough)
	}

	// The storm landed: one victim of each kind on a 20-machine cluster.
	if rp.Storms != 1 || rp.Injections != 3 || rp.InjectionsSkipped != 0 {
		t.Errorf("storms=%d injections=%d skipped=%d, want 1/3/0",
			rp.Storms, rp.Injections, rp.InjectionsSkipped)
	}
	if rp.MachinesKilled != 1 || rp.MachinesBroken != 1 || rp.MachinesSlowed != 1 {
		t.Errorf("killed=%d broken=%d slowed=%d, want 1/1/1",
			rp.MachinesKilled, rp.MachinesBroken, rp.MachinesSlowed)
	}
	if rp.LaunchFailures == 0 {
		t.Error("no launch failures: the broken machine never bounced a grant")
	}
	if rp.SlowHolds == 0 {
		t.Error("no stretched holds: the slow machine never received a grant")
	}

	// Per-class SLO measurements exist for both classes.
	for _, cs := range []ReplayClassStats{rp.Service, rp.Batch} {
		if cs.Jobs == 0 {
			t.Errorf("class saw no jobs: %+v", cs)
		}
		if cs.AdmissionP50MS <= 0 || cs.DemandToGrantP50MS <= 0 {
			t.Errorf("class missing latency data: %+v", cs)
		}
		if cs.SLOMS <= 0 || cs.SLOAttainedPct <= 0 {
			t.Errorf("class missing SLO attainment: %+v", cs)
		}
		if cs.Grants == 0 {
			t.Errorf("class saw no grants: %+v", cs)
		}
	}
	// Service jobs are latency-sensitive: their demand-to-grant p99 must
	// not exceed batch's (they schedule at higher priority).
	if rp.Service.DemandToGrantP99MS > 2*rp.Batch.DemandToGrantP99MS+1 {
		t.Errorf("service d2g p99 %.1f ms far above batch %.1f ms",
			rp.Service.DemandToGrantP99MS, rp.Batch.DemandToGrantP99MS)
	}

	// Utilization was sampled in every phase, and the storm + failover
	// actually revoked work somewhere.
	for name, ps := range map[string]ReplayPhaseStats{
		"peak": rp.Peak, "trough": rp.Trough, "storm": rp.Storm,
	} {
		if ps.Samples == 0 {
			t.Errorf("no utilization samples in %s phase", name)
		}
		if ps.CPUUtilPct < 0 || ps.CPUUtilPct > 100 {
			t.Errorf("%s CPU utilization out of range: %+v", name, ps)
		}
	}
	if rp.Service.Revokes+rp.Batch.Revokes == 0 {
		t.Error("no revocations through a NodeDown storm and a master failover")
	}
	if rp.DecisionHash == "" {
		t.Error("no decision hash pinned")
	}
	if res.MasterFailovers != 1 {
		t.Errorf("master failovers %d, want 1", res.MasterFailovers)
	}
}

// TestReplayDeterministicAcrossRuns runs the identical replay trace twice:
// every virtual-time measurement — the decision hash, per-class SLO numbers,
// phase utilization, storm accounting — must be identical. The whole ReplayStats
// struct is comparable, so the runs must agree field for field.
func TestReplayDeterministicAcrossRuns(t *testing.T) {
	base := rpTiny()
	base.ReplayDays = 1
	base.ReplayDayLength = 12 * sim.Second
	base.ReplaySessionsPerSec = 6
	base.ReplayStormAt = []sim.Time{2 * sim.Second}
	base.MasterFailoverAt = nil
	base.RoundWindow = DefaultRoundWindow

	var ref *ReplayStats
	for _, name := range []string{"run-a", "run-b"} {
		res, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("%s: run did not drain", name)
		}
		if res.Replay == nil {
			t.Fatalf("%s: no replay section", name)
		}
		if ref == nil {
			ref = res.Replay
			if ref.Submissions == 0 || ref.DecisionHash == "" {
				t.Fatalf("reference run measured nothing: %+v", ref)
			}
			continue
		}
		if *res.Replay != *ref {
			t.Errorf("%s: replay stats diverge:\n got %+v\nwant %+v",
				name, *res.Replay, *ref)
		}
	}
}

func TestReplayRejectsBadConfig(t *testing.T) {
	cfg := rpTiny()
	cfg.ReplayDays = 0
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for replay mode without days")
	}
	cfg = rpTiny()
	cfg.Dataplane = true
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for replay + dataplane")
	}
}

// TestReplayAllocationsPerAdmittedJob is the alloc gate on a job's whole
// lifecycle — admission record, application master, registration, demand,
// grants, hold timers, returns, unregister and every message between them —
// on the smoke replay, where 4,110 jobs also carry the run's fixed costs
// (100 agents, two masters, a failover). It measured 51.4 when every message
// was boxed into its interface and every job bound its callbacks and timers
// as closures, 21.0 with pooled pointer messages and a closure-free job.
func TestReplayAllocationsPerAdmittedJob(t *testing.T) {
	res, err := Run(SmokeReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || len(res.Invariants) > 0 || res.Gateway.Registered < 4000 {
		t.Fatalf("truncated=%v invariants=%v registered=%d", res.Truncated, res.Invariants, res.Gateway.Registered)
	}
	if res.AllocsPerAdmission > 24 {
		t.Errorf("%.1f allocations per admitted job, want <= 24", res.AllocsPerAdmission)
	}
}

// TestFinishedJobsLeaveTheHarness: h.apps is walked by every failover
// measurement and every checker sweep, and pins each job's application
// master; it must track the jobs still open, not the jobs ever served.
func TestFinishedJobsLeaveTheHarness(t *testing.T) {
	h, err := newHarness(SmokeReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	probes, worst := 0, 0
	h.eng.Every(sim.Second, func() {
		open := 0
		for _, a := range h.apps {
			if !a.done {
				open++
			}
		}
		if open != len(h.apps)-h.appsDone {
			t.Errorf("t=%v: %d open apps in the list, appsDone says %d", h.eng.Now(), open, len(h.apps)-h.appsDone)
		}
		if len(h.apps) > 2*open+appsSqueezeSlack {
			t.Errorf("t=%v: %d apps listed for %d open", h.eng.Now(), len(h.apps), open)
		}
		if len(h.apps) > worst {
			worst = len(h.apps)
		}
		probes++
	})
	res := h.run()
	if res.Truncated || len(res.Invariants) > 0 {
		t.Fatalf("truncated=%v invariants=%v", res.Truncated, res.Invariants)
	}
	if probes == 0 || res.CompletedApps < 4*worst {
		t.Fatalf("%d probes, %d jobs served against a longest list of %d: the run does not exercise the squeeze",
			probes, res.CompletedApps, worst)
	}
	if len(h.apps) > appsSqueezeSlack {
		t.Errorf("%d apps still listed after the run drained", len(h.apps))
	}
}
