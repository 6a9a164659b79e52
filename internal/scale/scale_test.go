package scale

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	c := DefaultConfig()
	c.Racks, c.MachinesPerRack = 4, 5
	c.Apps, c.UnitsPerApp, c.ContainersPerUnit = 20, 5, 2
	c.ArrivalWindow = 5 * 1000 * 1000 // 5 sim-seconds
	c.FailoverEvery = 3 * 1000 * 1000
	return c
}

func TestSmokeRunCompletes(t *testing.T) {
	cfg := SmokeConfig()
	if testing.Short() {
		cfg = tiny()
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedApps != cfg.Apps {
		t.Errorf("completed %d of %d apps (sim %.1fs)", res.CompletedApps, cfg.Apps, res.SimSeconds)
	}
	minDecisions := uint64(cfg.Apps * cfg.UnitsPerApp * cfg.ContainersPerUnit)
	if res.Decisions < minDecisions {
		t.Errorf("decisions = %d, want >= %d", res.Decisions, minDecisions)
	}
	if res.LatencyP99MS <= 0 {
		t.Errorf("p99 latency = %v, want > 0", res.LatencyP99MS)
	}
	if len(res.Invariants) > 0 {
		t.Errorf("scheduler invariants violated: %v", res.Invariants)
	}
}

// TestHarnessDeterministicAcrossRuns runs the full control plane with
// batched rounds twice on the same seed: decision counts, message counts,
// completion counts and virtual end times must be identical — determinism
// measured end to end, not just at the scheduler API.
func TestHarnessDeterministicAcrossRuns(t *testing.T) {
	var ref *Result
	for _, name := range []string{"run-a", "run-b"} {
		cfg := tiny()
		cfg.RoundWindow = DefaultRoundWindow
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CompletedApps != cfg.Apps {
			t.Fatalf("%s: completed %d of %d apps", name, res.CompletedApps, cfg.Apps)
		}
		if len(res.Invariants) > 0 {
			t.Fatalf("%s: invariant violations: %v", name, res.Invariants)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Grants != ref.Grants || res.Revokes != ref.Revokes {
			t.Errorf("%s: decisions %d/%d diverge from the first run's %d/%d",
				name, res.Grants, res.Revokes, ref.Grants, ref.Revokes)
		}
		if res.MessagesSent != ref.MessagesSent || res.EventsFired != ref.EventsFired {
			t.Errorf("%s: traffic %d msgs/%d events diverges from the first run's %d/%d",
				name, res.MessagesSent, res.EventsFired, ref.MessagesSent, ref.EventsFired)
		}
		if res.SimSeconds != ref.SimSeconds {
			t.Errorf("%s: sim end %.6f diverges from %.6f", name, res.SimSeconds, ref.SimSeconds)
		}
		if res.LatencyP99MS != ref.LatencyP99MS {
			t.Errorf("%s: p99 %.3f diverges from %.3f", name, res.LatencyP99MS, ref.LatencyP99MS)
		}
	}
}

// TestMasterFailoverTransparency is the metamorphic failover test: the same
// seeded workload run with 0, 1, and 3 mid-run master failovers must finish
// with the identical app completion set and a silent invariant checker —
// the paper's user-transparent failure recovery (§4.1) stated as a property.
func TestMasterFailoverTransparency(t *testing.T) {
	cfg := tiny()
	cfg.CheckInvariants = true
	completedSet := func(r *Result) []string {
		out := append([]string(nil), r.Completed...)
		sort.Strings(out)
		return out
	}

	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.CompletedApps != cfg.Apps {
		t.Fatalf("baseline completed %d of %d apps", base.CompletedApps, cfg.Apps)
	}
	if len(base.Invariants) > 0 {
		t.Fatalf("baseline invariant violations: %v", base.Invariants)
	}
	want := completedSet(base)

	for _, failovers := range []int{1, 3} {
		fcfg := cfg.WithMasterFailovers(failovers)
		res, err := Run(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Invariants) > 0 {
			t.Errorf("%d failovers: invariant violations: %v", failovers, res.Invariants)
		}
		got := completedSet(res)
		if len(got) != len(want) {
			t.Fatalf("%d failovers: completed %d apps, want %d (sim %.1fs)",
				failovers, len(got), len(want), res.SimSeconds)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d failovers: completion set diverges at %d: %q vs %q",
					failovers, i, got[i], want[i])
			}
		}
		if res.MasterFailovers != failovers {
			t.Errorf("reported %d failovers, want %d", res.MasterFailovers, failovers)
		}
		if res.RecoveryMaxMS <= 0 {
			t.Errorf("%d failovers: no recovery time measured", failovers)
		}
		if res.InvariantChecks == 0 {
			t.Errorf("%d failovers: invariant checker never ran", failovers)
		}
	}
}

// TestMasterFailoverRebuildExact pins the ledger property directly: after
// the run settles, master, agents and application masters agree (the checker
// ran its settled ledger pass because all apps completed).
func TestMasterFailoverRebuildExact(t *testing.T) {
	cfg := tiny().WithMasterFailovers(2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedApps != cfg.Apps {
		t.Fatalf("completed %d of %d apps", res.CompletedApps, cfg.Apps)
	}
	if len(res.Invariants) > 0 {
		t.Errorf("invariant violations after failovers: %v", res.Invariants)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	cfg := tiny()
	cfg.Racks = 0
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for zero racks")
	}
	// The sharded scheduler is gone; asking for it must not silently run
	// serial.
	cfg = tiny()
	cfg.Shards = 2
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "removed") {
		t.Errorf("Shards > 1: err = %v, want one naming the removal", err)
	}
}

// TestEarlyMasterFailoverIsMeasured: a crash time inside the assembler's
// election settle fires as soon as the cluster is up — after the probes' hook
// is installed — so it is timed like any other.
func TestEarlyMasterFailoverIsMeasured(t *testing.T) {
	cfg := tiny().WithMasterFailovers(1)
	cfg.MasterFailoverAt[0] = 5 * 1000 // 5 sim-milliseconds
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MasterFailovers != 1 || res.RecoveryMaxMS <= 0 || res.SchedPauseMaxMS <= 0 {
		t.Errorf("failovers %d, recovery max %.1f ms, pause max %.1f ms: the crash went unmeasured",
			res.MasterFailovers, res.RecoveryMaxMS, res.SchedPauseMaxMS)
	}
	if res.CompletedApps != cfg.Apps || len(res.Invariants) > 0 {
		t.Errorf("completed %d of %d apps, violations %v", res.CompletedApps, cfg.Apps, res.Invariants)
	}
}

// TestSlowestGrantIsTheLatencyMax: the observed-decision path keeps the grant
// behind the demand-to-grant maximum, restarted with the histogram at the
// warmup boundary. In churn's smoke it is a cluster-level grant that waited
// tens of seconds — the shape EXPERIMENTS.md's "Churn's 75-second grant"
// explains at paper scale.
func TestSlowestGrantIsTheLatencyMax(t *testing.T) {
	cfg := SmokeChurnConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := res.SlowestGrant
	if g == nil || g.App == "" || g.Machine == "" {
		t.Fatalf("slowest grant %+v", g)
	}
	if wait := g.GrantAtMS - g.DemandAtMS; math.Abs(wait-res.LatencyMaxMS) > 1e-6 {
		t.Errorf("slowest grant waited %.3f ms, latency max %.3f ms", wait, res.LatencyMaxMS)
	}
	if warm := cfg.ChurnWarmup.Seconds() * 1000; g.GrantAtMS < warm {
		t.Errorf("slowest grant at %.1f ms, before the window opened at %.1f ms", g.GrantAtMS, warm)
	}
	if g.Level != "cluster" || g.GrantAtMS-g.DemandAtMS < 10_000 {
		t.Errorf("slowest grant %+v: want a cluster-level grant that waited over 10 s", *g)
	}
}
