package scale

import (
	"testing"

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

// TestChaosDeterminismAndShardParity runs the identical chaos schedule twice
// at shards=1 and once at shards=4: every measurement — storm accounting,
// convergence percentiles, lost/reissued counts, per-link loss attribution —
// must be identical. The whole ChaosStats struct is comparable, so the runs
// must agree field for field.
func TestChaosDeterminismAndShardParity(t *testing.T) {
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
	for _, variant := range []struct {
		name   string
		shards int
	}{
		{"shards-1-a", 1}, {"shards-1-b", 1}, {"shards-4", 4},
	} {
		cfg := base
		cfg.Shards = variant.shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Chaos == nil {
			t.Fatalf("%s: no chaos section", variant.name)
		}
		if len(res.Invariants) > 0 {
			t.Errorf("%s: invariant violations: %v", variant.name, res.Invariants)
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
				variant.name, *res.Chaos, *ref)
		}
	}
}

func TestChaosRejectsGatewayMode(t *testing.T) {
	cfg := czTiny()
	cfg.GatewayUsers = 100
	cfg.GatewaySubmissions = 10
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for chaos + gateway mode")
	}
}
