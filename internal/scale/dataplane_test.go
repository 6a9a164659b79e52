package scale

import (
	"testing"

	"repro/internal/sim"
)

// tinyDataplane is a seconds-scale data-plane run: a 20-machine cluster with
// a small GraySort/DAG/service mix and full kernel verification.
func tinyDataplane() Config {
	c := SmokeDataplaneConfig()
	c.Racks, c.MachinesPerRack = 4, 5
	c.GraySortJobs = 2
	c.GraySortDataMB = 512 // 2 chunks -> 2-wide stages
	c.DAGJobs = 2
	c.ServiceJobs = 2
	c.ServiceWorkers = 1
	c.ServiceOps = 2
	c.ServiceOpEvery = 500 * sim.Millisecond
	c.VerifyRecords = 256
	c.VerifySampleEvery = 1
	c.ArrivalWindow = 2 * sim.Second
	c.FailoverEvery = 0
	c.Horizon = 2 * sim.Minute
	return c
}

func TestDataplaneSmoke(t *testing.T) {
	cfg := tinyDataplane()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Truncated {
		t.Fatalf("dataplane run truncated at sim %.1fs: %d/%d jobs",
			r.SimSeconds, r.Dataplane.CompletedJobs, cfg.GraySortJobs+cfg.DAGJobs+cfg.ServiceJobs)
	}
	if len(r.Invariants) > 0 {
		t.Fatalf("invariant violations: %v", r.Invariants)
	}
	d := r.Dataplane
	if d == nil {
		t.Fatal("no dataplane section")
	}
	total := cfg.GraySortJobs + cfg.DAGJobs + cfg.ServiceJobs
	if d.CompletedJobs != total {
		t.Fatalf("completed %d/%d jobs", d.CompletedJobs, total)
	}
	if r.Gateway == nil || int(r.Gateway.Completed) != total {
		t.Fatalf("gateway section missing or incomplete: %+v", r.Gateway)
	}
	// Every GraySort job is sampled at VerifySampleEvery=1 and must pass the
	// real kernel check; every service op must conserve records.
	if d.VerifiedPartitions != cfg.GraySortJobs || d.VerifyFailures != 0 {
		t.Errorf("verified %d (want %d), failures %d", d.VerifiedPartitions, cfg.GraySortJobs, d.VerifyFailures)
	}
	wantOps := cfg.ServiceJobs * cfg.ServiceOps
	if d.ServiceOpsRun != wantOps || d.ServiceOpFailures != 0 {
		t.Errorf("service ops %d (want %d), failures %d", d.ServiceOpsRun, wantOps, d.ServiceOpFailures)
	}
	// Locality demand must be exercised and mostly honored on an idle tiny
	// cluster; shuffle accounting must see cross-stage volume.
	grants := d.LocalityMachineGrants + d.LocalityRackGrants + d.LocalityRemoteGrants
	if grants == 0 {
		t.Fatal("no locality-tracked grants")
	}
	if d.LocalityHitRatePct < 50 {
		t.Errorf("locality hit rate %.1f%% on an uncontended cluster", d.LocalityHitRatePct)
	}
	if d.ShuffledMB+d.LocalMB <= 0 {
		t.Error("no shuffle volume accounted")
	}
	if d.MakespanP50MS <= 0 || d.MakespanMaxMS < d.MakespanP50MS {
		t.Errorf("makespan percentiles inconsistent: p50 %.1f max %.1f", d.MakespanP50MS, d.MakespanMaxMS)
	}
	if d.Service.Jobs != cfg.ServiceJobs || d.Batch.Jobs != cfg.GraySortJobs+cfg.DAGJobs {
		t.Errorf("class job counts: service %d batch %d", d.Service.Jobs, d.Batch.Jobs)
	}
	if d.Service.SLOAttainedPct <= 0 {
		t.Error("service SLO attainment not measured")
	}
}

// TestDataplaneDeterministicAcrossRuns pins run-to-run determinism in
// dataplane mode with batched rounds: two runs of one configuration must
// produce the same grants, revocations, completions, locality
// classification, shuffle volume and gateway decision hash.
func TestDataplaneDeterministicAcrossRuns(t *testing.T) {
	cfg := tinyDataplane()
	cfg.RoundWindow = DefaultRoundWindow
	run := func() *Result {
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	first, again := run(), run()
	if first.Truncated || again.Truncated {
		t.Fatal("determinism run truncated")
	}
	if again.Dataplane.CompletedJobs != first.Dataplane.CompletedJobs {
		t.Errorf("second run completed %d, first %d", again.Dataplane.CompletedJobs, first.Dataplane.CompletedJobs)
	}
	if again.Gateway.DecisionHash != first.Gateway.DecisionHash {
		t.Errorf("second run gateway decision hash %s, first %s", again.Gateway.DecisionHash, first.Gateway.DecisionHash)
	}
	if again.Grants != first.Grants || again.Revokes != first.Revokes {
		t.Errorf("second run grants/revokes %d/%d, first %d/%d",
			again.Grants, again.Revokes, first.Grants, first.Revokes)
	}
	as, fs := again.Dataplane, first.Dataplane
	if as.LocalityMachineGrants != fs.LocalityMachineGrants ||
		as.LocalityRackGrants != fs.LocalityRackGrants ||
		as.LocalityRemoteGrants != fs.LocalityRemoteGrants {
		t.Errorf("second run locality %d/%d/%d, first %d/%d/%d",
			as.LocalityMachineGrants, as.LocalityRackGrants, as.LocalityRemoteGrants,
			fs.LocalityMachineGrants, fs.LocalityRackGrants, fs.LocalityRemoteGrants)
	}
	if as.ShuffledMB != fs.ShuffledMB || as.LocalMB != fs.LocalMB {
		t.Errorf("second run shuffle %f/%f, first %f/%f", as.ShuffledMB, as.LocalMB, fs.ShuffledMB, fs.LocalMB)
	}
	if as.VerifyFailures != 0 || as.ServiceOpFailures != 0 {
		t.Errorf("kernel failures: verify %d ops %d", as.VerifyFailures, as.ServiceOpFailures)
	}
}

// TestDataplaneSurvivesMachineFailover exercises the revoke → re-demand path:
// with machines crashing every second, every job must still complete and
// every sampled kernel check still pass — and again through a FuxiMaster
// failover, where the JobMasters' application masters rebuild the promoted
// master's view with FullDemandSync.
func TestDataplaneSurvivesMachineFailover(t *testing.T) {
	for _, masterCrash := range []sim.Time{0, 6 * sim.Second} {
		cfg := tinyDataplane()
		cfg.FailoverEvery = 1 * sim.Second
		cfg.FailoverDowntime = 4 * sim.Second
		cfg.Horizon = 4 * sim.Minute
		if masterCrash > 0 {
			cfg.MasterFailoverAt = []sim.Time{masterCrash}
		}
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Truncated {
			t.Fatalf("master crash at %v: failover dataplane run truncated: %d jobs done at sim %.1fs",
				masterCrash, r.Dataplane.CompletedJobs, r.SimSeconds)
		}
		if len(r.Invariants) > 0 {
			t.Fatalf("master crash at %v: invariant violations: %v", masterCrash, r.Invariants)
		}
		d := r.Dataplane
		total := cfg.GraySortJobs + cfg.DAGJobs + cfg.ServiceJobs
		if d.CompletedJobs != total {
			t.Fatalf("master crash at %v: completed %d/%d jobs under failover churn", masterCrash, d.CompletedJobs, total)
		}
		if d.VerifyFailures != 0 || d.ServiceOpFailures != 0 {
			t.Errorf("master crash at %v: kernel failures under failover: verify %d ops %d", masterCrash, d.VerifyFailures, d.ServiceOpFailures)
		}
		if r.Revokes == 0 {
			t.Errorf("master crash at %v: no revocations — crash injection inert", masterCrash)
		}
		if r.MasterFailovers != len(cfg.MasterFailoverAt) {
			t.Errorf("master crash at %v: %d master failovers, want %d", masterCrash, r.MasterFailovers, len(cfg.MasterFailoverAt))
		}
	}
}

func TestDataplaneConfigValidation(t *testing.T) {
	cfg := tinyDataplane()
	cfg.GraySortJobs, cfg.DAGJobs, cfg.ServiceJobs = 0, 0, 0
	if _, err := Run(cfg); err == nil {
		t.Error("empty dataplane workload accepted")
	}
	cfg = tinyDataplane()
	cfg.ServiceOpEvery = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero service op period accepted")
	}
}
