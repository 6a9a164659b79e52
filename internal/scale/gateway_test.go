package scale

import (
	"testing"

	"repro/internal/gateway"
	"repro/internal/sim"
)

// gwTiny returns a gateway-mode configuration small enough for unit tests:
// a full million-tenant population (tenant picks are O(1), the population
// costs nothing) but a few thousand submissions on a 20-machine cluster,
// with an in-flight cap low enough that gateway backpressure — not the
// scheduler — is the bottleneck.
func gwTiny() Config {
	c := DefaultGatewayConfig()
	c.Racks, c.MachinesPerRack = 4, 5
	c.GatewaySubmissions = 1500
	if testing.Short() {
		c.GatewaySubmissions = 600
	}
	c.GatewayHotTenants = 20
	c.ArrivalWindow = 5 * sim.Second
	c.FailoverEvery = 3 * sim.Second
	c.Horizon = 2 * sim.Minute
	c.MasterFailoverAt = nil
	lim := gateway.DefaultLimits()
	lim.MaxInFlight = 300
	c.GatewayLimits = &lim
	return c
}

func TestGatewayRunCompletes(t *testing.T) {
	cfg := gwTiny()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("gateway run did not drain (sim %.1fs): %+v", res.SimSeconds, res.Gateway)
	}
	if len(res.Invariants) > 0 {
		t.Errorf("invariant violations: %v", res.Invariants)
	}
	g := res.Gateway
	if g == nil {
		t.Fatal("no gateway section in the result")
	}
	if g.Submitted != uint64(cfg.GatewaySubmissions) {
		t.Errorf("submitted %d, want %d", g.Submitted, cfg.GatewaySubmissions)
	}
	if g.Completed+g.Shed != g.Submitted {
		t.Errorf("completed %d + shed %d != submitted %d", g.Completed, g.Shed, g.Submitted)
	}
	if g.ShedRateLimit == 0 {
		t.Error("heavy hitters never hit the rate limit (skew not exercised)")
	}
	if g.Completed == 0 || res.CompletedApps != int(g.Completed) {
		t.Errorf("completed apps %d vs gateway completed %d", res.CompletedApps, g.Completed)
	}
	if g.AdmissionP99MS <= 0 {
		t.Error("no admission latency measured")
	}
	for _, cs := range []gateway.ClassStats{g.Service, g.Batch} {
		if cs.JainFairness <= 0 || cs.JainFairness > 1 {
			t.Errorf("Jain fairness out of range: %+v", cs)
		}
	}
	if res.AllocsPerAdmission <= 0 || res.MessagesPerAdmission <= 0 {
		t.Error("per-admission budgets not measured")
	}
}

// decisionKey flattens a decision stream without virtual times, for
// set-level comparisons across runs whose timing legitimately differs.
func submitVerdicts(ds []gateway.Decision) map[string]gateway.DecisionKind {
	out := make(map[string]gateway.DecisionKind, len(ds))
	for _, d := range ds {
		if d.Kind != gateway.DecisionAdmit {
			out[d.JobID] = d.Kind
		}
	}
	return out
}

// TestGatewayTraceParity replays the identical 1M-user submission trace
// twice: the admit/shed decision stream — order, kinds, and virtual times,
// pinned by the stream hash and the recorded stream — must be
// byte-identical.
func TestGatewayTraceParity(t *testing.T) {
	base := gwTiny()
	base.RecordGatewayDecisions = true

	// Both runs use the same batched-round configuration: admission is
	// deliberately coupled to completion via the in-flight cap, so decision
	// parity is only claimed across runs whose master configuration is
	// identical.
	base.RoundWindow = DefaultRoundWindow
	var ref *Result
	for _, name := range []string{"run-a", "run-b"} {
		res, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("%s: run did not drain", name)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Gateway.DecisionHash != ref.Gateway.DecisionHash {
			t.Errorf("%s: decision hash %s diverges from %s",
				name, res.Gateway.DecisionHash, ref.Gateway.DecisionHash)
		}
		if len(res.GatewayDecisions) != len(ref.GatewayDecisions) {
			t.Fatalf("%s: %d decisions vs %d", name,
				len(res.GatewayDecisions), len(ref.GatewayDecisions))
		}
		for k := range res.GatewayDecisions {
			if res.GatewayDecisions[k] != ref.GatewayDecisions[k] {
				t.Fatalf("%s: decision %d diverges: %+v vs %+v",
					name, k, res.GatewayDecisions[k], ref.GatewayDecisions[k])
			}
		}
	}
}

// TestGatewayFailoverMetamorphic is the gateway's metamorphic failover
// test: with shedding driven only by the (clock-deterministic) token
// buckets — no backpressure-coupled bounds — the same submission trace run
// with 0 and 1 master failovers must shed the same jobs for the same
// reasons and complete the identical admitted-job set, with the admission-
// conservation checker silent throughout.
func TestGatewayFailoverMetamorphic(t *testing.T) {
	base := gwTiny()
	base.RecordGatewayDecisions = true
	lim := gateway.DefaultLimits()
	lim.MaxInFlight = 0 // unbounded: admission timing must not change decisions
	lim.MaxQueued = 0
	lim.QueueCap = 0
	base.GatewayLimits = &lim

	run := func(failovers int) *Result {
		cfg := base
		if failovers > 0 {
			cfg = cfg.WithMasterFailovers(failovers)
			cfg.RecordGatewayDecisions = true
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("%d failovers: run did not drain (sim %.1fs)", failovers, res.SimSeconds)
		}
		if len(res.Invariants) > 0 {
			t.Fatalf("%d failovers: invariant violations: %v", failovers, res.Invariants)
		}
		return res
	}

	a, b := run(0), run(1)
	if b.MasterFailovers != 1 {
		t.Fatalf("failover run reported %d crashes, want 1", b.MasterFailovers)
	}
	if b.Gateway.FailoverReplays == 0 && b.Gateway.AdmitRetries == 0 {
		t.Log("note: no admits were in flight at the crash (replay path idle)")
	}

	va, vb := submitVerdicts(a.GatewayDecisions), submitVerdicts(b.GatewayDecisions)
	if len(va) != len(vb) {
		t.Fatalf("verdict counts diverge: %d vs %d", len(va), len(vb))
	}
	for id, k := range va {
		if vb[id] != k {
			t.Errorf("job %s: verdict %v without failover, %v with", id, k, vb[id])
		}
	}

	if a.CompletedApps != b.CompletedApps || a.CompletedHash != b.CompletedHash {
		t.Fatalf("completion sets diverge: %d jobs hashing to %x vs %d to %x",
			a.CompletedApps, a.CompletedHash, b.CompletedApps, b.CompletedHash)
	}
}

func TestGatewayRejectsBadConfig(t *testing.T) {
	cfg := gwTiny()
	cfg.GatewaySubmissions = 0
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for gateway mode without submissions")
	}
	// A gateway-fed job that never completes never frees its admission slot:
	// churn is the classic arrivals' steady state and nothing else's.
	cfg = gwTiny()
	cfg.Churn = true
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for churn over a gateway-fed workload")
	}
}
