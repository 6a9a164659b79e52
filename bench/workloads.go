package main

import (
	"fmt"

	"repro/internal/scale"
	"repro/internal/sim"
)

// workload is one benchmark input: a scale.Config builder plus the reading
// of its scale.Result that only this workload defines (what counts as
// served, what "recovery" means).
type workload struct {
	name string
	// config builds the full-size or smoke-size configuration for a seed.
	config func(seed int64, smoke bool) scale.Config
	// served returns operations attempted, operations served, and
	// operations the system refused by design. A refusal is unserved but it
	// is not a failure: the gateway shedding an over-rate tenant is the
	// correct output for that input, and identical on every run of a seed.
	served func(r *scale.Result) (attempted, served, refused uint64)
	// recover returns the workload's recovery latency (virtual ms): master
	// crash → scheduling resumed, or partition heal → ledgers reconverged.
	recover func(r *scale.Result) (p50, max float64)
}

var workloads = []workload{
	{name: "churn", config: churnConfig, served: servedAll, recover: noRecovery},
	{name: "failover", config: failoverConfig, served: servedApps, recover: masterRecovery},
	{name: "replay", config: replayConfig, served: servedJobs, recover: masterRecovery},
	{name: "chaos", config: chaosConfig, served: servedHeals, recover: healConvergence},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want churn, failover, replay or chaos)", name)
}

// churnConfig is DefaultChurnConfig at the paper footprint (5,000 machines,
// 100k units, 5 s holds, 20 ms rounds) with a 30 s measured window. The
// arrival window and warm-up are halved (10 s + two hold cycles = 20 s): a
// repetition has to rebuild and re-warm the cluster, and the driver's time
// cap leaves room for three repetitions only if the warm-up costs less than
// the window. The steady state is the same 20.6k decisions per virtual
// second as after the default 40 s warm-up.
func churnConfig(seed int64, smoke bool) scale.Config {
	c := scale.DefaultChurnConfig()
	if smoke {
		c = scale.SmokeChurnConfig()
	} else {
		c.ArrivalWindow = 10 * sim.Second
		c.ChurnWarmup = 20 * sim.Second
		c.ChurnMeasure = 30 * sim.Second
		c.Horizon = c.ChurnWarmup + c.ChurnMeasure
	}
	c.Seed = seed
	return c
}

func failoverConfig(seed int64, smoke bool) scale.Config {
	c := scale.DefaultConfig()
	if smoke {
		c = scale.SmokeConfig()
	}
	c = c.WithMasterFailovers(3)
	c.Seed = seed
	return c
}

// replayConfig is DefaultReplayConfig cut to one 100 s day with storms at
// 30 s and 70 s. Two things are changed for steadiness across seeds, because
// the driver draws another seed for every run:
//
// The master fails over three times, not once at 60 s: at 20 s, 50 s and
// 85 s, which is near the arrival peak, at the base rate and near the trough,
// each clear of a storm's 13 s. Demand-to-grant is 0.4 ms except for demands
// caught in a 4 s outage, which wait about 2 s, so the mean is the outages'
// catch. One outage late in the day catches 34–42 ms' worth depending on
// which bursts the seed lands there (quartile spread 9% over ten seeds);
// three catch 180–187 ms (2–5% over three sets of ten).
//
// The hold tail is bounded (30 s holds, 2× slow machines, against 60 s and
// 4×): the run drains until the last job finishes, and with the default
// tail the drain lasts 50–160 virtual seconds depending on one heavy-tailed
// draw, during which 5,000 idle agents heartbeat — messages per decision
// then swings ±15% across seeds.
func replayConfig(seed int64, smoke bool) scale.Config {
	c := scale.DefaultReplayConfig()
	if smoke {
		c = scale.SmokeReplayConfig()
		c.ReplayDayLength = 40 * sim.Second
		c.ReplayStormAt = []sim.Time{12 * sim.Second, 28 * sim.Second}
		c.MasterFailoverAt = []sim.Time{24 * sim.Second}
	} else {
		c.ReplayStormAt = []sim.Time{30 * sim.Second, 70 * sim.Second}
		c.MasterFailoverAt = []sim.Time{20 * sim.Second, 50 * sim.Second, 85 * sim.Second}
		c.ReplayHoldMax = 30 * sim.Second
		c.ReplaySlowFactor = 2
	}
	c.ReplayDays = 1
	c.Seed = seed
	return c
}

// chaosConfig is DefaultChaosConfig at 2,000 machines / 1,000 apps with the
// churn workload's halved warm-up and the fault schedule moved up to match.
// Both partition storms outlast the 3 s heartbeat timeout (4.7 s and 6.7 s
// over 2% of the cluster): a storm shorter than the timeout is repaired by
// the next message on each cut link, which takes 10 ms or 3.3 s depending on
// which machines the seed picks, and the harness convergence probe — which
// rebuilds the whole cluster ledger every 5 ms until the heal converges —
// makes host time follow that coin flip 3:1. The long storms reconverge in
// 310–315 ms on every seed tried. The second storm heals 3 s before the
// link flaps start so the two repairs do not overlap.
func chaosConfig(seed int64, smoke bool) scale.Config {
	c := scale.DefaultChaosConfig()
	if smoke {
		c = scale.SmokeChaosConfig()
	} else {
		c.Racks, c.MachinesPerRack = 50, 40
		c.Apps = 1000
		c.ArrivalWindow = 10 * sim.Second
		c.ChurnWarmup = 20 * sim.Second
		c.ChurnMeasure = 50 * sim.Second
		c.Horizon = c.ChurnWarmup + c.ChurnMeasure
		c.ChaosPartitionAt = []sim.Time{28 * sim.Second, 38 * sim.Second}
		c.ChaosPartitionFor = []sim.Time{4700 * sim.Millisecond, 6700 * sim.Millisecond}
		c.ChaosFlapAt = []sim.Time{48 * sim.Second}
		c.ChaosSpikeAt = []sim.Time{52 * sim.Second}
		c.ChaosLockPartitionAt = 55 * sim.Second
	}
	c.Seed = seed
	return c
}

// servedAll is the closed churn loop: every decision is a grant or revoke
// delivered to an application master, none can be refused.
func servedAll(r *scale.Result) (uint64, uint64, uint64) { return r.Decisions, r.Decisions, 0 }

func servedApps(r *scale.Result) (uint64, uint64, uint64) {
	return uint64(r.Config.Apps), uint64(r.CompletedApps), 0
}

// servedJobs counts every submission: a job the gateway shed is unserved,
// as is one admitted but unfinished; only the second is a failure.
func servedJobs(r *scale.Result) (uint64, uint64, uint64) {
	if r.Gateway == nil {
		return 0, 0, 0
	}
	return r.Gateway.Submitted, r.Gateway.Completed, r.Gateway.Shed
}

func servedHeals(r *scale.Result) (uint64, uint64, uint64) {
	if r.Chaos == nil {
		return 0, 0, 0
	}
	return uint64(r.Chaos.Heals), uint64(r.Chaos.Heals - r.Chaos.Unconverged), 0
}

func noRecovery(*scale.Result) (float64, float64) { return 0, 0 }

func masterRecovery(r *scale.Result) (float64, float64) {
	return r.RecoveryP50MS, r.RecoveryMaxMS
}

func healConvergence(r *scale.Result) (float64, float64) {
	if r.Chaos == nil {
		return 0, 0
	}
	return r.Chaos.ConvergenceP50MS, r.Chaos.ConvergenceMaxMS
}

// gate returns why a repetition's outputs are wrong (nil when correct):
// invariant violations, a run cut short, or a partition that never healed.
func gate(r *scale.Result) []string {
	var bad []string
	for _, v := range r.Invariants {
		bad = append(bad, "invariant: "+v)
	}
	if r.Truncated {
		bad = append(bad, "run truncated before the workload completed")
	}
	if r.Chaos != nil && r.Chaos.Unconverged > 0 {
		bad = append(bad, fmt.Sprintf("%d heal window(s) never reconverged", r.Chaos.Unconverged))
	}
	if r.Decisions == 0 {
		bad = append(bad, "no scheduling decisions")
	}
	return bad
}

// exact is everything a repetition computes in virtual time or as a count:
// the same seed must reproduce it bit for bit, so the repetitions of one
// run are compared on it and any difference fails the run.
type exact struct {
	Decisions, Grants, Revokes      uint64
	Events, Messages, Batches       uint64
	D2GMean, D2GP50, D2GP99, D2GMax float64
	RecoverP50, RecoverMax          float64
	Attempted, Served, Refused      uint64
	Completed                       int
	GatewayHash                     string
	Chaos                           scale.ChaosStats
}

func exactOf(w workload, r *scale.Result) exact {
	e := exact{
		Decisions: r.Decisions, Grants: r.Grants, Revokes: r.Revokes,
		Events: r.EventsFired, Messages: r.MessagesSent, Batches: r.MessageBatches,
		D2GMean: r.LatencyMeanMS, D2GP50: r.LatencyP50MS, D2GP99: r.LatencyP99MS, D2GMax: r.LatencyMaxMS,
		Completed: r.CompletedApps,
	}
	e.RecoverP50, e.RecoverMax = w.recover(r)
	e.Attempted, e.Served, e.Refused = w.served(r)
	if r.Gateway != nil {
		e.GatewayHash = r.Gateway.DecisionHash
	}
	if r.Chaos != nil {
		e.Chaos = *r.Chaos
	}
	return e
}
