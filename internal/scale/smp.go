package scale

// SMP bench lane: the multi-core measurement the historical BENCH numbers
// could not make (CI and the recorded baselines ran on single-CPU
// containers, where sharding can only cost). The lane sweeps shard counts
// over three workloads and records BENCH_scale_smp.json:
//
//   - core: a direct scheduler-kernel round loop (release one app's
//     grants → one wide AssignOn sweep → re-demand) at the paper
//     footprint, where parallel scoring dominates. This is the lane the
//     minimum-speedup budget gates: the full harness runs a serial
//     discrete-event loop around the scheduler, so Amdahl caps its
//     end-to-end speedup well below the kernel's.
//   - rounds / churn: the classic and steady-state harness workloads,
//     recorded for end-to-end context (wall seconds, commit ratio, steal
//     rate) but not speedup-gated.
//
// Every run folds its observed decision stream into an FNV-1a hash; the
// lane hard-fails if any shard count's hash diverges from P=1's — the
// recorded witness that parallelism never changed a scheduling decision.
// On hosts with fewer than four cores (or GOMAXPROCS pinned below four)
// the speedup gate is skipped and the result is tagged single-core, so CI
// degrades gracefully instead of flaking.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/master"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
)

// SMPOptions configures the RunSMP sweep.
type SMPOptions struct {
	// Rounds is the classic harness workload (batched rounds); Churn the
	// steady-state one. Both are run once per shard count with the
	// decision-stream hash enabled.
	Rounds Config
	Churn  Config
	// ShardCounts are the swept parallelism degrees; the first entry is
	// the speedup baseline (conventionally 1).
	ShardCounts []int
	// Core-lane shape: CoreRacks×CoreMachinesPerRack machines,
	// CoreApps saturating apps, CoreRounds release/sweep/re-demand
	// rounds per shard count. Fixed round counts keep the decision
	// stream (and its hash) identical across shard counts.
	CoreRacks           int
	CoreMachinesPerRack int
	CoreApps            int
	CoreRounds          int
}

// DefaultSMPOptions is the recorded configuration: the paper footprint on
// every lane, shard counts 1/2/4/8.
func DefaultSMPOptions() SMPOptions {
	return SMPOptions{
		Rounds:              DefaultConfig(),
		Churn:               DefaultChurnConfig(),
		ShardCounts:         []int{1, 2, 4, 8},
		CoreRacks:           125,
		CoreMachinesPerRack: 40,
		CoreApps:            8,
		CoreRounds:          160,
	}
}

// SmokeSMPOptions is the CI-sized sweep: smoke harness workloads, the
// same paper-footprint core lane (it is cheap — a few hundred
// milliseconds per shard count).
func SmokeSMPOptions() SMPOptions {
	o := DefaultSMPOptions()
	o.Rounds = SmokeConfig()
	o.Churn = SmokeChurnConfig()
	o.CoreRounds = 96
	return o
}

// SMPCoreRun is one shard count's core-lane measurement.
type SMPCoreRun struct {
	Shards          int     `json:"shards"`
	Rounds          int     `json:"rounds"`
	Decisions       uint64  `json:"decisions"`
	WallSeconds     float64 `json:"wall_seconds"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	// SpeedupVsP1 is this run's decision throughput over the sweep's
	// first shard count (wall-clock, same decision stream).
	SpeedupVsP1 float64 `json:"speedup_vs_p1,omitempty"`
	CommitRatio float64 `json:"parallel_commit_ratio,omitempty"`
	StealRate   float64 `json:"parallel_steal_rate,omitempty"`
	Imbalance   float64 `json:"parallel_score_imbalance,omitempty"`
	// DecisionHash is the FNV-1a fold of every decision the round loop
	// observed (app, unit, machine, delta, in commit order).
	DecisionHash string `json:"decision_stream_hash"`
	Invariants   int    `json:"invariant_violations"`
}

// SMPResult is the BENCH_scale_smp.json payload.
type SMPResult struct {
	Cores      int  `json:"cores"`
	GOMAXPROCS int  `json:"gomaxprocs"`
	MultiCore  bool `json:"multi_core"`
	// Note tags degraded runs ("single-core host: speedup gate skipped");
	// empty on a full multi-core measurement.
	Note        string `json:"note,omitempty"`
	ShardCounts []int  `json:"shard_counts"`

	Core   []SMPCoreRun `json:"core"`
	Rounds []Result     `json:"rounds"`
	Churn  []Result     `json:"churn"`

	// Wall-clock speedups vs the first shard count, index-aligned with
	// ShardCounts (harness lanes use whole-run wall seconds, so they
	// carry the serial event loop; the core lane is the gated one).
	CoreSpeedup   []float64 `json:"core_speedup"`
	RoundsSpeedup []float64 `json:"rounds_speedup"`
	ChurnSpeedup  []float64 `json:"churn_speedup"`
	// CoreSpeedupP4 is the core-lane speedup at shards=4 (0 when 4 is not
	// in the sweep) — the value the minimum-speedup budget gates.
	CoreSpeedupP4 float64 `json:"core_speedup_p4,omitempty"`

	// Decision-stream byte-identity witnesses: every shard count's hash
	// equal to the baseline's, per lane. A false here is a correctness
	// failure regardless of budgets.
	CoreParityOK   bool `json:"core_parity_ok"`
	RoundsParityOK bool `json:"rounds_parity_ok"`
	ChurnParityOK  bool `json:"churn_parity_ok"`
}

// ParityOK reports whether every lane's decision streams were
// byte-identical across the swept shard counts.
func (r *SMPResult) ParityOK() bool {
	return r.CoreParityOK && r.RoundsParityOK && r.ChurnParityOK
}

// RunSMP runs the three-lane shard-count sweep. Errors abort (they mean a
// workload failed to run); decision-stream divergence and missing speedup
// are recorded in the result for the caller to gate on.
func RunSMP(opts SMPOptions) (*SMPResult, error) {
	if len(opts.ShardCounts) == 0 {
		return nil, fmt.Errorf("smp: no shard counts")
	}
	res := &SMPResult{
		Cores:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		ShardCounts: opts.ShardCounts,
	}
	res.MultiCore = res.Cores >= 4 && res.GOMAXPROCS >= 4
	if !res.MultiCore {
		res.Note = fmt.Sprintf("single-core host (cores=%d gomaxprocs=%d): "+
			"wall-clock numbers measure sharding overhead, not speedup; the "+
			"minimum-speedup gate is skipped", res.Cores, res.GOMAXPROCS)
	}
	for _, p := range opts.ShardCounts {
		core, err := runSMPCore(opts, p)
		if err != nil {
			return nil, err
		}
		res.Core = append(res.Core, core)

		rcfg := opts.Rounds
		rcfg.Shards = p
		if rcfg.RoundWindow == 0 {
			rcfg.RoundWindow = DefaultRoundWindow
		}
		rcfg.RecordDecisionHash = true
		rres, err := Run(rcfg)
		if err != nil {
			return nil, fmt.Errorf("smp rounds shards=%d: %w", p, err)
		}
		res.Rounds = append(res.Rounds, *rres)

		ccfg := opts.Churn
		ccfg.Shards = p
		if ccfg.RoundWindow == 0 {
			ccfg.RoundWindow = DefaultRoundWindow
		}
		ccfg.RecordDecisionHash = true
		cres, err := Run(ccfg)
		if err != nil {
			return nil, fmt.Errorf("smp churn shards=%d: %w", p, err)
		}
		res.Churn = append(res.Churn, *cres)
	}
	res.CoreParityOK, res.RoundsParityOK, res.ChurnParityOK = true, true, true
	for i := range opts.ShardCounts {
		res.CoreSpeedup = append(res.CoreSpeedup, ratio(res.Core[i].DecisionsPerSec, res.Core[0].DecisionsPerSec))
		res.RoundsSpeedup = append(res.RoundsSpeedup, ratio(1/res.Rounds[i].WallSeconds, 1/res.Rounds[0].WallSeconds))
		res.ChurnSpeedup = append(res.ChurnSpeedup, ratio(1/res.Churn[i].WallSeconds, 1/res.Churn[0].WallSeconds))
		res.Core[i].SpeedupVsP1 = res.CoreSpeedup[i]
		if opts.ShardCounts[i] == 4 {
			res.CoreSpeedupP4 = res.CoreSpeedup[i]
		}
		if res.Core[i].DecisionHash != res.Core[0].DecisionHash {
			res.CoreParityOK = false
		}
		if res.Rounds[i].DecisionStreamHash != res.Rounds[0].DecisionStreamHash {
			res.RoundsParityOK = false
		}
		if res.Churn[i].DecisionStreamHash != res.Churn[0].DecisionStreamHash {
			res.ChurnParityOK = false
		}
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runSMPCore drives the scheduler kernel directly — no simulator, no
// transport — through CoreRounds saturated scheduling rounds: release one
// app's grants in deterministic machine order, sweep the whole cluster,
// restate the released demand. Identical inputs at every shard count make
// the decision hash a byte-identity witness, and scoring dominates the
// loop, so this is where shard parallelism must show up as wall-clock.
func runSMPCore(opts SMPOptions, shards int) (SMPCoreRun, error) {
	run := SMPCoreRun{Shards: shards, Rounds: opts.CoreRounds}
	top, err := topology.Build(topology.Spec{
		Racks: opts.CoreRacks, MachinesPerRack: opts.CoreMachinesPerRack,
		MachineCapacity: topology.PaperTestbedMachine(),
	})
	if err != nil {
		return run, fmt.Errorf("smp core: %w", err)
	}
	s := master.NewScheduler(top, master.Options{Shards: shards})
	apps := make([]string, opts.CoreApps)
	// Each app's standing demand is ~2.4× its cluster share, so the tree
	// always holds queued cluster-level entries and every sweep walks a
	// populated queue (the saturated regime of §5.2).
	perApp := top.Size() * 12 / (5 * opts.CoreApps)
	hash := uint64(fnvOffset)
	fold := func(v uint64) {
		for sh := 0; sh < 64; sh += 8 {
			hash = (hash ^ (v >> sh & 0xff)) * fnvPrime
		}
	}
	foldDecisions := func(ds []master.Decision) {
		run.Decisions += uint64(len(ds))
		for i := range ds {
			d := &ds[i]
			for j := 0; j < len(d.App); j++ {
				hash = (hash ^ uint64(d.App[j])) * fnvPrime
			}
			fold(uint64(d.UnitID))
			fold(uint64(uint32(d.MachineID)))
			fold(uint64(int64(d.Delta)))
		}
	}
	for i := range apps {
		apps[i] = fmt.Sprintf("app-%02d", i)
		if err := s.RegisterApp(apps[i], "", []resource.ScheduleUnit{
			{ID: 1, Priority: 10 + i%3, MaxCount: 1 << 30, Size: resource.New(1000, 4096)},
		}); err != nil {
			return run, fmt.Errorf("smp core: %w", err)
		}
		ds, err := s.UpdateDemand(apps[i], 1, []resource.LocalityHint{
			{Type: resource.LocalityCluster, Count: perApp}})
		if err != nil {
			return run, fmt.Errorf("smp core: %w", err)
		}
		foldDecisions(ds)
	}
	machines := top.Machines()
	start := time.Now()
	for r := 0; r < opts.CoreRounds; r++ {
		app := apps[r%len(apps)]
		released := 0
		granted := s.Granted(app, 1)
		for _, m := range machines { // deterministic machine order
			if n := granted[m]; n > 0 {
				if err := s.Release(app, 1, m, n); err != nil {
					return run, fmt.Errorf("smp core round %d: %w", r, err)
				}
				released += n
			}
		}
		foldDecisions(s.AssignOn(machines))
		ds, err := s.UpdateDemand(app, 1, []resource.LocalityHint{
			{Type: resource.LocalityCluster, Count: released}})
		if err != nil {
			return run, fmt.Errorf("smp core round %d: %w", r, err)
		}
		foldDecisions(ds)
	}
	run.WallSeconds = time.Since(start).Seconds()
	if run.WallSeconds > 0 {
		run.DecisionsPerSec = float64(run.Decisions) / run.WallSeconds
	}
	run.DecisionHash = fmt.Sprintf("%016x", hash)
	run.Invariants = len(s.CheckInvariants())
	if ps := s.ParallelStats(); ps.Sweeps > 0 {
		run.CommitRatio = ps.CommitRatio()
		run.StealRate = ps.StealRate()
		run.Imbalance = ps.Imbalance()
	}
	return run, nil
}

// TenXChurnConfig is the 10× footprint: 50,000 machines and one million
// schedule units cycling through the steady-state churn workload with the
// cluster-wide invariant checker attached — the configuration that
// stresses the int32-ID machine slices, the calendar queue and the
// locality-tree bitmaps an order of magnitude past the paper's testbed.
// The windows are shorter than the paper-scale churn run's: the point is
// surviving the footprint with zero invariant violations, not a
// throughput baseline.
func TenXChurnConfig() Config {
	c := DefaultChurnConfig()
	c.Racks, c.MachinesPerRack = 1250, 40 // 50k machines
	c.Apps, c.UnitsPerApp = 25_000, 40    // 1M units
	c.ArrivalWindow = 20 * sim.Second
	c.ChurnWarmup = 30 * sim.Second
	c.ChurnMeasure = 20 * sim.Second
	c.Horizon = c.ChurnWarmup + c.ChurnMeasure
	c.Shards = 4
	c.RoundWindow = DefaultRoundWindow
	c.CheckInvariants = true
	return c
}
