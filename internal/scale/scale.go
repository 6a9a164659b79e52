// Package scale is the paper-scale stress/soak harness: it boots the full
// Fuxi control plane — FuxiMaster, one FuxiAgent per machine, and a churning
// population of application masters — at the 5,000-machine footprint of the
// paper's production cluster (§5) and measures what the toy-sized
// experiments cannot: scheduling-decision throughput, demand-to-grant
// latency in virtual time, and allocation pressure per decision. Lanes
// (lanes.go) is the table of scenarios the harness ships — each one a Config
// constructor pair, a pass/fail contract and its budget gates.
//
// The cluster itself comes from core.NewCluster, the one assembler, and the
// dataplane workload's jobs are JobMasters launched through its SubmitJob.
// What a Config adds to it is one workload — classic arrivals, churn, the
// gateway generator, dataplane, replay — and a list of probes — failover timing,
// chaos convergence, the obs client (workload.go; pick chooses them). The
// harness calls through those two and names no mode, and every job reports
// its grants and revocations through one path, so a lane is a Config and any
// probe runs over any workload.
//
// The harness also runs the paper's headline fault-tolerance scenario at
// full scale: true FuxiMaster crash/promote cycles (Config.MasterFailoverAt)
// with hot-standby lease takeover, checkpoint epoch bumps, soft-state
// rebuild from agent and application-master re-registrations, and the
// cluster-wide invariant checker (internal/invariant) attached to prove the
// rebuilt state equals the pre-crash truth.
package scale

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/agent"
	"repro/internal/appmaster"
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/invariant"
	"repro/internal/master"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Config sizes one stress run.
type Config struct {
	// Racks × MachinesPerRack is the cluster footprint; the paper's
	// production cluster is 5,000 machines (125 racks of 40).
	Racks           int `json:"racks"`
	MachinesPerRack int `json:"machines_per_rack"`

	// Apps application masters arrive uniformly over ArrivalWindow; each
	// registers UnitsPerApp ScheduleUnits and demands ContainersPerUnit
	// containers per unit. Apps × UnitsPerApp is the schedule-unit churn
	// (the acceptance target is ≥ 100k).
	Apps              int `json:"apps"`
	UnitsPerApp       int `json:"units_per_app"`
	ContainersPerUnit int `json:"containers_per_unit"`

	// HoldTime is how long a granted container is held before being
	// returned (each return triggers the event-driven free-up path).
	HoldTime      sim.Time `json:"hold_time_us"`
	ArrivalWindow sim.Time `json:"arrival_window_us"`

	// FullSyncEvery is the application masters' periodic FullDemandSync
	// safety period (0 takes the classic 10s default). The steady-state
	// churn section widens it: the safety sync repairs loss, and the
	// lossless benchmark network makes a 10s cadence pure reconciliation
	// overhead.
	FullSyncEvery sim.Time `json:"full_sync_every_us,omitempty"`

	// FailoverEvery crashes a random machine at this period (0 disables);
	// the machine restarts after FailoverDowntime. Downtime must exceed
	// the master's heartbeat timeout for the crash to surface as a
	// revocation wave (Scheduler.MachineDown).
	FailoverEvery    sim.Time `json:"failover_every_us"`
	FailoverDowntime sim.Time `json:"failover_downtime_us"`

	// MasterFailoverAt lists virtual times at which the active FuxiMaster
	// is crashed mid-run (empty disables). A hot standby then wins the
	// lock-service lease, bumps the checkpoint epoch, reloads hard state
	// and rebuilds soft state from agent and application-master
	// re-registrations; the crashed process restarts as the new standby so
	// repeated failovers alternate the pair. Stale-epoch messages from each
	// dead primary are fenced by the protocol's epoch stamps.
	MasterFailoverAt []sim.Time `json:"master_failover_at_us,omitempty"`

	// CheckInvariants attaches the cluster-wide invariant checker: the
	// scheduler conservation invariants are asserted every virtual second,
	// and when the run completes, the settled master/agent/app grant
	// ledgers and the checkpoint write budget are verified too.
	CheckInvariants bool `json:"check_invariants,omitempty"`

	// Horizon hard-stops the simulation even if apps are still running.
	Horizon sim.Time `json:"horizon_us"`
	Seed    int64    `json:"seed"`

	// Churn switches to the steady-state churn benchmark (see churn.go):
	// apps never complete — each returned container is immediately
	// re-demanded — and measurement starts only after ChurnWarmup, running
	// for ChurnMeasure of virtual time (Horizon should equal their sum).
	Churn        bool     `json:"churn,omitempty"`
	ChurnWarmup  sim.Time `json:"churn_warmup_us,omitempty"`
	ChurnMeasure sim.Time `json:"churn_measure_us,omitempty"`

	// Shards is inert: the sharded parallel scheduler it selected is gone
	// (EXPERIMENTS.md, "Why the sharded scheduler was removed") and
	// Run rejects values above 1. The field is still declared only
	// because bench/bench_test.go reads it and bench/ is closed to
	// non-benchmark PRs; ROADMAP's Parked "bench/ follow-ups" drops both.
	Shards int `json:"shards,omitempty"`

	// RecordDecisionHash accumulates an FNV-1a hash over the grant/revoke
	// stream observed by the application masters (classic and churn
	// workloads) — the byte-identity witness the golden lane rows pin.
	RecordDecisionHash bool `json:"record_decision_hash,omitempty"`

	// RoundWindow > 0 batches demand and returns into scheduling rounds of
	// this width (master.Config.BatchWindow).
	RoundWindow sim.Time `json:"round_window_us,omitempty"`

	// GatewayUsers > 0 switches the workload to gateway mode: instead of a
	// fixed app schedule, an open-loop load generator simulating this many
	// distinct tenants submits GatewaySubmissions jobs through the
	// multi-tenant submission gateway (internal/gateway) spread over
	// ArrivalWindow; each registered job runs as an application master with
	// UnitsPerApp units of ContainersPerUnit containers held for HoldTime.
	// Apps is ignored in this mode.
	GatewayUsers       int `json:"gateway_users,omitempty"`
	GatewaySubmissions int `json:"gateway_submissions,omitempty"`
	// GatewayHotTenants is the size of the heavy-hitter set and
	// GatewayHotSharePct the percentage of submissions drawn from it (the
	// skew that makes per-tenant rate limiting bite: the uniform tail of a
	// million-user population rarely exceeds one job per tenant).
	GatewayHotTenants  int `json:"gateway_hot_tenants,omitempty"`
	GatewayHotSharePct int `json:"gateway_hot_share_pct,omitempty"`
	// GatewayServicePct is the percentage of tenant identities in the
	// latency-sensitive service class (the rest are batch).
	GatewayServicePct int `json:"gateway_service_pct,omitempty"`
	// RecordGatewayDecisions keeps the full admit/shed decision stream in
	// Result.GatewayDecisions (parity tests only — it is large).
	RecordGatewayDecisions bool `json:"-"`

	// Dataplane switches the workload to data-plane mode (see dataplane.go):
	// instead of synthetic hold/return churn, the jobs submitted through the
	// gateway are GraySort chains, Figure 6 DAG pipelines and long-running
	// streamline service residents, each run by a JobMaster, with sampled
	// kernel-level output verification.
	// Apps and the synthetic gateway load generator are ignored in this mode.
	Dataplane bool `json:"dataplane,omitempty"`
	// GraySortJobs jobs each sort GraySortDataMB of simulated input; the
	// input file's chunk count (GraySortDataMB / 256) is the width of every
	// stage in the job's map → sort → merge chain.
	GraySortJobs   int   `json:"graysort_jobs,omitempty"`
	GraySortDataMB int64 `json:"graysort_data_mb,omitempty"`
	// DAGJobs jobs run the paper's Figure 6 diamond (T1 → {T2,T3} → T4).
	DAGJobs int `json:"dag_jobs,omitempty"`
	// ServiceJobs long-running residents each hold ServiceWorkers containers
	// in the gateway's service class and run ServiceOps streamline operation
	// rounds, one every ServiceOpEvery.
	ServiceJobs    int      `json:"service_jobs,omitempty"`
	ServiceWorkers int      `json:"service_workers,omitempty"`
	ServiceOps     int      `json:"service_ops,omitempty"`
	ServiceOpEvery sim.Time `json:"service_op_every_us,omitempty"`
	// VerifyRecords is the per-map-task record count of the sampled GraySort
	// kernel verification (0 disables); every VerifySampleEvery-th job is
	// verified.
	VerifyRecords     int `json:"verify_records,omitempty"`
	VerifySampleEvery int `json:"verify_sample_every,omitempty"`
	// ServiceSLOMS / BatchSLOMS are the per-class demand-to-grant SLOs
	// (virtual milliseconds) the dataplane and replay sections report
	// attainment for.
	ServiceSLOMS float64 `json:"service_slo_ms,omitempty"`
	BatchSLOMS   float64 `json:"batch_slo_ms,omitempty"`

	// Replay switches the workload to trace-driven replay mode (see
	// replay.go): an Alibaba-cluster-trace-style synthetic day — diurnal
	// session arrivals over the GatewayUsers tenant population, correlated
	// per-tenant submission bursts, heavy-tailed job widths and hold
	// durations — played open-loop through the gateway and scheduler, with
	// machine-failure storms injected mid-replay through internal/faults
	// campaigns. Apps and the synthetic gateway generator are ignored.
	Replay bool `json:"replay_mode,omitempty"`
	// ReplayDays simulated days of ReplayDayLength each are generated; the
	// run then drains.
	ReplayDays      int      `json:"replay_days,omitempty"`
	ReplayDayLength sim.Time `json:"replay_day_length_us,omitempty"`
	// ReplaySessionsPerSec is the day-average session arrival rate;
	// ReplayAmplitudePct the sinusoidal diurnal modulation (peak = base ×
	// (1 + A/100), trough = base × (1 − A/100)).
	ReplaySessionsPerSec float64 `json:"replay_sessions_per_sec,omitempty"`
	ReplayAmplitudePct   float64 `json:"replay_amplitude_pct,omitempty"`
	// Each session is one tenant submitting a geometric burst of
	// ReplayBurstMean jobs spaced exponentially with mean ReplayBurstGap.
	ReplayBurstMean float64  `json:"replay_burst_mean,omitempty"`
	ReplayBurstGap  sim.Time `json:"replay_burst_gap_us,omitempty"`
	// Job widths (containers) are bounded-Pareto(ReplayWidthAlpha) on
	// [1, ReplayWidthMax]; container hold times bounded-Pareto
	// (ReplayHoldAlpha) on [ReplayHoldMin, ReplayHoldMax]. Both are drawn
	// from the job-ID hash, independent of scheduling timing.
	ReplayWidthMax   int      `json:"replay_width_max,omitempty"`
	ReplayWidthAlpha float64  `json:"replay_width_alpha,omitempty"`
	ReplayHoldAlpha  float64  `json:"replay_hold_alpha,omitempty"`
	ReplayHoldMin    sim.Time `json:"replay_hold_min_us,omitempty"`
	ReplayHoldMax    sim.Time `json:"replay_hold_max_us,omitempty"`
	// ReplayStormAt lists the start times of machine-failure storms: each
	// storm applies a faults.CampaignFor(machines, ReplayStormPct,
	// ReplaySlowFactor) campaign — NodeDown, PartialWorkerFailure,
	// SlowMachine in the paper's Table 3 ratio — spread over
	// ReplayStormWindow; every effect clears after ReplayStormDowntime.
	ReplayStormAt       []sim.Time `json:"replay_storm_at_us,omitempty"`
	ReplayStormPct      float64    `json:"replay_storm_pct,omitempty"`
	ReplayStormWindow   sim.Time   `json:"replay_storm_window_us,omitempty"`
	ReplayStormDowntime sim.Time   `json:"replay_storm_downtime_us,omitempty"`
	ReplaySlowFactor    float64    `json:"replay_slow_factor,omitempty"`

	// Chaos runs the workload under an adversarial network schedule (see
	// chaos.go): partition storms isolating agent groups, link flaps, delay
	// spikes, and an optional lock-service partition of the primary master —
	// faults the machine-crash modes above never produce, because crashed
	// processes stop talking whereas partitioned ones keep acting on stale
	// state. Results land in the `chaos` section of BENCH_scale.json.
	Chaos bool `json:"chaos,omitempty"`
	// ChaosPartitionAt lists partition-storm start times; the parallel
	// ChaosPartitionFor lists each storm's duration (default 5 s). Every
	// storm isolates ChaosPartitionPct percent of the machines (default 1
	// machine) from the rest of the control plane.
	ChaosPartitionAt  []sim.Time `json:"chaos_partition_at_us,omitempty"`
	ChaosPartitionFor []sim.Time `json:"chaos_partition_for_us,omitempty"`
	ChaosPartitionPct float64    `json:"chaos_partition_pct,omitempty"`
	// ChaosFlapAt lists link-flap windows: at each, ChaosFlaps machines have
	// their links bounced down/up (transport defaults: 500 ms / 500 ms × 3).
	ChaosFlapAt []sim.Time `json:"chaos_flap_at_us,omitempty"`
	ChaosFlaps  int        `json:"chaos_flaps,omitempty"`
	// ChaosSpikeAt lists delay-spike windows: at each, ChaosSpikes machines
	// get ChaosSpikeDelay of extra one-way latency for 1 s — enough to land
	// their traffic out of order relative to un-spiked links.
	ChaosSpikeAt    []sim.Time `json:"chaos_spike_at_us,omitempty"`
	ChaosSpikes     int        `json:"chaos_spikes,omitempty"`
	ChaosSpikeDelay sim.Time   `json:"chaos_spike_delay_us,omitempty"`
	// ChaosLockPartitionAt cuts the current primary master from the lock
	// service for ChaosLockPartitionFor while it still reaches every agent:
	// the lease expires, the standby promotes, and the deposed primary must
	// fence itself at its lease deadline (0 disables).
	ChaosLockPartitionAt  sim.Time `json:"chaos_lock_partition_at_us,omitempty"`
	ChaosLockPartitionFor sim.Time `json:"chaos_lock_partition_for_us,omitempty"`

	// Obs enables the observability plane (see obs.go): the primary master
	// records a ring-buffered time-series sample every scheduling round
	// (requires RoundWindow > 0), the harness flaps watched links to make
	// per-link loss queryable over time, and a live query client
	// interrogates the store over the transport mid-run. Results land in
	// the `obs` section of BENCH_scale.json.
	Obs bool `json:"obs,omitempty"`
	// ObsRetain is the ring capacity in samples (default 1024; the run is
	// expected to wrap it, proving eviction).
	ObsRetain int `json:"obs_retain,omitempty"`
	// ObsQueryEvery is the live query cadence (0 disables queries).
	ObsQueryEvery sim.Time `json:"obs_query_every_us,omitempty"`
}

// DefaultConfig is the paper-scale run: 5,000 machines across 125 racks and
// 100k schedule units (2,500 apps × 40 units) churning through
// submit/grant/return with a machine failover every 2 simulated seconds.
func DefaultConfig() Config {
	return Config{
		Racks:             125,
		MachinesPerRack:   40,
		Apps:              2500,
		UnitsPerApp:       40,
		ContainersPerUnit: 3,
		// Peak concurrent demand ≈ Apps/ArrivalWindow × units × containers
		// × HoldTime ≈ 128k containers against ~103k of cluster capacity:
		// the run crosses into the paper's saturated regime (§5.2 reports
		// >95% utilization), so demand queues in the locality tree and
		// every return drives the event-driven free-up path.
		HoldTime:         15 * sim.Second,
		ArrivalWindow:    35 * sim.Second,
		FailoverEvery:    2 * sim.Second,
		FailoverDowntime: 8 * sim.Second,
		Horizon:          10 * sim.Minute,
		Seed:             1,
	}
}

// SmokeConfig is the CI-sized run: 100 machines, 2,000 schedule units.
func SmokeConfig() Config {
	c := DefaultConfig()
	c.Racks, c.MachinesPerRack = 10, 10
	c.Apps, c.UnitsPerApp = 100, 20
	c.ArrivalWindow = 10 * sim.Second
	c.Horizon = 2 * sim.Minute
	return c
}

// WithMasterFailovers returns the configuration with n master crashes
// spread evenly across the busy part of the run (arrival window plus one
// hold cycle) and the invariant checker enabled — the paper-scale
// hot-standby promotion scenario.
func (c Config) WithMasterFailovers(n int) Config {
	c.MasterFailoverAt = nil
	span := c.ArrivalWindow + c.HoldTime
	for i := 1; i <= n; i++ {
		c.MasterFailoverAt = append(c.MasterFailoverAt, span*sim.Time(i)/sim.Time(n+1))
	}
	c.CheckInvariants = true
	return c
}

// Result is one run's measurement, serialized into BENCH_scale.json.
type Result struct {
	Config   Config `json:"config"`
	Machines int    `json:"machines"`
	Units    int    `json:"units"`

	// Decisions is the number of container-level scheduling decisions the
	// master materialized (grants + revocations observed by the apps).
	Decisions uint64 `json:"decisions"`
	Grants    uint64 `json:"grants"`
	Revokes   uint64 `json:"revokes"`

	WallSeconds     float64 `json:"wall_seconds"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`

	// Demand-to-grant latency in virtual (simulated) milliseconds: from a
	// DemandUpdate leaving an application master to the first resulting
	// grant arriving back (paper Figure 9 reports mean 0.88 ms).
	LatencyMeanMS float64 `json:"latency_mean_ms"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	LatencyMaxMS  float64 `json:"latency_max_ms"`
	// SlowestGrant is the grant behind LatencyMaxMS (nil when no demand was
	// answered).
	SlowestGrant *SlowGrant `json:"slowest_grant,omitempty"`

	AllocsPerDecision float64 `json:"allocs_per_decision"`
	EventsFired       uint64  `json:"events_fired"`
	MessagesSent      uint64  `json:"messages_sent"`
	MessageBatches    uint64  `json:"message_batches"`

	CompletedApps int `json:"completed_apps"`
	// Truncated marks a run stopped by Horizon before every app completed:
	// its latency aggregates cover only the demand answered before the cut
	// and are NOT comparable to a run-to-completion section.
	Truncated  bool     `json:"truncated,omitempty"`
	SimSeconds float64  `json:"sim_seconds"`
	Invariants []string `json:"invariant_violations,omitempty"`
	// InvariantChecks counts checker invocations (0 when not attached).
	InvariantChecks int `json:"invariant_checks,omitempty"`

	// DecisionStreamHash is the FNV-1a hash over the observed grant/revoke
	// stream (Config.RecordDecisionHash) — equal between two runs iff their
	// decision streams are byte-identical.
	DecisionStreamHash string `json:"decision_stream_hash,omitempty"`

	// Master-failover measurements (virtual milliseconds), present when
	// MasterFailoverAt is non-empty. Recovery is crash → soft state rebuilt
	// and scheduling resumed; scheduling pause is crash → first grant from
	// the promoted successor delivered to an application master.
	MasterFailovers int     `json:"master_failovers,omitempty"`
	RecoveryMeanMS  float64 `json:"recovery_mean_ms,omitempty"`
	RecoveryP50MS   float64 `json:"recovery_p50_ms,omitempty"`
	RecoveryP99MS   float64 `json:"recovery_p99_ms,omitempty"`
	RecoveryMaxMS   float64 `json:"recovery_max_ms,omitempty"`
	SchedPauseP50MS float64 `json:"sched_pause_p50_ms,omitempty"`
	SchedPauseP99MS float64 `json:"sched_pause_p99_ms,omitempty"`
	SchedPauseMaxMS float64 `json:"sched_pause_max_ms,omitempty"`
	// GrantsLost counts containers held by application masters at recovery
	// completion that the rebuilt master ledger does not carry (0 when the
	// soft-state rebuild is exact). GrantsReissued counts containers
	// granted by the promoted masters' post-recovery assignment passes.
	GrantsLost     uint64 `json:"grants_lost_on_failover,omitempty"`
	GrantsReissued uint64 `json:"grants_reissued,omitempty"`
	// Checkpoint byte accounting (failover scenarios), the durable-storage
	// cost of the run: write count, cumulative bytes (delta log plus
	// compaction anchors), and bytes per registered job.
	CheckpointWrites      int     `json:"checkpoint_writes,omitempty"`
	CheckpointBytes       int64   `json:"checkpoint_bytes,omitempty"`
	CheckpointBytesPerJob float64 `json:"checkpoint_bytes_per_job,omitempty"`

	// Gateway holds the submission gateway's measurement snapshot — the
	// `gateway` section of BENCH_scale.json (gateway mode only).
	Gateway *gateway.Stats `json:"gateway,omitempty"`
	// Dataplane holds the application-level data-plane measurements —
	// makespan, locality hit rate, shuffle volume, per-class SLO attainment
	// (dataplane mode only; the `dataplane` section of BENCH_scale.json).
	Dataplane *DataplaneStats `json:"dataplane,omitempty"`
	// Replay holds the trace-replay measurements — per-class SLO
	// attainment, shed and preemption rates, per-phase utilization, storm
	// accounting (replay mode only; the `replay` section of
	// BENCH_scale.json).
	Replay *ReplayStats `json:"replay,omitempty"`
	// Chaos holds the adversarial-network measurements — storm accounting,
	// convergence-after-heal percentiles, lost/reissued grant counts, link
	// loss attribution (chaos mode only; the `chaos` section of
	// BENCH_scale.json).
	Chaos *ChaosStats `json:"chaos,omitempty"`
	// Obs holds the observability-plane measurements — ring shape, live
	// query conversation, loss attribution, incremental checkpoint byte
	// accounting (obs mode only; the `obs` section of BENCH_scale.json).
	Obs *ObsStats `json:"obs,omitempty"`
	// AllocsPerAdmission and MessagesPerAdmission are the whole run's
	// allocation and message volume per registered job (gateway mode only;
	// the budget gates in CI enforce them).
	AllocsPerAdmission   float64 `json:"allocs_per_admission,omitempty"`
	MessagesPerAdmission float64 `json:"messages_per_admission,omitempty"`
	// GatewayDecisions is the full decision stream (parity tests only).
	GatewayDecisions []gateway.Decision `json:"-"`

	// CompletedHash is the wrapping sum of the completed applications' FNV-1a
	// name hashes: two runs that completed the same set of applications, in
	// whatever order (a failover may reorder completions), have equal sums.
	// The metamorphic failover-transparency tests compare it beside
	// CompletedApps; the harness keeps no per-job name for it.
	CompletedHash uint64 `json:"-"`
}

// SlowGrant identifies the grant behind a run's demand-to-grant maximum: the
// unit that waited, the machine it got, the locality level at which the grant
// met its demand, and when the demand left the application master and the
// grant reached it (virtual milliseconds since boot).
type SlowGrant struct {
	App        string  `json:"app"`
	UnitID     int     `json:"unit_id"`
	Machine    string  `json:"machine"`
	Level      string  `json:"locality_level"`
	DemandAtMS float64 `json:"demand_at_ms"`
	GrantAtMS  float64 `json:"grant_at_ms"`
}

// slowGrant is SlowGrant as the observed-decision path records it.
type slowGrant struct {
	app               string
	unitID            int
	machine           int32
	level             resource.LocalityType
	demandAt, grantAt sim.Time
}

// harness is one run: the cluster core.NewCluster wired, the workload that
// feeds it jobs, the probes that measure it, and the counters every job's
// observed decisions land in. Nothing below names a mode: what differs
// between lanes is behind h.load and h.probes (pick chooses them).
type harness struct {
	cfg Config
	// cl is the cluster; eng, net, top, agents, gw (nil without a front door)
	// and inj alias the parts the hot paths read.
	cl     *core.Cluster
	eng    *sim.Engine
	net    *transport.Net
	top    *topology.Topology
	agents []*agent.Agent
	gw     *gateway.Gateway
	// inj injects every fault of the run; each Config fault field only
	// produces faults.Fault values for it.
	inj *faults.Injector

	load   workload
	probes []probe
	// expire is the timer body that ends a synthetic job's hold on a grant:
	// holdReturn, or holdExpire under churn.
	expire func(any)
	// classes is the per-class account of a workload whose jobs carry a
	// gateway class it reports on (nil otherwise).
	classes *classLedger

	// apps lists the applications in start order; appsDone counts the
	// finished ones still in it (see finish: they are squeezed out, order
	// kept, so the list — and everything reachable from it — stays
	// proportional to the jobs still open, not to the jobs ever served).
	apps     []*application
	appsDone int
	rng      *rand.Rand

	latency obs.Dist
	// slowest is the grant behind the latency maximum, kept beside it.
	slowest       slowGrant
	grants        uint64
	revokes       uint64
	completed     int
	completedHash uint64 // see Result.CompletedHash
	// launchFails counts grants bounced off a broken machine as launch
	// failures, slowHolds holds a slow machine stretched by its factor (the
	// injector has both tables).
	launchFails uint64
	slowHolds   uint64

	// decHash is the running FNV-1a over the observed decision stream
	// (Config.RecordDecisionHash); 0 means disabled.
	decHash uint64

	// holds is the hold-expiry records' store (see churn.go): every grant
	// borrows one for its closure-free hold timer.
	holds dense.Arena[holdRec]

	checker *invariant.Checker
}

// primary returns the current primary master (nil during an interregnum).
func (h *harness) primary() *master.Master { return h.cl.Primary() }

func (h *harness) primarySched() *master.Scheduler { return h.cl.Scheduler() }

// Run executes one stress run and returns its measurements.
func Run(cfg Config) (*Result, error) {
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	return h.run(), nil
}

// validated checks cfg and returns it normalised. With pick, it is the only
// reader of the fields that select a workload or a probe.
func (cfg Config) validated() (Config, error) {
	viaGateway := cfg.GatewayUsers > 0 || cfg.Dataplane || cfg.Replay
	switch {
	case cfg.Racks <= 0 || cfg.MachinesPerRack <= 0 || cfg.UnitsPerApp <= 0,
		!viaGateway && cfg.Apps <= 0:
		return cfg, fmt.Errorf("scale: non-positive cluster or workload dimension")
	case cfg.Shards > 1:
		return cfg, fmt.Errorf("scale: Shards = %d, but the sharded parallel scheduler was removed (EXPERIMENTS.md); there is one serial scheduling path", cfg.Shards)
	case cfg.Obs && cfg.RoundWindow <= 0:
		return cfg, fmt.Errorf("scale: obs mode samples per scheduling round and needs RoundWindow > 0")
	case cfg.Churn && viaGateway:
		return cfg, fmt.Errorf("scale: churn is the steady state of the classic arrivals; a gateway-fed job that never completes never frees its admission slot")
	case cfg.Replay && cfg.Dataplane:
		return cfg, fmt.Errorf("scale: replay and dataplane modes are mutually exclusive")
	case cfg.Replay && (cfg.ReplayDays <= 0 || cfg.ReplayDayLength <= 0 || cfg.ReplaySessionsPerSec <= 0):
		return cfg, fmt.Errorf("scale: replay mode needs positive days, day length, and session rate")
	case cfg.Replay && cfg.GatewayUsers <= 0:
		return cfg, fmt.Errorf("scale: replay mode needs a tenant population")
	}
	if cfg.Dataplane {
		// Data-plane jobs ride the gateway admission path; the submission
		// count the workload waits for is the job count.
		cfg.GatewaySubmissions = cfg.GraySortJobs + cfg.DAGJobs + cfg.ServiceJobs
		if cfg.GatewaySubmissions <= 0 {
			return cfg, fmt.Errorf("scale: dataplane mode needs at least one job")
		}
		if cfg.ServiceJobs > 0 && (cfg.ServiceOps < 0 || cfg.ServiceOpEvery <= 0) {
			return cfg, fmt.Errorf("scale: dataplane service jobs need a positive op period")
		}
	}
	if viaGateway && !cfg.Replay && cfg.GatewaySubmissions <= 0 {
		// Replay is open-loop: the submission count follows from the arrival
		// process rather than a preset target.
		return cfg, fmt.Errorf("scale: gateway mode needs a positive submission count")
	}
	return cfg, nil
}

// newHarness validates cfg, has core.NewCluster wire the cluster the
// workload and probes ask for, and arms the whole workload and fault
// schedule; nothing beyond the election has run yet.
func newHarness(cfg Config) (*harness, error) {
	cfg, err := cfg.validated()
	if err != nil {
		return nil, err
	}
	h := &harness{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	if cfg.RecordDecisionHash {
		h.decHash = fnvOffset
	}
	h.pick()
	cc := core.Config{
		Racks: cfg.Racks, MachinesPerRack: cfg.MachinesPerRack, Seed: cfg.Seed,
		Master:  master.Config{BatchWindow: cfg.RoundWindow},
		Gateway: h.load.frontDoor(),
	}
	for _, p := range h.probes {
		p.need(&cc)
	}
	if h.cl, err = core.NewCluster(cc); err != nil {
		return nil, err
	}
	cl := h.cl
	h.eng, h.net, h.top, h.agents, h.gw, h.inj = cl.Eng, cl.Net, cl.Top, cl.Agents, cl.Gateway, cl.Faults
	h.inj.Hook = func(f faults.Fault, open bool) {
		for _, p := range h.probes {
			p.fault(f, open)
		}
	}

	if cfg.CheckInvariants {
		h.checker = &invariant.Checker{
			Top:    h.top,
			Sched:  h.primarySched,
			Agents: func() []*agent.Agent { return h.agents },
			AMs: func() []*appmaster.AM {
				ams := make([]*appmaster.AM, 0, len(h.apps))
				for _, a := range h.apps {
					if !a.done {
						ams = append(ams, a.am)
					}
				}
				return ams
			},
			Ckpt:    cl.Ckpt,
			Gateway: h.gw,
		}
		// Conservation invariants after every virtual second of scheduling
		// rounds (plus admission conservation behind a gateway); ledger
		// agreement is checked at the settled end of the run.
		h.eng.Every(sim.Second, func() {
			h.checker.CheckScheduler()
			if h.gw != nil {
				h.checker.CheckAdmission(false)
			}
		})
	}

	if err := h.load.arm(); err != nil {
		return nil, err
	}
	for _, p := range h.probes {
		p.arm()
	}

	// Failover churn: crash a random machine (drawn at fire time, from the
	// workload stream), restart after the downtime — long enough for the
	// heartbeat timeout to declare it dead and revoke its grants.
	if cfg.FailoverEvery > 0 {
		h.eng.Every(cfg.FailoverEvery, func() {
			h.inj.Fire(faults.Fault{
				Kind: faults.NodeDown, For: cfg.FailoverDowntime,
				Targets: []int32{int32(h.rng.Intn(len(h.agents)))},
			})
		})
	}
	return h, nil
}

// run drives the armed harness to its horizon (or until the workload
// drains) and collects the measurements.
func (h *harness) run() *Result {
	cfg, eng, net := h.cfg, h.eng, h.net
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	slice := 500 * sim.Millisecond
	evBase, msgBase, batchBase := uint64(0), uint64(0), uint64(0)
	if from, _ := h.load.window(); from > 0 {
		// Warmup: arrivals plus enough hold cycles to reach steady state.
		// Everything measured — decisions, allocations, messages, events,
		// latency — restarts at the warmup boundary, so the section reports
		// pure steady-state cost.
		for eng.Now() < from {
			eng.Run(eng.Now() + slice)
		}
		h.grants, h.revokes = 0, 0
		h.latency.Reset()
		h.slowest = slowGrant{}
		evBase = eng.Fired()
		s := net.Stats()
		msgBase, batchBase = s.Sent, s.Batches
		runtime.ReadMemStats(&before)
		start = time.Now()
	}
	for eng.Now() < cfg.Horizon && !h.load.drained() {
		eng.Run(eng.Now() + slice)
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	if h.checker != nil && h.load.drained() {
		// Let in-flight control traffic land (one-way latency is 200µs;
		// two virtual seconds covers every outstanding round trip), then
		// verify the settled cross-component ledgers and the checkpoint
		// write budget: one SaveApp per registered app, one RemoveApp per
		// completed app, one epoch bump per election, plus a blacklist
		// allowance derived from the deaths the run injected — each
		// machine crash can be observed once per master tenure and score at
		// most one blacklisting plus one rehabilitation write. A regression
		// that writes the blacklist on the fast path still blows the budget.
		eng.Run(eng.Now() + 2*sim.Second)
		h.checker.CheckAll(true)
		saved := cfg.Apps
		if h.gw != nil {
			saved = int(h.gw.Snapshot().Registered)
		}
		blkBudget := 2 * h.inj.Fired(faults.NodeDown) * (1 + len(cfg.MasterFailoverAt))
		writeBudget := saved + h.completed + 1 + len(cfg.MasterFailoverAt) + blkBudget
		h.checker.CheckCheckpointWrites(writeBudget)
		// Byte budget: each delta record is bounded by one app config (a
		// small header plus UnitsPerApp unit records), and compaction adds
		// one full anchor — at most saved+2 app records — per
		// CompactionCadence writes. A snapshot-per-write regression
		// re-appears as O(apps) bytes per record and blows this line
		// immediately.
		perRec := int64(128 + 96*cfg.UnitsPerApp)
		anchors := int64(writeBudget/h.cl.Ckpt.CompactionCadence() + 1)
		anchorCap := int64(saved+2) * perRec
		h.checker.CheckCheckpointBytes(int64(writeBudget)*perRec + anchors*anchorCap)
	}

	res := &Result{
		Config:         cfg,
		Machines:       h.top.Size(),
		Units:          cfg.Apps * cfg.UnitsPerApp,
		Grants:         h.grants,
		Revokes:        h.revokes,
		Decisions:      h.grants + h.revokes,
		WallSeconds:    wall,
		LatencyMeanMS:  h.latency.Mean(),
		LatencyP50MS:   h.latency.Quantile(0.5),
		LatencyP99MS:   h.latency.Quantile(0.99),
		LatencyMaxMS:   h.latency.Max(),
		EventsFired:    eng.Fired() - evBase,
		MessagesSent:   net.Stats().Sent - msgBase,
		MessageBatches: net.Stats().Batches - batchBase,
		CompletedApps:  h.completed,
		SimSeconds:     eng.Now().Seconds(),
		CompletedHash:  h.completedHash,
		Truncated:      !h.load.drained(),
	}
	if g := h.slowest; g.app != "" {
		res.SlowestGrant = &SlowGrant{
			App: g.app, UnitID: g.unitID, Machine: h.top.MachineName(g.machine), Level: g.level.String(),
			DemandAtMS: float64(g.demandAt) / float64(sim.Millisecond),
			GrantAtMS:  float64(g.grantAt) / float64(sim.Millisecond),
		}
	}
	if res.Decisions > 0 {
		res.DecisionsPerSec = float64(res.Decisions) / wall
		res.AllocsPerDecision = float64(after.Mallocs-before.Mallocs) / float64(res.Decisions)
	}
	if h.gw != nil {
		// Before the workload's report: replay's reads res.Gateway.
		res.Units = h.completed * cfg.UnitsPerApp
		res.Gateway = h.gw.Snapshot()
		res.GatewayDecisions = h.gw.Decisions()
		if res.Gateway.Registered > 0 {
			res.AllocsPerAdmission = float64(after.Mallocs-before.Mallocs) / float64(res.Gateway.Registered)
			res.MessagesPerAdmission = float64(res.MessagesSent) / float64(res.Gateway.Registered)
		}
	}
	h.load.report(res)
	for _, p := range h.probes {
		p.report(res)
	}
	if h.decHash != 0 {
		res.DecisionStreamHash = fmt.Sprintf("%016x", h.decHash)
	}
	if h.checker != nil {
		res.Invariants = h.checker.Violations
		res.InvariantChecks = h.checker.Checks
	} else if s := h.primarySched(); s != nil {
		res.Invariants = s.CheckAllInvariants()
	}
	return res
}

// DefaultRoundWindow is the scheduling-round width of every lane that
// batches rounds.
const DefaultRoundWindow = 20 * sim.Millisecond
