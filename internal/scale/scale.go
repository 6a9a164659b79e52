// Package scale is the paper-scale stress/soak harness: it boots the full
// Fuxi control plane — FuxiMaster, one FuxiAgent per machine, and a churning
// population of application masters — at the 5,000-machine footprint of the
// paper's production cluster (§5) and measures what the toy-sized
// experiments cannot: scheduling-decision throughput, demand-to-grant
// latency in virtual time, and allocation pressure per decision. Lanes
// (lanes.go) is the table of scenarios the harness ships — each one a Config
// constructor pair, a pass/fail contract and its budget gates.
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
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/invariant"
	"repro/internal/lockservice"
	"repro/internal/master"
	"repro/internal/metrics"
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
	// MachineDown revocation wave.
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
	// newHarness rejects values above 1. The field is still declared only
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
	// GatewayLimits tunes the gateway (nil takes gateway.DefaultLimits).
	GatewayLimits *gateway.Limits `json:"gateway_limits,omitempty"`
	// RecordGatewayDecisions keeps the full admit/shed decision stream in
	// Result.GatewayDecisions (parity tests only — it is large).
	RecordGatewayDecisions bool `json:"-"`

	// Dataplane switches the workload to data-plane mode (see dataplane.go):
	// instead of synthetic hold/return churn, the jobs submitted through the
	// gateway are GraySort chains, Figure 6 DAG pipelines and long-running
	// streamline service residents, with locality demand resolved against
	// Pangu chunk placement and sampled kernel-level output verification.
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

	// Completed lists the completed application names, for the metamorphic
	// failover-transparency test (excluded from JSON: at paper scale it
	// would dominate the benchmark file).
	Completed []string `json:"-"`
}

// scaleApp drives one application master's churn: request, hold, return,
// re-request on revocation, unregister when every container completed one
// hold cycle. It is its own appmaster.Callbacks.
type scaleApp struct {
	appmaster.NoCallbacks
	h         *harness
	am        *appmaster.AM
	name      string
	remaining int
	done      bool
	// width is the container count each unit demands; hold is how long
	// granted containers are held. Classic and gateway jobs take both from
	// the configuration, replay jobs draw them from the heavy-tailed
	// distributions. class is the gateway service class the job was
	// admitted under.
	width int
	hold  sim.Time
	class gateway.Class
	// pendingReq records, per unit (dense, 0 = none pending), when the
	// oldest unanswered demand was sent, for the demand-to-grant latency
	// histogram. Single-unit jobs — every gateway and replay job — slice
	// pendingOne, so the table is not a heap object of its own.
	pendingReq []sim.Time
	pendingOne [2]sim.Time
	// reqCount accumulates one instant's churn re-demand per unit, so the
	// expiries of several machines' containers merge into one DemandUpdate.
	reqCount []int
	// unit1 is the unit definition of a job whose one unit is its own (every
	// replay job draws its width): the application master's configuration
	// slices it, so the definition is not a heap object either.
	unit1 [1]resource.ScheduleUnit
}

type harness struct {
	cfg    Config
	eng    *sim.Engine
	net    *transport.Net
	top    *topology.Topology
	agents []*agent.Agent
	// gw is the submission front door (gateway mode only); gwSubmitted
	// counts load-generator submissions issued so far; gwUnitTmpl caches
	// shared single-unit definition slices (see gwUnits).
	gw          *gateway.Gateway
	gwSubmitted int
	gwUnitTmpl  map[int][]resource.ScheduleUnit
	// inj injects every fault of the run; each Config fault field only
	// produces faults.Fault values for it.
	inj *faults.Injector
	// dp is the data-plane workload state (dataplane mode only).
	dp *dpState
	// rp is the trace-replay workload state (replay mode only).
	rp *rpState
	// cz is the chaos-mode state (chaos mode only).
	cz *czState
	// ob is the observability-mode state (obs mode only); ckpt is the
	// shared durable checkpoint store, kept for byte accounting.
	ob   *obsState
	ckpt *master.CheckpointStore
	// masters is the hot-standby pair (second entry nil without master
	// failover); whichever holds the lease is primary.
	masters []*master.Master
	// apps lists the applications in start order; appsDone counts the
	// finished ones still in it (see finish: they are squeezed out, order
	// kept, so the list — and everything reachable from it — stays
	// proportional to the jobs still open, not to the jobs ever served).
	apps     []*scaleApp
	appsDone int
	reg      *metrics.Registry
	rng      *rand.Rand

	latency   *metrics.Histogram
	grants    uint64
	revokes   uint64
	completed int
	names     []string

	// decHash is the running FNV-1a over the observed decision stream
	// (Config.RecordDecisionHash); 0 means disabled.
	decHash uint64

	// Hold-expiry pool (see churn.go): every grant borrows a pooled record
	// for its closure-free hold timer; reqPend defers one instant's churn
	// re-demands past its returns.
	holdFree []*holdRec
	reqPend  []*holdRec
	reqArmed bool

	// Master-failover bookkeeping. crashAt is the last crash instant;
	// pauseAt arms the scheduling-pause measurement (cleared by the first
	// grant arriving more than 1ms after the crash, which excludes the
	// dead master's in-flight deliveries).
	recovery   *metrics.Histogram
	schedPause *metrics.Histogram
	crashAt    sim.Time
	pauseAt    sim.Time
	lost       uint64
	reissued   uint64
	checker    *invariant.Checker
}

// primary returns the current primary master (nil during an interregnum).
func (h *harness) primary() *master.Master { return master.Primary(h.masters...) }

func (h *harness) primarySched() *master.Scheduler {
	if p := h.primary(); p != nil {
		return p.Scheduler()
	}
	return nil
}

// onFault is the injector's hook: a master crash starts the recovery and
// scheduling-pause clocks, a healed partition the chaos convergence probe.
func (h *harness) onFault(f faults.Fault, open bool) {
	switch {
	case f.Kind == faults.FuxiMasterFailure && open:
		h.crashAt = h.eng.Now()
		h.pauseAt = h.crashAt
	case f.Kind == faults.NetworkPartition && !open && h.cz != nil:
		h.cz.healed(f.Targets)
	}
}

// onRecovered measures one completed failover: recovery latency, grants the
// rebuilt ledger lost versus the application masters' views, and grants
// reissued by the post-recovery assignment pass.
func (h *harness) onRecovered(epoch, reissuedGrants int) {
	if h.crashAt != 0 {
		h.recovery.Observe(float64(h.eng.Now()-h.crashAt) / float64(sim.Millisecond))
	}
	h.reissued += uint64(reissuedGrants)
	s := h.primarySched()
	if s == nil {
		return
	}
	for _, a := range h.apps {
		if a.done {
			continue
		}
		held := a.am.HeldSnapshot()
		for unitID, machines := range held {
			granted := s.Granted(a.name, unitID)
			for m, n := range machines {
				if d := n - granted[m]; d > 0 {
					h.lost += uint64(d)
				}
			}
		}
	}
	if h.dp != nil {
		for _, j := range h.dp.jobs {
			if j.am == nil || j.done {
				continue
			}
			held := j.am.HeldSnapshot()
			for unitID, machines := range held {
				granted := s.Granted(j.id, unitID)
				for m, n := range machines {
					if d := n - granted[m]; d > 0 {
						h.lost += uint64(d)
					}
				}
			}
		}
	}
}

// Run executes one stress run and returns its measurements.
func Run(cfg Config) (*Result, error) {
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	return h.run(), nil
}

// gatewayMode reports whether jobs enter through the submission gateway.
func (c Config) gatewayMode() bool { return c.GatewayUsers > 0 || c.Dataplane || c.Replay }

// newHarness validates cfg, wires the cluster and arms the whole workload
// and fault schedule; nothing beyond the election has run yet.
func newHarness(cfg Config) (*harness, error) {
	gwMode := cfg.gatewayMode()
	if cfg.Racks <= 0 || cfg.MachinesPerRack <= 0 || cfg.UnitsPerApp <= 0 {
		return nil, fmt.Errorf("scale: non-positive cluster or workload dimension")
	}
	if cfg.Chaos && gwMode {
		return nil, fmt.Errorf("scale: chaos mode runs the classic or churn workload, not a gateway mode")
	}
	if cfg.Shards > 1 {
		return nil, fmt.Errorf("scale: Shards = %d, but the sharded parallel scheduler was removed (EXPERIMENTS.md); there is one serial scheduling path", cfg.Shards)
	}
	if cfg.Obs && cfg.RoundWindow <= 0 {
		return nil, fmt.Errorf("scale: obs mode samples per scheduling round and needs RoundWindow > 0")
	}
	if cfg.Replay {
		if cfg.Dataplane {
			return nil, fmt.Errorf("scale: replay and dataplane modes are mutually exclusive")
		}
		if cfg.ReplayDays <= 0 || cfg.ReplayDayLength <= 0 || cfg.ReplaySessionsPerSec <= 0 {
			return nil, fmt.Errorf("scale: replay mode needs positive days, day length, and session rate")
		}
		if cfg.GatewayUsers <= 0 {
			return nil, fmt.Errorf("scale: replay mode needs a tenant population")
		}
	}
	if cfg.Dataplane {
		// Data-plane jobs ride the gateway admission path; the submission
		// count workloadDone waits for is the job count.
		total := cfg.GraySortJobs + cfg.DAGJobs + cfg.ServiceJobs
		if total <= 0 {
			return nil, fmt.Errorf("scale: dataplane mode needs at least one job")
		}
		if cfg.ServiceJobs > 0 && (cfg.ServiceOps < 0 || cfg.ServiceOpEvery <= 0) {
			return nil, fmt.Errorf("scale: dataplane service jobs need a positive op period")
		}
		cfg.GatewaySubmissions = total
	}
	if gwMode && !cfg.Replay && cfg.GatewaySubmissions <= 0 {
		// Replay is open-loop: the submission count follows from the arrival
		// process rather than a preset target.
		return nil, fmt.Errorf("scale: gateway mode needs a positive submission count")
	}
	if !gwMode && cfg.Apps <= 0 {
		return nil, fmt.Errorf("scale: non-positive cluster or workload dimension")
	}
	top, err := topology.Build(topology.Spec{
		Racks: cfg.Racks, MachinesPerRack: cfg.MachinesPerRack,
		MachineCapacity: topology.PaperTestbedMachine(),
	})
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(cfg.Seed)
	// Fixed latency, no jitter: same-instant messages then deliver in send
	// order, which the incremental protocol's happy path assumes (an app's
	// RegisterApp must precede its first DemandUpdate; reordering is legal
	// but falls back to the slow full-sync repair path).
	net := transport.NewNet(eng)
	lock := lockservice.New(eng)
	ckpt := master.NewCheckpointStore()
	reg := metrics.NewRegistry()

	mcfg := master.DefaultConfig("fm-scale-1")
	mcfg.BatchWindow = cfg.RoundWindow
	if gwMode {
		// Gateway priority classes map onto scheduler quota groups (zero
		// minimum: usage accounting, no guarantee).
		mcfg.Sched.Groups = map[string]resource.Vector{}
		for cl := gateway.Class(0); cl < gateway.NumClasses; cl++ {
			mcfg.Sched.Groups[cl.QuotaGroup()] = resource.Vector{}
		}
	}
	h := &harness{
		cfg: cfg, eng: eng, net: net, top: top, reg: reg,
		inj:        faults.NewInjector(eng, net, top.Size()),
		rng:        rand.New(rand.NewSource(cfg.Seed + 1)),
		latency:    reg.Histogram("scale.demand_to_grant_ms"),
		recovery:   reg.Histogram("scale.master_recovery_ms"),
		schedPause: reg.Histogram("scale.sched_pause_ms"),
	}
	h.ckpt = ckpt
	h.inj.Hook = h.onFault
	// Each master reaches the lock service unless a LockPartition fault cut it
	// off while its data-plane links stay up.
	mcfg.LockReachable = func() bool { return h.inj.LockReachable(0) }
	if cfg.RecordDecisionHash {
		h.decHash = fnvOffset
	}
	if cfg.Obs {
		h.ob = newObsState(h)
		mcfg.Obs = h.ob.store
		mcfg.ObsSampler = h.ob.sample
		// Track what full-snapshot-per-write would have cost, so the obs
		// section reports the delta log's measured saving.
		ckpt.TrackFullCost = true
	}
	if cfg.Dataplane {
		h.dp = newDPState(h)
	}
	if cfg.Replay {
		h.rp = newRPState(h)
	}
	if cfg.Chaos {
		h.cz = newCZState(h)
	}
	if len(cfg.MasterFailoverAt) > 0 {
		mcfg.OnRecovered = h.onRecovered
	}
	if gwMode {
		// The gateway boots before the masters so the epoch-1 promotion
		// already finds its endpoint registered.
		lim := gateway.DefaultLimits()
		if cfg.GatewayLimits != nil {
			lim = *cfg.GatewayLimits
		}
		if cfg.Replay && lim.SessionGap == 0 && cfg.ReplayBurstGap > 0 {
			// Track burst sessions at the gateway: a gap of several mean
			// intra-burst spacings separates sessions.
			lim.SessionGap = 5 * cfg.ReplayBurstGap
		}
		onReg := h.spawnGatewayJob
		if cfg.Dataplane {
			onReg = h.spawnDataplaneJob
		} else if cfg.Replay {
			onReg = h.spawnReplayJob
		}
		h.gw = gateway.New(gateway.Config{
			Limits:          lim,
			OnRegistered:    onReg,
			RecordDecisions: cfg.RecordGatewayDecisions,
		}, eng, net)
	}
	h.masters = append(h.masters, master.NewMaster(mcfg, eng, net, lock, top, ckpt, reg))
	needStandby := len(cfg.MasterFailoverAt) > 0 ||
		(cfg.Chaos && cfg.ChaosLockPartitionAt > 0 && cfg.ChaosLockPartitionFor > 0)
	if needStandby {
		m2 := mcfg
		m2.ProcessName = "fm-scale-2"
		m2.LockReachable = func() bool { return h.inj.LockReachable(1) }
		h.masters = append(h.masters, master.NewMaster(m2, eng, net, lock, top, ckpt, reg))
	}
	h.inj.Masters = h.masters
	// The crashed process restarts as the new standby once its successor's
	// recovery window has passed.
	restartAfter := mcfg.LockTTL + mcfg.RecoveryWindow + sim.Second
	for _, at := range cfg.MasterFailoverAt {
		h.inj.Apply(faults.Schedule{{Kind: faults.FuxiMasterFailure, At: at, For: restartAfter}})
	}
	eng.Run(10 * sim.Millisecond) // let the election settle

	acfg := agent.DefaultConfig()
	for _, m := range top.Machines() {
		h.agents = append(h.agents, agent.New(acfg, eng, net, top.Machine(m)))
	}
	h.inj.Agents = h.agents

	if cfg.CheckInvariants {
		h.checker = &invariant.Checker{
			Top:   top,
			Sched: h.primarySched,
			Agents: func() []*agent.Agent {
				return h.agents
			},
			AMs: func() []*appmaster.AM {
				ams := make([]*appmaster.AM, 0, len(h.apps))
				for _, a := range h.apps {
					if !a.done {
						ams = append(ams, a.am)
					}
				}
				if h.dp != nil {
					for _, j := range h.dp.jobs {
						if j.am != nil && !j.done {
							ams = append(ams, j.am)
						}
					}
				}
				return ams
			},
			Ckpt:    ckpt,
			Gateway: h.gw,
		}
		// Conservation invariants after every virtual second of scheduling
		// rounds (plus admission conservation in gateway mode); ledger
		// agreement is checked at the settled end of the run.
		eng.Every(sim.Second, func() {
			h.checker.CheckScheduler()
			if h.gw != nil {
				h.checker.CheckAdmission(false)
			}
		})
	}

	if cfg.Dataplane {
		if err := h.scheduleDataplane(); err != nil {
			return nil, err
		}
	} else if cfg.Replay {
		h.scheduleReplay()
	} else if gwMode {
		h.scheduleSubmissions()
	} else {
		// Schedule app arrivals uniformly across the window.
		for i := 0; i < cfg.Apps; i++ {
			at := eng.Now() + sim.Time(int64(cfg.ArrivalWindow)*int64(i)/int64(cfg.Apps))
			idx := i
			eng.At(at, func() { h.spawnApp(idx) })
		}
	}
	if cfg.Chaos {
		h.scheduleChaos()
	}
	if h.ob != nil {
		h.ob.schedule()
	}

	// Failover churn: crash a random machine (drawn at fire time, from the
	// workload stream), restart after the downtime — long enough for the
	// heartbeat timeout to declare it dead and revoke its grants.
	if cfg.FailoverEvery > 0 {
		eng.Every(cfg.FailoverEvery, func() {
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
	cfg, eng, net, top := h.cfg, h.eng, h.net, h.top
	gwMode := cfg.gatewayMode()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	slice := 500 * sim.Millisecond
	evBase, msgBase, batchBase := uint64(0), uint64(0), uint64(0)
	if cfg.Churn {
		// Warmup: arrivals plus enough hold cycles to reach steady state.
		// Everything measured — decisions, allocations, messages, events,
		// latency — restarts at the warmup boundary, so the section reports
		// pure steady-state cost.
		for eng.Now() < cfg.ChurnWarmup {
			eng.Run(eng.Now() + slice)
		}
		h.grants, h.revokes = 0, 0
		h.latency.Reset()
		evBase = eng.Fired()
		s := net.Stats()
		msgBase, batchBase = s.Sent, s.Batches
		runtime.ReadMemStats(&before)
		start = time.Now()
	}
	for eng.Now() < cfg.Horizon && !h.workloadDone() {
		eng.Run(eng.Now() + slice)
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	if h.checker != nil && h.workloadDone() {
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
		if gwMode {
			saved = int(h.gw.Snapshot().Registered)
		}
		blkBudget := 2 * h.inj.Fired(faults.NodeDown) * (1 + len(cfg.MasterFailoverAt))
		writeBudget := saved + h.completed + 1 + len(cfg.MasterFailoverAt) + blkBudget
		h.checker.CheckCheckpointWrites(writeBudget)
		// Byte budget: each delta record is bounded by one app config (a
		// small header plus UnitsPerApp unit records), and compaction adds
		// one full anchor — at most saved+2 app records — every CompactEvery
		// writes. A snapshot-per-write regression re-appears as O(apps) bytes
		// per record and blows this line immediately.
		perRec := int64(128 + 96*cfg.UnitsPerApp)
		anchors := int64(writeBudget/h.ckpt.CompactionCadence() + 1)
		anchorCap := int64(saved+2) * perRec
		h.checker.CheckCheckpointBytes(int64(writeBudget)*perRec + anchors*anchorCap)
	}

	res := &Result{
		Config:         cfg,
		Machines:       top.Size(),
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
	}
	if res.Decisions > 0 {
		res.DecisionsPerSec = float64(res.Decisions) / wall
		res.AllocsPerDecision = float64(after.Mallocs-before.Mallocs) / float64(res.Decisions)
	}
	res.Completed = h.names
	res.Truncated = !h.workloadDone() && !cfg.Churn
	if gwMode {
		res.Units = h.completed * cfg.UnitsPerApp
		res.Gateway = h.gw.Snapshot()
		res.GatewayDecisions = h.gw.Decisions()
		if res.Gateway.Registered > 0 {
			res.AllocsPerAdmission = float64(after.Mallocs-before.Mallocs) / float64(res.Gateway.Registered)
			res.MessagesPerAdmission = float64(res.MessagesSent) / float64(res.Gateway.Registered)
		}
	}
	if h.dp != nil {
		res.Units = h.dp.units
		res.Dataplane = h.dp.snapshot(h)
	}
	if h.rp != nil {
		res.Replay = h.rp.snapshot(h)
	}
	if h.cz != nil {
		res.Chaos = h.cz.snapshot(h)
	}
	if h.ob != nil {
		res.Obs = h.ob.snapshot(h)
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
	if len(cfg.MasterFailoverAt) > 0 {
		res.MasterFailovers = h.inj.Fired(faults.FuxiMasterFailure)
		res.RecoveryMeanMS = h.recovery.Mean()
		res.RecoveryP50MS = h.recovery.Quantile(0.5)
		res.RecoveryP99MS = h.recovery.Quantile(0.99)
		res.RecoveryMaxMS = h.recovery.Max()
		res.SchedPauseP50MS = h.schedPause.Quantile(0.5)
		res.SchedPauseP99MS = h.schedPause.Quantile(0.99)
		res.SchedPauseMaxMS = h.schedPause.Max()
		res.GrantsLost = h.lost
		res.GrantsReissued = h.reissued
		res.CheckpointWrites = h.ckpt.Writes
		res.CheckpointBytes = h.ckpt.Bytes()
		if saved := cfg.Apps; saved > 0 {
			res.CheckpointBytesPerJob = float64(h.ckpt.Bytes()) / float64(saved)
		}
	}
	return res
}

// DefaultRoundWindow is the scheduling-round width of every lane that
// batches rounds.
const DefaultRoundWindow = 20 * sim.Millisecond

// unitSize varies container shapes across units so the multi-dimensional
// matcher sees heterogeneous requests.
func unitSize(i int) resource.Vector {
	switch i % 3 {
	case 0:
		return resource.New(500, 2048)
	case 1:
		return resource.New(1000, 4096)
	default:
		return resource.New(250, 1024)
	}
}

// startApp creates one application and starts its application master (which
// registers with FuxiMaster at once); the caller sends the first demand.
func (h *harness) startApp(name, group string, units []resource.ScheduleUnit, width int, hold sim.Time) *scaleApp {
	return h.start(&scaleApp{h: h, name: name, width: width, hold: hold}, group, units)
}

// startUnitApp is startApp for a job with one unit that nothing else shares:
// the definition is stored in the scaleApp itself.
func (h *harness) startUnitApp(name, group string, unit resource.ScheduleUnit, width int, hold sim.Time) *scaleApp {
	app := &scaleApp{h: h, name: name, width: width, hold: hold}
	app.unit1[0] = unit
	return h.start(app, group, app.unit1[:])
}

func (h *harness) start(app *scaleApp, group string, units []resource.ScheduleUnit) *scaleApp {
	app.remaining = len(units) * app.width
	if n := len(units) + 1; n <= len(app.pendingOne) {
		app.pendingReq = app.pendingOne[:n]
	} else {
		app.pendingReq = make([]sim.Time, n)
	}
	h.apps = append(h.apps, app)
	fullSync := h.cfg.FullSyncEvery
	if fullSync == 0 {
		fullSync = 10 * sim.Second
	}
	app.am = appmaster.New(appmaster.Config{
		App: app.name, QuotaGroup: group, Units: units, FullSyncInterval: fullSync,
	}, h.eng, h.net, h.top, app)
	return app
}

// appsSqueezeSlack is how far finished applications may outnumber open ones
// in h.apps before they are squeezed out.
const appsSqueezeSlack = 64

// finish ends an application whose last container came back: unregister,
// count it, complete it at the gateway (freeing its in-flight slot), and
// drop it from h.apps once the finished outnumber the open. The squeeze
// keeps order, so onRecovered and the checker's AMs() walk the open
// applications in the same sequence as if nothing had been removed.
func (h *harness) finish(a *scaleApp) {
	a.done = true
	a.am.Unregister()
	h.completed++
	h.names = append(h.names, a.name)
	if h.gw != nil {
		h.gw.JobCompleted(a.name)
	}
	h.appsDone++
	if h.appsDone <= len(h.apps)-h.appsDone+appsSqueezeSlack {
		return
	}
	open := h.apps[:0]
	for _, o := range h.apps {
		if !o.done {
			open = append(open, o)
		}
	}
	for i := len(open); i < len(h.apps); i++ {
		h.apps[i] = nil
	}
	h.apps, h.appsDone = open, 0
}

func (h *harness) spawnApp(idx int) {
	cfg := h.cfg
	name := fmt.Sprintf("scale-app-%04d", idx)
	units := make([]resource.ScheduleUnit, 0, cfg.UnitsPerApp)
	for u := 0; u < cfg.UnitsPerApp; u++ {
		units = append(units, resource.ScheduleUnit{
			ID:       u + 1,
			Priority: 1 + (idx+u)%4,
			Size:     unitSize(idx + u),
			MaxCount: cfg.ContainersPerUnit,
		})
	}
	app := h.startApp(name, "", units, cfg.ContainersPerUnit, cfg.HoldTime)
	// Demand with a locality mix: some units pin a machine, some prefer a
	// rack, the rest are cluster-wide — exercising all three tree levels.
	// The demand follows registration after a registration round-trip's
	// worth of delay, mirroring how the example application masters behave.
	machines := h.top.Machines()
	racks := h.top.Racks()
	h.eng.After(sim.Millisecond, func() {
		for u := 1; u <= cfg.UnitsPerApp; u++ {
			var hints []resource.LocalityHint
			rest := cfg.ContainersPerUnit
			switch u % 10 {
			case 0:
				hints = append(hints, resource.LocalityHint{
					Type: resource.LocalityMachine, Value: machines[h.rng.Intn(len(machines))], Count: 1,
				})
				rest--
			case 1:
				hints = append(hints, resource.LocalityHint{
					Type: resource.LocalityRack, Value: racks[h.rng.Intn(len(racks))], Count: 1,
				})
				rest--
			}
			if rest > 0 {
				hints = append(hints, resource.LocalityHint{Type: resource.LocalityCluster, Count: rest})
			}
			app.pendingReq[u] = h.eng.Now()
			app.am.Request(u, hints...)
		}
	})
}

// hashDecision folds one grant/revoke the application masters observe
// into the running FNV-1a decision-stream hash, in delivery order (the
// simulator delivers deterministically): equal hashes witness
// byte-identical decision streams. Constants are shared with the
// observability checksum (obs.go).
func (h *harness) hashDecision(name string, unitID int, machine int32, count int, revoke bool) {
	if h.decHash == 0 {
		return
	}
	x := h.decHash
	for i := 0; i < len(name); i++ {
		x = (x ^ uint64(name[i])) * fnvPrime
	}
	fold := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			x = (x ^ (v >> s & 0xff)) * fnvPrime
		}
	}
	fold(uint64(unitID))
	fold(uint64(uint32(machine)))
	fold(uint64(count))
	if revoke {
		fold(1)
	} else {
		fold(0)
	}
	h.decHash = x
}

// OnGrant implements appmaster.Callbacks.
func (a *scaleApp) OnGrant(unitID int, machine int32, count int) {
	h := a.h
	h.grants += uint64(count)
	h.hashDecision(a.name, unitID, machine, count, false)
	if h.cz != nil {
		h.cz.noteGrant(machine, count)
	}
	if h.pauseAt != 0 && h.eng.Now()-h.pauseAt > sim.Millisecond {
		// First grant from the promoted successor (the dead master's
		// in-flight deliveries all land within one message latency).
		h.schedPause.Observe(float64(h.eng.Now()-h.pauseAt) / float64(sim.Millisecond))
		h.pauseAt = 0
	}
	if at := a.pendingReq[unitID]; at != 0 {
		ms := float64(h.eng.Now()-at) / float64(sim.Millisecond)
		h.latency.Observe(ms)
		if h.rp != nil {
			h.rp.observeD2G(a.class, ms)
		}
		a.pendingReq[unitID] = 0
	}
	if h.rp != nil {
		h.rp.grant(a, unitID, machine, count)
		return
	}
	if h.cfg.Churn {
		// Steady-state cycle: hold, then return-and-re-demand forever.
		h.postHold(a.hold, holdExpire, a, unitID, machine, count)
		return
	}
	// Hold the containers, then return them.
	h.postHold(a.hold, holdReturn, a, unitID, machine, count)
}

// holdReturn is the hold timer of every workload but churn: return what is
// still held of the grant — revoked containers skip the return, they
// re-entered via OnRevoke's re-request — and finish the job with its last
// container.
func holdReturn(x any) {
	a, unitID, machine, n := takeHold(x.(*holdRec))
	if n <= 0 {
		return
	}
	a.am.ReturnContainers(unitID, machine, n)
	a.remaining -= n
	if a.remaining <= 0 && !a.done {
		a.h.finish(a)
	}
}

// OnRevoke implements appmaster.Callbacks.
func (a *scaleApp) OnRevoke(unitID int, machine int32, count int) {
	h := a.h
	h.revokes += uint64(count)
	h.hashDecision(a.name, unitID, machine, count, true)
	if h.cz != nil {
		h.cz.noteRevoke(count)
	}
	if h.rp != nil {
		h.rp.revokes[a.class] += uint64(count)
	}
	// Failover took the containers mid-hold: restate the demand so the
	// churn completes (paper §3.1 step 7 — the JobMaster re-requests).
	if a.pendingReq[unitID] == 0 {
		a.pendingReq[unitID] = h.eng.Now()
	}
	a.am.Request(unitID, resource.LocalityHint{Type: resource.LocalityCluster, Count: count})
}
