package scale

// Replay mode: trace-driven diurnal workloads over the million-tenant
// gateway population, in the style of the public Alibaba cluster traces.
// A nonhomogeneous-Poisson session process (internal/trace.DiurnalRate)
// modulates arrival rate sinusoidally over a simulated day; each session is
// one tenant submitting a correlated burst of jobs; job widths and container
// hold times are heavy-tailed bounded-Pareto draws keyed off the job-ID hash
// so shapes stay independent of scheduling timing. Machine-failure storms —
// internal/faults campaigns scaled to the cluster with CampaignFor — land
// mid-replay through the harness's fault injector: NodeDown crashes agents,
// PartialWorkerFailure makes grants bounce as launch failures, SlowMachine
// stretches holds. Per-class admission and demand-to-grant percentiles, SLO
// attainment, shed and preemption rates, and per-phase (peak / trough /
// storm) utilization land in the `replay` section of BENCH_scale.json.

import (
	"math/rand"

	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultReplayConfig is the paper-scale replay: 5,000 machines, two
// 100-second simulated days of diurnal traffic (300 sessions/s day-average,
// ±60% swing) from a 1,000,000-tenant population, heavy-tailed job widths
// (bounded-Pareto, up to 96 containers) and hold times (2–60 s), two 5%
// failure storms — one at the first day's peak, one in the second day's
// trough — and one mid-run master failover.
func DefaultReplayConfig() Config {
	c := DefaultConfig()
	c.Apps = 0
	c.UnitsPerApp = 1
	c.ContainersPerUnit = 1
	c.FailoverEvery = 0 // machine failures come from storms, not background churn
	c.Replay = true
	c.GatewayUsers = 1_000_000
	c.GatewayHotTenants = 200
	c.GatewayHotSharePct = 20
	c.GatewayServicePct = 20
	c.ReplayDays = 2
	c.ReplayDayLength = 100 * sim.Second
	c.ReplaySessionsPerSec = 300
	c.ReplayAmplitudePct = 60
	c.ReplayBurstMean = 2.2
	c.ReplayBurstGap = 200 * sim.Millisecond
	c.ReplayWidthMax = 96
	c.ReplayWidthAlpha = 1.15
	c.ReplayHoldAlpha = 1.1
	c.ReplayHoldMin = 2 * sim.Second
	c.ReplayHoldMax = 60 * sim.Second
	c.ReplayStormAt = []sim.Time{30 * sim.Second, 170 * sim.Second}
	c.ReplayStormPct = 5
	c.ReplayStormWindow = 5 * sim.Second
	c.ReplayStormDowntime = 8 * sim.Second
	c.ReplaySlowFactor = 4
	c.ServiceSLOMS = 100
	c.BatchSLOMS = 5_000
	c.FullSyncEvery = 30 * sim.Second
	c.CheckInvariants = true
	c.MasterFailoverAt = []sim.Time{120 * sim.Second}
	return c
}

// SmokeReplayConfig is the CI-sized replay: 100 machines, two 40-second
// days at 25 sessions/s, still through two storms and a master failover.
func SmokeReplayConfig() Config {
	c := DefaultReplayConfig()
	c.Racks, c.MachinesPerRack = 10, 10
	c.GatewayUsers = 50_000
	c.GatewayHotTenants = 50
	c.ReplayDayLength = 40 * sim.Second
	c.ReplaySessionsPerSec = 25
	c.ReplayWidthMax = 24
	c.ReplayHoldMin = sim.Second
	c.ReplayHoldMax = 20 * sim.Second
	c.ReplayStormAt = []sim.Time{12 * sim.Second, 68 * sim.Second}
	c.MasterFailoverAt = []sim.Time{48 * sim.Second}
	c.Horizon = 4 * sim.Minute
	return c
}

// replaySampleEvery is the per-phase utilization sampling period.
const replaySampleEvery = 500 * sim.Millisecond

// Diurnal phases. Peak is the quarter-day around the sinusoid's maximum,
// trough the quarter around its minimum; storm windows override both.
const (
	rpPeak = iota
	rpTrough
	rpStorm
	rpNumPhases
)

type rpPhaseAcc struct {
	samples  int
	cpu, mem float64 // sums of planned/total ratios
}

// replayLoad is the trace-replay workload: the diurnal session generator,
// the storms it arms, and the per-phase account.
type replayLoad struct {
	wholeRun
	// rng drives the arrival process (session times, tenants, burst shapes);
	// frng drives the fault storms. Separate streams — and hash-derived job
	// shapes — keep the workload reproducible even if one consumer changes.
	rng  *rand.Rand
	frng *rand.Rand

	arr   trace.DiurnalRate
	burst trace.BurstSessions
	width trace.BoundedPareto
	holdD trace.BoundedPareto

	// end is the generator cutoff (start + days × day length); genDone is
	// set when the arrival process passes it; pendingBurst counts burst
	// submissions scheduled but not yet fired.
	end          sim.Time
	genDone      bool
	pendingBurst int
	submitted    int
	sessions     uint64
	subPeak      int
	subTrough    int

	// subAt records each submission's instant, indexed by the sequence
	// number embedded in the job ID, for per-class admission latency.
	subAt []sim.Time

	stormWindows [][2]sim.Time

	phase [rpNumPhases]rpPhaseAcc
}

func newReplayLoad(h *harness) *replayLoad {
	cfg := h.cfg
	h.classes = newClassLedger(cfg)
	rp := &replayLoad{
		wholeRun: wholeRun{h},
		rng:      rand.New(rand.NewSource(cfg.Seed + 3)),
		frng:     rand.New(rand.NewSource(cfg.Seed + 4)),
		arr: trace.DiurnalRate{
			BaseRatePerSec: cfg.ReplaySessionsPerSec,
			AmplitudePct:   cfg.ReplayAmplitudePct,
			Day:            cfg.ReplayDayLength,
		},
		burst: trace.BurstSessions{MeanJobs: cfg.ReplayBurstMean, MeanGap: cfg.ReplayBurstGap},
	}
	walpha := cfg.ReplayWidthAlpha
	if walpha <= 0 {
		walpha = 1.15
	}
	rp.width = trace.BoundedPareto{Alpha: walpha, Min: 1, Max: float64(max(cfg.ReplayWidthMax, 1))}
	halpha := cfg.ReplayHoldAlpha
	if halpha <= 0 {
		halpha = 1.1
	}
	hmin := cfg.ReplayHoldMin
	if hmin <= 0 {
		hmin = sim.Second
	}
	rp.holdD = trace.BoundedPareto{Alpha: halpha, Min: float64(hmin), Max: float64(max(cfg.ReplayHoldMax, hmin))}
	return rp
}

// frontDoor tracks burst sessions at the gateway: a gap of several mean
// intra-burst spacings separates sessions.
func (rp *replayLoad) frontDoor() *gateway.Config {
	gc := rp.h.gatewayConfig(rp.spawn)
	if gc.Limits.SessionGap == 0 && rp.h.cfg.ReplayBurstGap > 0 {
		gc.Limits.SessionGap = 5 * rp.h.cfg.ReplayBurstGap
	}
	return gc
}

// drained: the diurnal generator has passed its last day, every scheduled
// burst submission has fired, and the gateway drained.
func (rp *replayLoad) drained() bool {
	return rp.genDone && rp.pendingBurst == 0 && rp.h.gw.Drained()
}

func (rp *replayLoad) downtime() sim.Time {
	if d := rp.h.cfg.ReplayStormDowntime; d > 0 {
		return d
	}
	return 8 * sim.Second
}

// arm arms the storms and starts the diurnal session generator.
func (rp *replayLoad) arm() error {
	h, cfg := rp.h, rp.h.cfg
	start := h.eng.Now()
	rp.end = start + sim.Time(cfg.ReplayDays)*cfg.ReplayDayLength

	// Failure storms: every random draw happens now, on the dedicated fault
	// stream, so storm placement cannot perturb the arrival process (and
	// vice versa).
	for _, at := range cfg.ReplayStormAt {
		camp := faults.CampaignFor(h.top.Size(), cfg.ReplayStormPct, cfg.ReplaySlowFactor)
		camp.Start = at
		camp.Window = cfg.ReplayStormWindow
		camp.Downtime = rp.downtime()
		h.inj.ApplyCampaign(camp, rp.frng)
		rp.stormWindows = append(rp.stormWindows,
			[2]sim.Time{at, at + camp.Window + rp.downtime()})
	}

	h.eng.Every(replaySampleEvery, rp.sampleUtil)

	// Open-loop session generator: each firing submits one tenant's burst
	// (gaps drawn up front, jobs scheduled at absolute instants) and chains
	// the next arrival through the thinned diurnal process. Nothing here is
	// ever cancelled, so the timers go through PostFunc (no handle).
	var fire func()
	fire = func() {
		rp.sessions++
		tenant := pickTenant(rp.rng, &h.cfg)
		size := rp.burst.SampleSize(rp.rng)
		now := h.eng.Now()
		submit := func() { rp.submitOne(tenant) } // one closure per session
		at := now
		for k := 0; k < size; k++ {
			if k > 0 {
				at += rp.burst.SampleGap(rp.rng)
			}
			rp.pendingBurst++
			h.eng.PostFunc(at-now, submit)
		}
		next := rp.arr.NextArrival(rp.rng, now)
		if next >= rp.end {
			rp.genDone = true
			return
		}
		h.eng.PostFunc(next-now, fire)
	}
	first := rp.arr.NextArrival(rp.rng, start)
	if first >= rp.end {
		rp.genDone = true
		return nil
	}
	h.eng.PostFunc(first-start, fire)
	return nil
}

func (rp *replayLoad) submitOne(tenant int) {
	h := rp.h
	rp.pendingBurst--
	i := rp.submitted
	rp.submitted++
	now := h.eng.Now()
	rp.subAt = append(rp.subAt, now)
	switch rp.dayPhase(now) {
	case rpPeak:
		rp.subPeak++
	case rpTrough:
		rp.subTrough++
	}
	h.gw.Submit(gateway.Job{
		ID:     gwName("rp-", i, 7),
		Tenant: gwName("u-", tenant, 7),
		Class:  tenantClass(tenant, &h.cfg),
	})
}

// rpSeq parses the submission sequence number out of an "rp-0001234" job ID.
func rpSeq(id string) int {
	if len(id) < 4 || id[0] != 'r' || id[1] != 'p' || id[2] != '-' {
		return -1
	}
	n := 0
	for i := 3; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// hashU turns 21 hash bits into a quantile in [0, 1).
func hashU(bits uint64) float64 {
	return float64(bits&((1<<21)-1)) / float64(1<<21)
}

// spawn is the gateway's OnRegistered callback: it observes per-class
// admission latency and starts the job with hash-derived heavy-tailed width
// and hold time.
func (rp *replayLoad) spawn(j gateway.Job, row int32) {
	h := rp.h
	if seq := rpSeq(j.ID); seq >= 0 && seq < len(rp.subAt) {
		h.classes.admission[j.Class].Observe(float64(h.eng.Now()-rp.subAt[seq]) / float64(sim.Millisecond))
	}
	h.classes.jobs[j.Class]++
	mix := jobMix(j.ID)
	w := max(int(rp.width.Quantile(hashU(mix))), 1)
	h.startGatewayJob(j, row, w, sim.Time(rp.holdD.Quantile(hashU(mix>>21))))
}

// dayPhase classifies an instant against the diurnal cycle alone: the
// quarter-day around the sinusoid's peak, the quarter around its trough, or
// neither (-1, the shoulders).
func (rp *replayLoad) dayPhase(t sim.Time) int {
	day := rp.h.cfg.ReplayDayLength
	if day <= 0 {
		return -1
	}
	p := t % day
	switch {
	case p >= day/8 && p < 3*day/8:
		return rpPeak
	case p >= 5*day/8 && p < 7*day/8:
		return rpTrough
	}
	return -1
}

// phaseOf adds the storm override: instants inside a storm window (plus its
// downtime, while effects persist) count as storm regardless of day phase.
func (rp *replayLoad) phaseOf(t sim.Time) int {
	for _, w := range rp.stormWindows {
		if t >= w[0] && t < w[1] {
			return rpStorm
		}
	}
	if t >= rp.end {
		return -1
	}
	return rp.dayPhase(t)
}

func (rp *replayLoad) sampleUtil() {
	h := rp.h
	idx := rp.phaseOf(h.eng.Now())
	if idx < 0 {
		return
	}
	s := h.primarySched()
	if s == nil {
		return // interregnum: no authoritative ledger to sample
	}
	total := s.TotalCapacity()
	if total.CPUMilli() <= 0 || total.MemoryMB() <= 0 {
		return
	}
	planned := s.PlannedTotal()
	acc := &rp.phase[idx]
	acc.samples++
	acc.cpu += float64(planned.CPUMilli()) / float64(total.CPUMilli())
	acc.mem += float64(planned.MemoryMB()) / float64(total.MemoryMB())
}

// ReplayClassStats is one service class's replay measurements.
type ReplayClassStats struct {
	ClassStats
	Grants  uint64 `json:"grants"`
	Revokes uint64 `json:"revokes"`
	// PreemptionPct is revokes per hundred grants.
	PreemptionPct float64 `json:"preemption_pct"`
	// ShedPct is the class's gateway shed share of its submissions.
	ShedPct float64 `json:"shed_pct"`
}

// ReplayPhaseStats is mean cluster utilization over one diurnal phase.
type ReplayPhaseStats struct {
	Samples    int     `json:"samples"`
	CPUUtilPct float64 `json:"cpu_util_pct"`
	MemUtilPct float64 `json:"mem_util_pct"`
}

// ReplayStats is the `replay` section of BENCH_scale.json.
type ReplayStats struct {
	Days              int     `json:"days"`
	DayLengthSec      float64 `json:"day_length_sec"`
	Sessions          uint64  `json:"sessions"`
	Submissions       int     `json:"submissions"`
	SubmissionsPeak   int     `json:"submissions_peak"`
	SubmissionsTrough int     `json:"submissions_trough"`
	// Burst shape as the gateway's session tracker measured it.
	MeanBurstLen float64 `json:"mean_burst_len,omitempty"`
	MaxBurstLen  int     `json:"max_burst_len,omitempty"`

	// Storm accounting. MachinesKilled is every machine the run crashed: the
	// storms' NodeDown victims, plus FailoverEvery's if a config combines them.
	Storms            int    `json:"storms"`
	Injections        int    `json:"injections"`
	InjectionsSkipped int    `json:"injections_skipped,omitempty"`
	MachinesKilled    int    `json:"machines_killed"`
	MachinesBroken    int    `json:"machines_broken"`
	MachinesSlowed    int    `json:"machines_slowed"`
	LaunchFailures    uint64 `json:"launch_failures"`
	SlowHolds         uint64 `json:"slow_holds"`

	// ShedPct is the overall gateway shed rate in percent.
	ShedPct float64 `json:"shed_pct"`

	Peak   ReplayPhaseStats `json:"peak"`
	Trough ReplayPhaseStats `json:"trough"`
	Storm  ReplayPhaseStats `json:"storm"`

	Service ReplayClassStats `json:"service"`
	Batch   ReplayClassStats `json:"batch"`

	// DecisionHash pins the gateway's deterministic decision stream (must
	// be byte-identical across repeated runs).
	DecisionHash string `json:"decision_hash"`
}

func (rp *replayLoad) report(res *Result) {
	h, cfg := rp.h, rp.h.cfg
	gw := res.Gateway
	planned, skipped := h.inj.Planned()
	rs := &ReplayStats{
		Days:              cfg.ReplayDays,
		DayLengthSec:      cfg.ReplayDayLength.Seconds(),
		Sessions:          rp.sessions,
		Submissions:       rp.submitted,
		SubmissionsPeak:   rp.subPeak,
		SubmissionsTrough: rp.subTrough,
		MeanBurstLen:      gw.MeanSessionLen,
		MaxBurstLen:       gw.MaxSessionLen,
		Storms:            len(cfg.ReplayStormAt),
		Injections:        planned,
		InjectionsSkipped: skipped,
		MachinesKilled:    h.inj.Fired(faults.NodeDown),
		MachinesBroken:    h.inj.Fired(faults.PartialWorkerFailure),
		MachinesSlowed:    h.inj.Fired(faults.SlowMachine),
		LaunchFailures:    h.launchFails,
		SlowHolds:         h.slowHolds,
		ShedPct:           gw.ShedRate * 100,
		DecisionHash:      gw.DecisionHash,
		Service:           rp.classStats(gateway.ClassService, gw.Service),
		Batch:             rp.classStats(gateway.ClassBatch, gw.Batch),
	}
	for i, out := range []*ReplayPhaseStats{rpPeak: &rs.Peak, rpTrough: &rs.Trough, rpStorm: &rs.Storm} {
		acc := rp.phase[i]
		out.Samples = acc.samples
		if acc.samples > 0 {
			out.CPUUtilPct = 100 * acc.cpu / float64(acc.samples)
			out.MemUtilPct = 100 * acc.mem / float64(acc.samples)
		}
	}
	res.Replay = rs
}

func (rp *replayLoad) classStats(c gateway.Class, gcs gateway.ClassStats) ReplayClassStats {
	l := rp.h.classes
	cs := ReplayClassStats{ClassStats: l.stats(c), Grants: l.grants[c], Revokes: l.revokes[c]}
	if cs.Grants > 0 {
		cs.PreemptionPct = 100 * float64(cs.Revokes) / float64(cs.Grants)
	}
	if gcs.Submitted > 0 {
		shed := gcs.ShedRateLimit + gcs.ShedTenantQueue + gcs.ShedBacklog
		cs.ShedPct = 100 * float64(shed) / float64(gcs.Submitted)
	}
	return cs
}
