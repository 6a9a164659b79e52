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
	"repro/internal/metrics"
	"repro/internal/resource"
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

// replayLaunchFailDelay is how long a job master takes to detect that a
// broken machine failed to launch its workers before it returns the grant
// and re-demands elsewhere.
const replayLaunchFailDelay = 150 * sim.Millisecond

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

// rpState is the replay-mode workload state.
type rpState struct {
	h *harness
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
	sessions     uint64
	subPeak      int
	subTrough    int

	// subAt records each submission's instant, indexed by the sequence
	// number embedded in the job ID, for per-class admission latency.
	subAt []sim.Time

	admission   [gateway.NumClasses]*metrics.Histogram
	d2g         [gateway.NumClasses]*metrics.Histogram
	d2gN, d2gOK [gateway.NumClasses]int
	jobs        [gateway.NumClasses]int
	grants      [gateway.NumClasses]uint64
	revokes     [gateway.NumClasses]uint64

	// Grants bounced off a broken machine as launch failures, and holds a
	// slow machine stretched by its factor (the injector has both tables).
	launchFails uint64
	slowHeld    uint64

	stormWindows [][2]sim.Time

	phase [rpNumPhases]rpPhaseAcc
}

func newRPState(h *harness) *rpState {
	cfg := h.cfg
	rp := &rpState{
		h:    h,
		rng:  rand.New(rand.NewSource(cfg.Seed + 3)),
		frng: rand.New(rand.NewSource(cfg.Seed + 4)),
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
	wmax := cfg.ReplayWidthMax
	if wmax < 1 {
		wmax = 1
	}
	rp.width = trace.BoundedPareto{Alpha: walpha, Min: 1, Max: float64(wmax)}
	halpha := cfg.ReplayHoldAlpha
	if halpha <= 0 {
		halpha = 1.1
	}
	hmin, hmax := cfg.ReplayHoldMin, cfg.ReplayHoldMax
	if hmin <= 0 {
		hmin = sim.Second
	}
	if hmax < hmin {
		hmax = hmin
	}
	rp.holdD = trace.BoundedPareto{Alpha: halpha, Min: float64(hmin), Max: float64(hmax)}
	for cl := gateway.Class(0); cl < gateway.NumClasses; cl++ {
		rp.admission[cl] = h.reg.Histogram("scale.rp_admission_ms." + cl.QuotaGroup())
		rp.d2g[cl] = h.reg.Histogram("scale.rp_d2g_ms." + cl.QuotaGroup())
	}
	return rp
}

func (rp *rpState) downtime() sim.Time {
	if d := rp.h.cfg.ReplayStormDowntime; d > 0 {
		return d
	}
	return 8 * sim.Second
}

// scheduleReplay arms the storms and starts the diurnal session generator.
func (h *harness) scheduleReplay() {
	rp := h.rp
	cfg := h.cfg
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
		tenant := rp.pickTenant()
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
		return
	}
	h.eng.PostFunc(first-start, fire)
}

// pickTenant mirrors the gateway generator's population skew on the
// replay-private stream: a heavy-hitter set plus a uniform long tail.
func (rp *rpState) pickTenant() int {
	cfg := rp.h.cfg
	if cfg.GatewayHotTenants > 0 && cfg.GatewayHotSharePct > 0 &&
		rp.rng.Intn(100) < cfg.GatewayHotSharePct {
		return rp.rng.Intn(cfg.GatewayHotTenants)
	}
	return rp.rng.Intn(cfg.GatewayUsers)
}

func (rp *rpState) submitOne(tenant int) {
	h := rp.h
	rp.pendingBurst--
	i := h.gwSubmitted
	h.gwSubmitted++
	now := h.eng.Now()
	rp.subAt = append(rp.subAt, now)
	switch rp.dayPhase(now) {
	case rpPeak:
		rp.subPeak++
	case rpTrough:
		rp.subTrough++
	}
	class := gateway.ClassBatch
	if tenant%100 < h.cfg.GatewayServicePct {
		class = gateway.ClassService
	}
	h.gw.Submit(gateway.Job{
		ID:     gwName("rp-", i, 7),
		Tenant: gwName("u-", tenant, 7),
		Class:  class,
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

// spawnReplayJob is the gateway's OnRegistered callback in replay mode: it
// observes per-class admission latency and starts the job's application
// master with hash-derived heavy-tailed width and hold time.
func (h *harness) spawnReplayJob(j gateway.Job) {
	rp := h.rp
	now := h.eng.Now()
	if seq := rpSeq(j.ID); seq >= 0 && seq < len(rp.subAt) {
		rp.admission[j.Class].Observe(float64(now-rp.subAt[seq]) / float64(sim.Millisecond))
	}
	rp.jobs[j.Class]++
	mix := jobMix(j.ID)
	w := int(rp.width.Quantile(hashU(mix)))
	if w < 1 {
		w = 1
	}
	hold := sim.Time(rp.holdD.Quantile(hashU(mix >> 21)))
	prio := 3
	if j.Class == gateway.ClassService {
		prio = 1
	}
	sizeIdx := int((mix >> 8) % 3)
	app := h.startUnitApp(j.ID, j.Class.QuotaGroup(), resource.ScheduleUnit{
		ID: 1, Priority: prio, Size: unitSize(sizeIdx), MaxCount: w,
	}, w, hold)
	app.class = j.Class
	h.eng.Post(sim.Millisecond, hashedDemand, app)
}

func (rp *rpState) observeD2G(c gateway.Class, ms float64) {
	rp.d2g[c].Observe(ms)
	rp.d2gN[c]++
	if ms <= rp.h.classSLOMS(c) {
		rp.d2gOK[c]++
	}
}

// grant is the replay branch of scaleApp.OnGrant: broken machines bounce
// the grant as a launch failure, slow machines stretch the hold, and
// ordinary grants hold-then-return like the gateway churn.
func (rp *rpState) grant(a *scaleApp, unitID int, machine int32, count int) {
	h := rp.h
	rp.grants[a.class] += uint64(count)
	if h.inj.Broken(machine) {
		// PartialWorkerFailure: the machine accepted the containers but its
		// corrupted disks refuse to launch workers. The job master notices
		// the failed launch, returns the grant, and re-demands elsewhere.
		rp.launchFails += uint64(count)
		h.postHold(replayLaunchFailDelay, launchFailed, a, unitID, machine, count)
		return
	}
	hold := a.hold
	if f := h.inj.Slowdown(machine); f > 1 {
		hold = sim.Time(float64(hold) * f)
		rp.slowHeld += uint64(count)
	}
	h.postHold(hold, holdReturn, a, unitID, machine, count)
}

// launchFailed is the timer body behind a grant bounced off a broken
// machine: return what is still held of it and restate the demand at
// cluster scope.
func launchFailed(x any) {
	a, unitID, machine, n := takeHold(x.(*holdRec))
	if n <= 0 {
		return
	}
	a.am.ReturnContainers(unitID, machine, n)
	if a.done {
		return
	}
	if a.pendingReq[unitID] == 0 {
		a.pendingReq[unitID] = a.h.eng.Now()
	}
	a.am.Request(unitID, resource.LocalityHint{Type: resource.LocalityCluster, Count: n})
}

// dayPhase classifies an instant against the diurnal cycle alone: the
// quarter-day around the sinusoid's peak, the quarter around its trough, or
// neither (-1, the shoulders).
func (rp *rpState) dayPhase(t sim.Time) int {
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
func (rp *rpState) phaseOf(t sim.Time) int {
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

func (rp *rpState) sampleUtil() {
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
	Jobs               int     `json:"jobs"`
	AdmissionP50MS     float64 `json:"admission_p50_ms"`
	AdmissionP99MS     float64 `json:"admission_p99_ms"`
	AdmissionMaxMS     float64 `json:"admission_max_ms"`
	DemandToGrantP50MS float64 `json:"demand_to_grant_p50_ms"`
	DemandToGrantP99MS float64 `json:"demand_to_grant_p99_ms"`
	DemandToGrantMaxMS float64 `json:"demand_to_grant_max_ms"`
	SLOMS              float64 `json:"slo_ms"`
	SLOAttainedPct     float64 `json:"slo_attained_pct"`
	Grants             uint64  `json:"grants"`
	Revokes            uint64  `json:"revokes"`
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

func (rp *rpState) snapshot(h *harness) *ReplayStats {
	cfg := h.cfg
	gw := h.gw.Snapshot()
	planned, skipped := h.inj.Planned()
	rs := &ReplayStats{
		Days:              cfg.ReplayDays,
		DayLengthSec:      cfg.ReplayDayLength.Seconds(),
		Sessions:          rp.sessions,
		Submissions:       h.gwSubmitted,
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
		LaunchFailures:    rp.launchFails,
		SlowHolds:         rp.slowHeld,
		ShedPct:           gw.ShedRate * 100,
		DecisionHash:      gw.DecisionHash,
	}
	for i := 0; i < rpNumPhases; i++ {
		acc := rp.phase[i]
		ps := ReplayPhaseStats{Samples: acc.samples}
		if acc.samples > 0 {
			ps.CPUUtilPct = 100 * acc.cpu / float64(acc.samples)
			ps.MemUtilPct = 100 * acc.mem / float64(acc.samples)
		}
		switch i {
		case rpPeak:
			rs.Peak = ps
		case rpTrough:
			rs.Trough = ps
		case rpStorm:
			rs.Storm = ps
		}
	}
	rs.Service = rp.classStats(h, gateway.ClassService, gw.Service)
	rs.Batch = rp.classStats(h, gateway.ClassBatch, gw.Batch)
	return rs
}

func (rp *rpState) classStats(h *harness, c gateway.Class, gcs gateway.ClassStats) ReplayClassStats {
	adm, d2g := rp.admission[c], rp.d2g[c]
	cs := ReplayClassStats{
		Jobs:               rp.jobs[c],
		AdmissionP50MS:     adm.Quantile(0.5),
		AdmissionP99MS:     adm.Quantile(0.99),
		AdmissionMaxMS:     adm.Max(),
		DemandToGrantP50MS: d2g.Quantile(0.5),
		DemandToGrantP99MS: d2g.Quantile(0.99),
		DemandToGrantMaxMS: d2g.Max(),
		SLOMS:              h.classSLOMS(c),
		Grants:             rp.grants[c],
		Revokes:            rp.revokes[c],
	}
	if rp.d2gN[c] > 0 {
		cs.SLOAttainedPct = 100 * float64(rp.d2gOK[c]) / float64(rp.d2gN[c])
	}
	if cs.Grants > 0 {
		cs.PreemptionPct = 100 * float64(cs.Revokes) / float64(cs.Grants)
	}
	if gcs.Submitted > 0 {
		shed := gcs.ShedRateLimit + gcs.ShedTenantQueue + gcs.ShedBacklog
		cs.ShedPct = 100 * float64(shed) / float64(gcs.Submitted)
	}
	return cs
}
