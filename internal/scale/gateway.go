package scale

// Gateway mode: the paper-scale harness fronted by the multi-tenant
// submission gateway (internal/gateway). An open-loop load generator
// simulating a million-user tenant population — a uniform long tail plus a
// small heavy-hitter set — submits jobs through the gateway; every job the
// primary FuxiMaster acknowledges runs as a real application master through
// the usual churn (demand, grants, holds, returns, unregister), and the
// gateway's admit/shed decision stream, admission-latency percentiles, shed
// rates and per-class fairness land in the `gateway` section of
// BENCH_scale.json.

import (
	"hash/fnv"
	"strconv"

	"repro/internal/gateway"
	"repro/internal/resource"
	"repro/internal/sim"
)

// DefaultGatewayConfig is the paper-scale gateway run: 5,000 machines,
// 120k submissions from a 1,000,000-tenant population over 60 seconds
// (30% of traffic from 100 heavy hitters, so per-tenant rate limiting has
// something to bite), one mid-run master failover, and the cluster-wide
// invariant checker — admission conservation included — attached.
func DefaultGatewayConfig() Config {
	c := DefaultConfig()
	c.Apps = 0
	c.UnitsPerApp = 1
	c.ContainersPerUnit = 2
	c.HoldTime = 4 * sim.Second
	c.ArrivalWindow = 60 * sim.Second
	c.GatewayUsers = 1_000_000
	c.GatewaySubmissions = 120_000
	c.GatewayHotTenants = 100
	c.GatewayHotSharePct = 30
	c.GatewayServicePct = 20
	c.CheckInvariants = true
	// Most gateway jobs live a few seconds; a 10s safety-sync cadence made
	// the periodic full state exchange a per-job cost instead of a rare
	// repair path. 30s keeps the safety net (long-lived jobs still sync)
	// at production-sane overhead.
	c.FullSyncEvery = 30 * sim.Second
	return c.WithMasterFailovers(1)
}

// SmokeGatewayConfig is the CI-sized gateway run: 100 machines, 8k
// submissions from 50k tenants, still through one master failover.
func SmokeGatewayConfig() Config {
	c := DefaultGatewayConfig()
	c.Racks, c.MachinesPerRack = 10, 10
	c.GatewayUsers = 50_000
	c.GatewaySubmissions = 8_000
	c.ArrivalWindow = 20 * sim.Second
	c.Horizon = 3 * sim.Minute
	return c.WithMasterFailovers(1)
}

// workloadDone reports whether the run's workload finished: every app
// completed (classic mode), or every submission issued and settled to
// completed-or-shed (gateway mode).
func (h *harness) workloadDone() bool {
	if h.cfg.Churn {
		return false // steady state: the horizon is the only exit
	}
	if h.rp != nil {
		// Replay: the diurnal generator has passed its last day, every
		// scheduled burst submission has fired, and the gateway drained.
		return h.rp.genDone && h.rp.pendingBurst == 0 && h.gw.Drained()
	}
	if h.gw != nil {
		return h.gwSubmitted >= h.cfg.GatewaySubmissions && h.gw.Drained()
	}
	return h.completed >= h.cfg.Apps
}

// scheduleSubmissions drives the open-loop load generator: submissions at
// deterministic instants spread uniformly over ArrivalWindow, each from a
// tenant drawn either from the heavy-hitter set or uniformly from the full
// population. Tenant identity fixes the priority class.
func (h *harness) scheduleSubmissions() {
	cfg := h.cfg
	start := h.eng.Now()
	var next func()
	next = func() {
		i := h.gwSubmitted
		if i >= cfg.GatewaySubmissions {
			return
		}
		idx := h.pickTenant()
		class := gateway.ClassBatch
		if idx%100 < cfg.GatewayServicePct {
			class = gateway.ClassService
		}
		h.gw.Submit(gateway.Job{
			ID:     gwName("gw-", i, 6),
			Tenant: gwName("u-", idx, 7),
			Class:  class,
		})
		h.gwSubmitted++
		if h.gwSubmitted < cfg.GatewaySubmissions {
			at := start + sim.Time(int64(cfg.ArrivalWindow)*int64(h.gwSubmitted)/int64(cfg.GatewaySubmissions))
			h.eng.PostFunc(at-h.eng.Now(), next)
		}
	}
	h.eng.PostFunc(start-h.eng.Now(), next)
}

// gwName builds "<prefix><zero-padded n>" with one allocation (the open-loop
// generator mints two names per submission; fmt.Sprintf cost double and was
// visible in the per-admission allocation budget).
func gwName(prefix string, n, width int) string {
	var num [12]byte
	s := strconv.AppendInt(num[:0], int64(n), 10)
	var buf [24]byte
	b := append(buf[:0], prefix...)
	for i := len(s); i < width; i++ {
		b = append(b, '0')
	}
	b = append(b, s...)
	return string(b)
}

func (h *harness) pickTenant() int {
	cfg := h.cfg
	if cfg.GatewayHotTenants > 0 && cfg.GatewayHotSharePct > 0 &&
		h.rng.Intn(100) < cfg.GatewayHotSharePct {
		return h.rng.Intn(cfg.GatewayHotTenants)
	}
	return h.rng.Intn(cfg.GatewayUsers)
}

// jobMix hashes a job ID into a deterministic per-job value for shaping
// units and locality hints. A hash — rather than the harness rng — keeps
// each job's shape independent of registration timing, so a master
// failover shifting when jobs register cannot perturb the shared random
// stream the fault injector draws from.
func jobMix(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// gwUnits returns the shared single-unit definition slice for a (priority,
// size) combination — jobs never mutate their unit definitions, and both
// the AM and the master copy what they keep, so a handful of shared
// templates replaces one slice allocation per job. Multi-unit
// configurations fall back to per-job slices.
func (h *harness) gwUnits(prio, sizeIdx int) []resource.ScheduleUnit {
	if h.cfg.UnitsPerApp != 1 {
		units := make([]resource.ScheduleUnit, 0, h.cfg.UnitsPerApp)
		for u := 0; u < h.cfg.UnitsPerApp; u++ {
			units = append(units, resource.ScheduleUnit{
				ID: u + 1, Priority: prio, Size: unitSize(sizeIdx + u),
				MaxCount: h.cfg.ContainersPerUnit,
			})
		}
		return units
	}
	key := prio*3 + sizeIdx
	if h.gwUnitTmpl == nil {
		h.gwUnitTmpl = make(map[int][]resource.ScheduleUnit)
	}
	if t := h.gwUnitTmpl[key]; t != nil {
		return t
	}
	t := []resource.ScheduleUnit{{
		ID: 1, Priority: prio, Size: unitSize(sizeIdx),
		MaxCount: h.cfg.ContainersPerUnit,
	}}
	h.gwUnitTmpl[key] = t
	return t
}

// spawnGatewayJob starts the application master for one registered job —
// the gateway's OnRegistered callback. The job runs the same churn as the
// classic workload: request with a locality mix, hold, return, re-request
// on revocation, unregister when done (which completes the job at the
// gateway and frees its in-flight slot).
func (h *harness) spawnGatewayJob(j gateway.Job) {
	mix := jobMix(j.ID)
	// Service jobs schedule ahead of batch jobs inside the cluster too.
	prio := 3
	if j.Class == gateway.ClassService {
		prio = 1
	}
	sizeIdx := int((mix >> 8) % 3)
	app := h.startApp(j.ID, j.Class.QuotaGroup(), h.gwUnits(prio, sizeIdx),
		h.cfg.ContainersPerUnit, h.cfg.HoldTime)
	h.eng.Post(sim.Millisecond, hashedDemand, app)
}

// hashedDemand sends a gateway or replay job's first demand, a registration
// round-trip's worth of delay after its application master started: every
// unit asks for the job's width with a locality mix keyed off the job-ID
// hash (one in eight pins a machine, one in eight prefers a rack). It is the
// engine's closure-free timer body; the argument is the *scaleApp.
func hashedDemand(x any) {
	app := x.(*scaleApp)
	h := app.h
	mix := jobMix(app.name)
	machines := h.top.Machines()
	racks := h.top.Racks()
	for u := 1; u < len(app.pendingReq); u++ {
		hints := make([]resource.LocalityHint, 0, 2)
		rest := app.width
		pick := mix + uint64(u)*2654435761
		switch pick % 8 {
		case 0:
			hints = append(hints, resource.LocalityHint{
				Type: resource.LocalityMachine, Value: machines[pick>>16%uint64(len(machines))], Count: 1,
			})
			rest--
		case 1:
			hints = append(hints, resource.LocalityHint{
				Type: resource.LocalityRack, Value: racks[pick>>16%uint64(len(racks))], Count: 1,
			})
			rest--
		}
		if rest > 0 {
			hints = append(hints, resource.LocalityHint{Type: resource.LocalityCluster, Count: rest})
		}
		app.pendingReq[u] = h.eng.Now()
		app.am.Request(u, hints...)
	}
}
