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
	"math/rand"
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

// gatewayLoad is the open-loop load generator: submissions at deterministic
// instants spread uniformly over ArrivalWindow, each from a tenant drawn
// either from the heavy-hitter set or uniformly from the full population.
// Tenant identity fixes the priority class. The run ends when every
// submission was issued and settled to completed-or-shed.
type gatewayLoad struct {
	wholeRun
	submitted int
}

// gatewayConfig is the front door every gateway-fed workload deploys; onReg
// starts the application master of a job the primary acknowledged.
func (h *harness) gatewayConfig(onReg func(gateway.Job, int32)) *gateway.Config {
	lim := gateway.DefaultLimits()
	if h.cfg.GatewayLimits != nil {
		lim = *h.cfg.GatewayLimits
	}
	return &gateway.Config{Limits: lim, OnRegistered: onReg, RecordDecisions: h.cfg.RecordGatewayDecisions}
}

// frontDoor: a registered job runs the same churn as the classic workload,
// at the configured width and hold time.
func (w *gatewayLoad) frontDoor() *gateway.Config {
	return w.h.gatewayConfig(func(j gateway.Job, row int32) {
		w.h.startGatewayJob(j, row, w.h.cfg.ContainersPerUnit, w.h.cfg.HoldTime)
	})
}

func (w *gatewayLoad) drained() bool {
	return w.submitted >= w.h.cfg.GatewaySubmissions && w.h.gw.Drained()
}

func (w *gatewayLoad) arm() error {
	h, cfg := w.h, &w.h.cfg
	start := h.eng.Now()
	var next func()
	next = func() {
		i := w.submitted
		if i >= cfg.GatewaySubmissions {
			return
		}
		idx := pickTenant(h.rng, cfg)
		h.gw.Submit(gateway.Job{
			ID:     gwName("gw-", i, 6),
			Tenant: gwName("u-", idx, 7),
			Class:  tenantClass(idx, cfg),
		})
		w.submitted++
		if w.submitted < cfg.GatewaySubmissions {
			at := start + sim.Time(int64(cfg.ArrivalWindow)*int64(w.submitted)/int64(cfg.GatewaySubmissions))
			h.eng.PostFunc(at-h.eng.Now(), next)
		}
	}
	h.eng.PostFunc(start-h.eng.Now(), next)
	return nil
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

// pickTenant draws a submitting tenant from the population's skew: a
// heavy-hitter set plus a uniform long tail.
func pickTenant(rng *rand.Rand, cfg *Config) int {
	if cfg.GatewayHotTenants > 0 && cfg.GatewayHotSharePct > 0 &&
		rng.Intn(100) < cfg.GatewayHotSharePct {
		return rng.Intn(cfg.GatewayHotTenants)
	}
	return rng.Intn(cfg.GatewayUsers)
}

// tenantClass is the service class a tenant's identity fixes.
func tenantClass(tenant int, cfg *Config) gateway.Class {
	if tenant%100 < cfg.GatewayServicePct {
		return gateway.ClassService
	}
	return gateway.ClassBatch
}

// classPriority is the scheduling priority of a class's jobs: service jobs
// schedule ahead of batch jobs inside the cluster too.
func classPriority(c gateway.Class) int {
	if c == gateway.ClassService {
		return 1
	}
	return 3
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

// startGatewayJob starts the application master of one job the gateway
// registered, its OnRegistered callback's work: UnitsPerApp units of width
// containers held for hold, priority from the class, size from the job-ID
// hash, first demand a registration round-trip later. From there the job
// requests with a locality mix, holds, returns, re-requests on revocation and
// unregisters when done (which completes it at the gateway, by its row, and
// frees its in-flight slot).
func (h *harness) startGatewayJob(j gateway.Job, row int32, width int, hold sim.Time) {
	sizeIdx := int((jobMix(j.ID) >> 8) % 3)
	unit := func(u int) resource.ScheduleUnit {
		return resource.ScheduleUnit{ID: u + 1, Priority: classPriority(j.Class), Size: unitSize(sizeIdx + u), MaxCount: width}
	}
	var app *scaleApp
	if n := h.cfg.UnitsPerApp; n == 1 {
		app = h.startUnitApp(j.ID, j.Class.QuotaGroup(), unit(0), width, hold)
	} else {
		units := make([]resource.ScheduleUnit, n)
		for u := range units {
			units[u] = unit(u)
		}
		app = h.startApp(j.ID, j.Class.QuotaGroup(), units, width, hold)
	}
	app.class, app.row = j.Class, row
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
	for u := 1; u <= len(app.am.Units()); u++ {
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
		app.am.Request(u, hints...)
	}
}
