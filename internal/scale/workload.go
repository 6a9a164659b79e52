package scale

import (
	"cmp"
	"fmt"

	"repro/internal/appmaster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/sim"
)

// workload is where a run's jobs come from and what ends it. The harness
// calls through it and never asks which one it has.
type workload interface {
	// frontDoor is the submission gateway the jobs enter through; nil means
	// the workload starts application masters itself.
	frontDoor() *gateway.Config
	// arm schedules the arrivals on the booted cluster.
	arm() error
	// window is the measured part of the run: from > 0 makes everything
	// before it warmup, and every counter restarts there.
	window() (from, length sim.Time)
	// drained reports that every job has arrived and settled.
	drained() bool
	// report adds the workload's share of the result.
	report(res *Result)
}

// probe measures one thing about a run beside the workload. Embedding
// idleProbe leaves a probe only the calls it cares about.
type probe interface {
	// need states what the probe needs of the cluster before it is wired.
	need(cc *core.Config)
	// arm runs on the booted cluster, after the workload's.
	arm()
	// fault is the injector's begin/end hook.
	fault(f faults.Fault, open bool)
	// granted and revoked see every decision an application observes, and
	// run inside the measured window: they must not allocate.
	granted(machine int32, count int)
	revoked(count int)
	// report adds the probe's share of the result.
	report(res *Result)
}

type idleProbe struct{}

func (idleProbe) need(*core.Config)        {}
func (idleProbe) arm()                     {}
func (idleProbe) fault(faults.Fault, bool) {}
func (idleProbe) granted(int32, int)       {}
func (idleProbe) revoked(int)              {}

// pick chooses the run's workload and probes from the configuration — with
// validated, the only place that reads the fields that select them.
func (h *harness) pick() {
	cfg := h.cfg
	h.expire = holdReturn
	switch {
	case cfg.Dataplane:
		h.load = newDataplaneLoad(h)
	case cfg.Replay:
		h.load = newReplayLoad(h)
	case cfg.GatewayUsers > 0:
		h.load = &gatewayLoad{wholeRun: wholeRun{h}}
	case cfg.Churn:
		h.load, h.expire = &churnLoad{arrivals{wholeRun{h}}}, holdExpire
	default:
		h.load = &arrivals{wholeRun{h}}
	}
	if len(cfg.MasterFailoverAt) > 0 {
		h.probes = append(h.probes, newFailoverProbe(h))
	}
	if cfg.Chaos {
		h.probes = append(h.probes, newChaosProbe(h))
	}
	if cfg.Obs {
		h.probes = append(h.probes, newObsProbe(h))
	}
}

// application is what every job the harness runs has in common, whatever its
// workload makes of it: the observed-decision path (granted, revoked) and the
// finish path work on this part alone.
type application struct {
	h    *harness
	am   *appmaster.AM
	name string
	// class is the gateway service class the job was admitted under, and row
	// its row in the gateway (see finish).
	class gateway.Class
	row   int32
	done  bool
}

// demand asks for count more containers of a unit anywhere in the cluster —
// every demand after a job's first: the re-request after a revocation or a
// failed launch (paper §3.1 step 7: the JobMaster re-requests) and the churn
// cycle's re-demand.
func (j *application) demand(unitID, count int) {
	j.am.Request(unitID, resource.LocalityHint{Type: resource.LocalityCluster, Count: count})
}

// granted is the one path every grant an application observes takes:
// counters, the decision-stream hash, the probes' hooks, demand-to-grant and
// the grant behind its maximum.
func (h *harness) granted(j *application, unitID int, machine int32, count int) {
	h.grants += uint64(count)
	h.hashDecision(j.name, unitID, machine, count, false)
	for _, p := range h.probes {
		p.granted(machine, count)
	}
	l := h.classes
	if l != nil {
		l.grants[j.class] += uint64(count)
	}
	if wait, ok := j.am.GrantWait(); ok {
		now := h.eng.Now()
		if s := &h.slowest; wait > s.grantAt-s.demandAt {
			*s = slowGrant{app: j.name, unitID: unitID, machine: machine, level: j.am.GrantLevel(), demandAt: now - wait, grantAt: now}
		}
		ms := float64(wait) / float64(sim.Millisecond)
		h.latency.Observe(ms)
		if l != nil {
			l.observeD2G(j.class, ms)
		}
	}
}

// revoked is granted's counterpart for a revocation.
func (h *harness) revoked(j *application, unitID int, machine int32, count int) {
	h.revokes += uint64(count)
	h.hashDecision(j.name, unitID, machine, count, true)
	for _, p := range h.probes {
		p.revoked(count)
	}
	if l := h.classes; l != nil {
		l.revokes[j.class] += uint64(count)
	}
}

// hashDecision folds one grant/revoke the application masters observe
// into the running FNV-1a decision-stream hash, in delivery order (the
// simulator delivers deterministically): equal hashes witness
// byte-identical decision streams.
func (h *harness) hashDecision(name string, unitID int, machine int32, count int, revoke bool) {
	if h.decHash == 0 {
		return
	}
	x := fnvString(h.decHash, name)
	x = fnvInt(x, int64(unitID))
	x = fnvInt(x, int64(uint32(machine)))
	x = fnvInt(x, int64(count))
	if revoke {
		x = fnvInt(x, 1)
	} else {
		x = fnvInt(x, 0)
	}
	h.decHash = x
}

// appsSqueezeSlack is how far finished applications may outnumber a quarter
// of the open ones in h.apps before they are squeezed out.
const appsSqueezeSlack = 64

// finish ends an application whose last work came back: unregister, count
// it, complete it at the gateway (freeing its in-flight slot), and drop it
// from h.apps once the finished outnumber a quarter of the open. A finished
// application still listed pins its master's configuration, so the list
// stays near the open jobs, and a squeeze still walks at most five entries
// per job it drops. The squeeze keeps order, so the failover probe and the
// checker's AMs() walk the open applications in the same sequence as if
// nothing had been removed.
func (h *harness) finish(a *application) {
	a.done = true
	a.am.Unregister()
	h.completed++
	h.completedHash += fnvString(fnvOffset, a.name)
	if h.gw != nil {
		h.gw.JobCompleted(a.row)
	}
	h.appsDone++
	if h.appsDone <= (len(h.apps)-h.appsDone)/4+appsSqueezeSlack {
		return
	}
	open := h.apps[:0]
	for _, o := range h.apps {
		if !o.done {
			open = append(open, o)
		}
	}
	clear(h.apps[len(open):])
	h.apps, h.appsDone = open, 0
}

// scaleApp is a synthetic job: request, hold, return, re-request on
// revocation, unregister when every container completed one hold cycle. It is
// its own appmaster.Callbacks.
type scaleApp struct {
	application
	appmaster.NoCallbacks
	remaining int
	// width is the container count each unit demands; hold is how long
	// granted containers are held. Classic and gateway jobs take both from
	// the configuration, replay jobs draw them from the heavy-tailed
	// distributions.
	width int
	hold  sim.Time
	// unit1 is the unit definition of a job whose one unit is its own (every
	// replay job draws its width): the application master's configuration
	// slices it, so the definition is not a heap object either.
	unit1 [1]resource.ScheduleUnit
}

// startApp creates one synthetic job and starts its application master, which
// registers with FuxiMaster at once; the caller sends the first demand.
func (h *harness) startApp(name, group string, units []resource.ScheduleUnit, width int, hold sim.Time) *scaleApp {
	return h.start(&scaleApp{application: application{h: h, name: name}, width: width, hold: hold}, group, units)
}

// startUnitApp is startApp for a job with one unit that nothing else shares:
// the definition is stored in the scaleApp itself.
func (h *harness) startUnitApp(name, group string, unit resource.ScheduleUnit, width int, hold sim.Time) *scaleApp {
	app := &scaleApp{application: application{h: h, name: name}, width: width, hold: hold}
	app.unit1[0] = unit
	return h.start(app, group, app.unit1[:])
}

func (h *harness) start(app *scaleApp, group string, units []resource.ScheduleUnit) *scaleApp {
	app.remaining = len(units) * app.width
	h.apps = append(h.apps, &app.application)
	app.am = appmaster.New(appmaster.Config{
		App: app.name, QuotaGroup: group, Units: units,
		FullSyncInterval: cmp.Or(h.cfg.FullSyncEvery, 10*sim.Second),
	}, h.eng, h.net, h.top, app)
	return app
}

// launchFailDelay is how long a job master takes to detect that a
// broken machine failed to launch its workers before it returns the grant
// and re-demands elsewhere.
const launchFailDelay = 150 * sim.Millisecond

// OnGrant implements appmaster.Callbacks: hold the containers for the job's
// hold time, then let the run's expiry return them. What the injector
// did to the machine shows here, whichever workload runs: a broken machine
// bounces the grant as a launch failure, a slow one stretches the hold.
func (a *scaleApp) OnGrant(unitID int, machine int32, count int) {
	h := a.h
	h.granted(&a.application, unitID, machine, count)
	if h.inj.Broken(machine) {
		// PartialWorkerFailure: the machine accepted the containers but its
		// corrupted disks refuse to launch workers. The job master notices
		// the failed launch, returns the grant, and re-demands elsewhere.
		h.launchFails += uint64(count)
		h.postHold(launchFailDelay, launchFailed, a, unitID, machine, count)
		return
	}
	hold := a.hold
	if f := h.inj.Slowdown(machine); f > 1 {
		hold = sim.Time(float64(hold) * f)
		h.slowHolds += uint64(count)
	}
	h.postHold(hold, h.expire, a, unitID, machine, count)
}

// OnRevoke implements appmaster.Callbacks. Failover took the containers
// mid-hold: restate the demand so the job completes.
func (a *scaleApp) OnRevoke(unitID int, machine int32, count int) {
	a.h.revoked(&a.application, unitID, machine, count)
	a.demand(unitID, count)
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
		a.h.finish(&a.application)
	}
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
	if !a.done {
		a.demand(unitID, n)
	}
}

// classLedger is the per-class account of the workloads that report one:
// jobs admitted, admission and demand-to-grant latency against the class SLO,
// grants and revocations.
type classLedger struct {
	slo            [gateway.NumClasses]float64
	jobs           [gateway.NumClasses]int
	admission, d2g [gateway.NumClasses]obs.Dist
	d2gN, d2gOK    [gateway.NumClasses]int
	grants         [gateway.NumClasses]uint64
	revokes        [gateway.NumClasses]uint64
}

func newClassLedger(cfg Config) *classLedger {
	l := &classLedger{}
	l.slo[gateway.ClassService], l.slo[gateway.ClassBatch] = cfg.ServiceSLOMS, cfg.BatchSLOMS
	return l
}

func (l *classLedger) observeD2G(c gateway.Class, ms float64) {
	l.d2g[c].Observe(ms)
	l.d2gN[c]++
	if ms <= l.slo[c] {
		l.d2gOK[c]++
	}
}

// ClassStats is one priority class's view of a gateway-fed workload:
// admission and demand-to-grant latency percentiles (virtual ms) and the
// fraction of demand-to-grant observations inside the class SLO.
type ClassStats struct {
	Jobs               int     `json:"jobs"`
	AdmissionP50MS     float64 `json:"admission_p50_ms"`
	AdmissionP99MS     float64 `json:"admission_p99_ms"`
	AdmissionMaxMS     float64 `json:"admission_max_ms"`
	DemandToGrantP50MS float64 `json:"demand_to_grant_p50_ms"`
	DemandToGrantP99MS float64 `json:"demand_to_grant_p99_ms"`
	DemandToGrantMaxMS float64 `json:"demand_to_grant_max_ms"`
	SLOMS              float64 `json:"slo_ms"`
	SLOAttainedPct     float64 `json:"slo_attained_pct"`
}

func (l *classLedger) stats(c gateway.Class) ClassStats {
	adm, d2g := &l.admission[c], &l.d2g[c]
	cs := ClassStats{
		Jobs:               l.jobs[c],
		AdmissionP50MS:     adm.Quantile(0.5),
		AdmissionP99MS:     adm.Quantile(0.99),
		AdmissionMaxMS:     adm.Max(),
		DemandToGrantP50MS: d2g.Quantile(0.5),
		DemandToGrantP99MS: d2g.Quantile(0.99),
		DemandToGrantMaxMS: d2g.Max(),
		SLOMS:              l.slo[c],
	}
	if l.d2gN[c] > 0 {
		cs.SLOAttainedPct = 100 * float64(l.d2gOK[c]) / float64(l.d2gN[c])
	}
	return cs
}

// wholeRun is what most workloads share: jobs started directly, the whole
// horizon measured from boot, nothing of their own in the result. A workload
// embeds it and overrides what differs.
type wholeRun struct{ h *harness }

func (wholeRun) frontDoor() *gateway.Config        { return nil }
func (w wholeRun) window() (from, length sim.Time) { return 0, w.h.cfg.Horizon }
func (wholeRun) report(*Result)                    {}

// arrivals is the classic workload: Apps application masters arrive
// uniformly over ArrivalWindow, each completes when every container was held
// once, and the run ends with the last of them.
type arrivals struct{ wholeRun }

func (w *arrivals) arm() error {
	h, cfg := w.h, w.h.cfg
	for i := 0; i < cfg.Apps; i++ {
		at := h.eng.Now() + sim.Time(int64(cfg.ArrivalWindow)*int64(i)/int64(cfg.Apps))
		h.eng.At(at, func() { h.spawnApp(i) })
	}
	return nil
}

func (w *arrivals) drained() bool { return w.h.completed >= w.h.cfg.Apps }

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
			// At most a pinned hint and the cluster remainder: on the stack,
			// as Request copies the hints into its message.
			var buf [2]resource.LocalityHint
			hints := buf[:0]
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
			app.am.Request(u, hints...)
		}
	})
}
