package scale

// Steady-state churn mode: the benchmark section that measures the
// scheduler where its cost actually lives in production — the long-horizon
// release/re-demand cycle, with no arrivals, no completions and no
// failovers inside the measurement window. Every granted container is held
// for HoldTime, returned, and immediately re-demanded at cluster scope, so
// the cluster sits in the saturated regime where each scheduling round is:
// coalesced releases → one wide assignment sweep over the freed machines →
// merged demand placement → batched fan-out. Decision throughput and
// allocations per decision are measured strictly after ChurnWarmup, over a
// ChurnMeasure-long window, so registration and cold-cache effects are
// excluded — this is the section the tightened allocs/decision budget
// gates in CI.

import "repro/internal/sim"

// DefaultChurnConfig is the paper-scale steady-state churn run: 5,000
// machines, 100k schedule units cycling hold/return/re-demand forever,
// measured for a minute of virtual time after a warmup that covers arrival
// and two full hold cycles.
func DefaultChurnConfig() Config {
	c := DefaultConfig()
	c.Churn = true
	c.FailoverEvery = 0 // steady state: no machine failovers
	// High churn: containers cycle every 5s, so the measured minute covers
	// twelve full hold cycles of the whole cluster.
	c.HoldTime = 5 * sim.Second
	c.FullSyncEvery = 30 * sim.Second
	c.ArrivalWindow = 20 * sim.Second
	c.ChurnWarmup = 40 * sim.Second
	c.ChurnMeasure = 60 * sim.Second
	c.Horizon = c.ChurnWarmup + c.ChurnMeasure
	c.RoundWindow = DefaultRoundWindow
	return c
}

// SmokeChurnConfig is the CI-sized churn run: 100 machines, 2,000 units.
func SmokeChurnConfig() Config {
	c := DefaultChurnConfig()
	c.Racks, c.MachinesPerRack = 10, 10
	c.Apps, c.UnitsPerApp = 100, 20
	c.ArrivalWindow = 5 * sim.Second
	c.ChurnWarmup = 20 * sim.Second
	c.ChurnMeasure = 30 * sim.Second
	c.Horizon = c.ChurnWarmup + c.ChurnMeasure
	return c
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
	c.CheckInvariants = true
	return c
}

// churnLoad is the classic arrivals in their steady state: no job ever
// completes, every expiry re-demands (pick sets holdExpire as the run's
// expiry), and only what follows ChurnWarmup is measured.
type churnLoad struct{ arrivals }

func (w *churnLoad) window() (from, length sim.Time) {
	return w.h.cfg.ChurnWarmup, w.h.cfg.ChurnMeasure
}
func (*churnLoad) drained() bool { return false } // the horizon is the only exit

// report: a window that ends at the horizon by design was not cut short.
func (*churnLoad) report(res *Result) { res.Truncated = false }

// holdRec is one pooled hold-expiry record: every grant schedules one
// through the engine's closure-free Post path, so holding a container
// allocates no per-grant timer closure.
type holdRec struct {
	app     *scaleApp
	unit    int
	machine int32
	count   int
}

// postHold arms a closure-free timer that carries one grant to fn in a
// pooled record. The timer bodies are plain functions — they reach the
// harness through the record's application — so arming one binds nothing.
func (h *harness) postHold(d sim.Time, fn func(any), a *scaleApp, unit int, machine int32, count int) {
	rec := h.holds.New()
	rec.app, rec.unit, rec.machine, rec.count = a, unit, machine, count
	h.eng.Post(d, fn, rec)
}

// takeHold recycles a fired record and returns the grant it carried, the
// count clamped to what the application still holds on that machine.
func takeHold(rec *holdRec) (a *scaleApp, unit int, machine int32, n int) {
	a, unit, machine, n = rec.app, rec.unit, rec.machine, rec.count
	a.h.holds.Free(rec)
	if held := a.am.Held(unit, machine); held < n {
		n = held
	}
	return a, unit, machine, n
}

// holdExpire is the churn cycle's second half: return the held containers
// and restate the demand at cluster scope, keeping the cluster in its
// saturated steady state. The application master coalesces an instant's
// expiries: its returns and re-demands leave at the end of the instant in one
// DemandUpdate, and the master still applies the whole round's releases
// before its demand phase.
func holdExpire(x any) {
	app, unit, mc, n := takeHold(x.(*holdRec))
	if n <= 0 {
		return
	}
	app.am.ReturnContainers(unit, mc, n)
	app.demand(unit, n)
}
