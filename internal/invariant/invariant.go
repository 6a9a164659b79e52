// Package invariant is the cluster-wide conservation checker: an attachable
// verifier any simulation run can enable to assert, after every scheduling
// round or on demand, that the Fuxi control plane never loses or double-
// counts a resource. The paper's failover story (§4.1–§4.2) promises that a
// promoted FuxiMaster rebuilds soft state from live FuxiAgents and
// application masters until it equals the pre-crash truth; this package is
// the machinery that makes that claim falsifiable instead of assumed — the
// end-to-end consistency discipline large operational systems demand.
//
// Two classes of check:
//
//   - Scheduler checks hold at any instant on the live primary: per-machine
//     free + granted == capacity, non-negative physical free, per-unit held
//     sums, quota-group usage ledgers, the rack/cluster aggregate headroom
//     caches and the planned/up-capacity running totals. The contract is a
//     dirty set: the scheduler marks every unit, machine and group its
//     mutations touch, a periodic CheckScheduler audits the marked ones and
//     clears the marks (cost: what changed, not what exists), and a full
//     audit over everything runs on a new scheduler's first check, on every
//     sixteenth, and at settled points (CheckAll(true)). A violation noticed
//     by a partial audit is always reported from a full one.
//
//   - Ledger checks compare three independently-maintained views of the
//     same grants — the master's scheduler ledger, each FuxiAgent's
//     capacity table, and each application master's container ledger. They
//     are only meaningful at settled points (no control messages in
//     flight), such as the end of a run or a deliberate quiescent barrier.
//
// When a submission gateway fronts the cluster, the checker also enforces
// admission conservation: every job the gateway admitted is registered
// exactly once or deterministically shed — never lost in a master failover
// and never duplicated by the admit replay (see CheckAdmission).
package invariant

import (
	"fmt"
	"sort"

	"repro/internal/agent"
	"repro/internal/appmaster"
	"repro/internal/dense"
	"repro/internal/gateway"
	"repro/internal/master"
	"repro/internal/topology"
)

// Checker verifies cluster-wide invariants over a wired simulation. All
// component accessors are functions so the checker tracks live topology —
// masters fail over, agents crash, application masters unregister.
type Checker struct {
	// Top is the cluster topology (machine capacities).
	Top *topology.Topology
	// Sched returns the live primary's scheduler, or nil during an
	// interregnum (checks are skipped, not failed, while no master leads).
	Sched func() *master.Scheduler
	// Agents returns every FuxiAgent; down agents are skipped in ledger
	// comparisons (a dead machine's table was lost with the machine).
	Agents func() []*agent.Agent
	// AMs returns the live application masters; stopped ones are skipped.
	AMs func() []*appmaster.AM
	// Ckpt, when set, enables the checkpoint write-budget check.
	Ckpt *master.CheckpointStore
	// Gateway, when set, enables the admission-conservation check over the
	// submission front door.
	Gateway *gateway.Gateway

	// Checks counts invocations; Violations accumulates every distinct
	// violation observed, for end-of-run reporting.
	Checks     int
	Violations []string
}

// record deduplicates and accumulates violations, returning them.
func (c *Checker) record(bad []string) []string {
	c.Checks++
	if len(bad) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(c.Violations))
	for _, v := range c.Violations {
		seen[v] = true
	}
	for _, v := range bad {
		if !seen[v] {
			c.Violations = append(c.Violations, v)
			seen[v] = true
		}
	}
	return bad
}

// CheckScheduler runs the any-instant scheduler invariants on the live
// primary: conservation per machine, held-count consistency, quota usage
// ledgers, the aggregate headroom caches and the planned/capacity totals.
// Safe to call after every scheduling round: the scheduler keeps a dirty set
// (see master.Scheduler.CheckInvariants), so a call audits the units,
// machines and groups touched since the previous call — and everything on a
// scheduler's first call, which is every promoted master's, and on every
// sixteenth.
func (c *Checker) CheckScheduler() []string { return c.checkScheduler(false) }

func (c *Checker) checkScheduler(all bool) []string {
	s := c.Sched()
	if s == nil {
		return c.record(nil) // interregnum: nothing to check
	}
	if all {
		return c.record(s.CheckAllInvariants())
	}
	return c.record(s.CheckInvariants())
}

// CheckLedgers compares the master's grant ledger against every live
// FuxiAgent capacity table and every live application master's container
// ledger. Call only at settled points: with control messages in flight the
// three views legitimately diverge for a round-trip.
func (c *Checker) CheckLedgers() []string {
	s := c.Sched()
	if s == nil {
		return c.record(nil)
	}
	var bad []string

	// Master vs agents, both directions per machine: the master's grants on
	// the machine against the agent's table, then the agent's table against
	// the master's ledger. Sort a copy: callers may hand over their own
	// slice, and reordering it would perturb any index-based fault injection
	// driving the same run.
	agents := append([]*agent.Agent(nil), c.Agents()...)
	sort.Slice(agents, func(i, j int) bool { return agents[i].Machine < agents[j].Machine })
	for _, a := range agents {
		if !a.Up() {
			continue
		}
		s.ForEachGrantOn(a.ID(), func(app string, unit, n int) {
			if got := a.Capacity(app, unit); got != n {
				bad = append(bad, fmt.Sprintf(
					"ledger: machine %s app %s unit %d: master grants %d, agent capacity %d",
					a.Machine, app, unit, n, got))
			}
		})
		a.ForEachAllocation(func(app string, unit, n int) {
			if s.GrantedOn(app, unit, a.ID()) == 0 {
				bad = append(bad, fmt.Sprintf(
					"ledger: machine %s app %s unit %d: agent holds %d unknown to master",
					a.Machine, app, unit, n))
			}
		})
	}

	// Master vs application masters, both directions per (unit, machine):
	// one merge of the two machine-ordered ledgers per unit.
	for _, am := range c.AMs() {
		if am.Stopped() {
			continue
		}
		app := am.App()
		for _, u := range am.Units() {
			dense.Merge(s.GrantedCells(app, u.ID), am.HeldCells(u.ID), func(k uint64, granted, held int) {
				switch m := int32(k); {
				case granted != 0 && held != granted:
					bad = append(bad, fmt.Sprintf(
						"ledger: app %s unit %d machine %s: master grants %d, app holds %d",
						app, u.ID, c.Top.MachineName(m), granted, held))
				case granted == 0 && held > 0:
					bad = append(bad, fmt.Sprintf(
						"ledger: app %s unit %d machine %s: app holds %d unknown to master",
						app, u.ID, c.Top.MachineName(m), held))
				}
			})
		}
	}
	sort.Strings(bad)
	return c.record(bad)
}

// CheckQuota verifies quota-group guarantees at a settled point: no group
// stranded below its minimum with claimable queued demand while preemptible
// grants exist elsewhere (a recovery that dropped preemption state would
// surface here). No-op when preemption is disabled.
func (c *Checker) CheckQuota() []string {
	s := c.Sched()
	if s == nil {
		return c.record(nil)
	}
	return c.record(s.QuotaDeficits())
}

// CheckAdmission verifies admission conservation over the submission
// gateway: the gateway's streaming tallies must agree with its job table
// (each submission holds exactly one record, registration and completion
// fire at most once per job). At settled points the front door must be
// quiescent — no job stranded queued or awaiting an acknowledgement across
// however many master failovers occurred — and every still-open registered
// job must be registered with the live primary's scheduler exactly as the
// gateway believes (the cross-component half: an admission the rebuilt
// master forgot, or one applied twice, surfaces here).
func (c *Checker) CheckAdmission(settled bool) []string {
	if c.Gateway == nil {
		return c.record(nil)
	}
	bad := c.Gateway.CheckConservation(settled)
	if settled {
		if s := c.Sched(); s != nil {
			for _, id := range c.Gateway.RegisteredOpen() {
				if !s.Registered(id) {
					bad = append(bad, fmt.Sprintf(
						"admission: job %s registered at the gateway but unknown to the master", id))
				}
			}
		}
	}
	return c.record(bad)
}

// CheckCheckpointWrites asserts the checkpoint store absorbed at most
// budget writes — the paper's light-weight hard-state discipline: the
// scheduling fast path (demand, grants, returns, heartbeats) must never
// touch durable storage. Callers compute the budget from job boundary and
// election counts.
func (c *Checker) CheckCheckpointWrites(budget int) []string {
	if c.Ckpt == nil {
		return c.record(nil)
	}
	if c.Ckpt.Writes > budget {
		return c.record([]string{fmt.Sprintf(
			"checkpoint: %d writes exceed the job-boundary budget %d (fast path touched durable storage)",
			c.Ckpt.Writes, budget)})
	}
	return c.record(nil)
}

// CheckCheckpointBytes asserts the checkpoint store's cumulative byte
// volume (delta log plus compaction anchors) stays under budget — the
// incremental-checkpoint companion to CheckCheckpointWrites: write *counts*
// prove the fast path stays off durable storage, byte volume proves each
// write stays proportional to the mutation it records rather than to
// cluster state. Callers compute the budget from the churned-job count and
// per-record size, not from the number of registered applications.
func (c *Checker) CheckCheckpointBytes(budget int64) []string {
	if c.Ckpt == nil {
		return c.record(nil)
	}
	if got := c.Ckpt.Bytes(); got > budget {
		return c.record([]string{fmt.Sprintf(
			"checkpoint: %d bytes (delta %d + anchor %d) exceed the churn-proportional budget %d",
			got, c.Ckpt.DeltaBytes, c.Ckpt.AnchorBytes, budget)})
	}
	return c.record(nil)
}

// CheckAll runs every check appropriate for the moment: scheduler and
// admission checks always, ledger and quota checks only when settled is
// true — and at a settled point the scheduler audit covers everything, not
// only what changed since the last one.
func (c *Checker) CheckAll(settled bool) []string {
	var bad []string
	bad = append(bad, c.checkScheduler(settled)...)
	if c.Gateway != nil {
		bad = append(bad, c.CheckAdmission(settled)...)
	}
	if settled {
		bad = append(bad, c.CheckLedgers()...)
		bad = append(bad, c.CheckQuota()...)
	}
	return bad
}
