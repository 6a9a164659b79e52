package scale

// Chaos mode: the steady-state churn workload run under an adversarial
// network schedule. Partition storms isolate a random group of agents from
// the rest of the control plane (master, standby, applications) and heal
// after a configured duration — one storm longer than the master's
// heartbeat timeout (dead-declaration, revocation wave, reissue, and the
// heal-time capacity resync), one shorter (pure sequence-gap repair, no
// deaths). Link-flap windows bounce individual agent links, delay spikes
// stretch and reorder their traffic, and an optional lock-service partition
// cuts the primary from the lease while it still reaches every agent — the
// dueling-masters shape the split-brain fencing exists for. The headline
// metric is convergence-after-heal: from each heal instant, how long until
// every partitioned machine's agent ledger again equals the primary's grant
// ledger, polled on a fixed virtual-time cadence so the measurement is
// deterministic. Results land in the `chaos` section of BENCH_scale.json
// and are budget-gated in CI.

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
)

// DefaultChaosConfig is the paper-scale chaos run: the 5,000-machine churn
// workload with two partition storms inside the measurement window — 6 s
// (beyond the 3 s heartbeat timeout) and 2 s (below it) over 2% of the
// cluster — a link-flap window, delay spikes, and a 5 s lock-service
// partition of the primary.
func DefaultChaosConfig() Config {
	c := DefaultChurnConfig()
	c.Chaos = true
	c.CheckInvariants = true
	c.ChaosPartitionAt = []sim.Time{50 * sim.Second, 65 * sim.Second}
	c.ChaosPartitionFor = []sim.Time{6 * sim.Second, 2 * sim.Second}
	c.ChaosPartitionPct = 2
	c.ChaosFlapAt = []sim.Time{72 * sim.Second}
	c.ChaosFlaps = 4
	c.ChaosSpikeAt = []sim.Time{75 * sim.Second}
	c.ChaosSpikes = 4
	c.ChaosSpikeDelay = 5 * sim.Millisecond
	c.ChaosLockPartitionAt = 80 * sim.Second
	c.ChaosLockPartitionFor = 5 * sim.Second
	return c
}

// SmokeChaosConfig is the CI-sized chaos run: the 100-machine churn smoke
// with the same storm shapes compressed into its 50-second horizon.
func SmokeChaosConfig() Config {
	c := SmokeChurnConfig()
	c.Chaos = true
	c.CheckInvariants = true
	c.ChaosPartitionAt = []sim.Time{24 * sim.Second, 33 * sim.Second}
	c.ChaosPartitionFor = []sim.Time{6 * sim.Second, 2 * sim.Second}
	c.ChaosPartitionPct = 5
	c.ChaosFlapAt = []sim.Time{37 * sim.Second}
	c.ChaosFlaps = 2
	c.ChaosSpikeAt = []sim.Time{40 * sim.Second}
	c.ChaosSpikes = 2
	c.ChaosSpikeDelay = 5 * sim.Millisecond
	c.ChaosLockPartitionAt = 42 * sim.Second
	c.ChaosLockPartitionFor = 5 * sim.Second
	return c
}

const (
	// chaosConvergePoll is the convergence probe cadence after each heal. A
	// fixed virtual-time grid keeps the recorded convergence times exact
	// multiples of the poll period and identical across runs.
	chaosConvergePoll = 5 * sim.Millisecond
	// chaosConvergeTimeout caps one heal's probe; a window that never
	// converges records the cap and counts in Unconverged (which fails the
	// chaos lane's contract).
	chaosConvergeTimeout = 30 * sim.Second
)

// chaosProbe arms the adversarial network schedule and measures what it
// costs whichever workload runs under it: convergence after each heal, grants
// lost to storms and reissued after them, per-link loss.
type chaosProbe struct {
	idleProbe
	h *harness
	// frng is the dedicated fault stream (victim draws, fire times), so
	// storm placement cannot perturb the workload's random draws.
	frng *rand.Rand

	// victimActive counts, per machine (dense ID), the heal→converged
	// windows it is inside: grants arriving while the count is positive are
	// reissued repair traffic. A count, not a flag, so a machine still
	// converging from one storm stays counted when an overlapping second
	// storm's window over it closes first.
	victimActive []int32

	unconverged int
	lost        uint64
	reissued    uint64

	conv obs.Dist
}

func newChaosProbe(h *harness) *chaosProbe {
	return &chaosProbe{
		h:    h,
		frng: rand.New(rand.NewSource(h.cfg.Seed + 5)),
	}
}

// need: a lock-service partition of the primary needs a standby to promote.
func (cz *chaosProbe) need(cc *core.Config) {
	if cfg := cz.h.cfg; cfg.ChaosLockPartitionAt > 0 && cfg.ChaosLockPartitionFor > 0 {
		cc.Standby = true
	}
}

// arm arms the whole adversarial schedule up front. Every random draw
// (partition groups, flap/spike victims, fire times) happens now on the
// dedicated fault stream, through the same Campaign.Plan the standalone fault
// driver uses.
func (cz *chaosProbe) arm() {
	h, cfg := cz.h, cz.h.cfg
	cz.victimActive = make([]int32, h.top.Size())
	h.net.EnableLinkStats()

	k := int(float64(h.top.Size()) * cfg.ChaosPartitionPct / 100)
	if k < 1 {
		k = 1
	}
	for i, at := range cfg.ChaosPartitionAt {
		var dur sim.Time // 0 takes the campaign's default, 5 s
		if i < len(cfg.ChaosPartitionFor) {
			dur = cfg.ChaosPartitionFor[i]
		}
		h.inj.ApplyCampaign(faults.Campaign{
			Start: at, Window: sim.Millisecond,
			NetworkPartition: 1, PartitionMachines: k, PartitionFor: dur,
		}, cz.frng)
	}
	for _, at := range cfg.ChaosFlapAt {
		h.inj.ApplyCampaign(faults.Campaign{Start: at, Window: sim.Millisecond, LinkFlap: cfg.ChaosFlaps}, cz.frng)
	}
	for _, at := range cfg.ChaosSpikeAt {
		h.inj.ApplyCampaign(faults.Campaign{
			Start: at, Window: sim.Millisecond,
			DelaySpike: cfg.ChaosSpikes, SpikeDelay: cfg.ChaosSpikeDelay,
		}, cz.frng)
	}
	if cfg.ChaosLockPartitionAt > 0 && cfg.ChaosLockPartitionFor > 0 {
		// Exactly one master may win: the dueling-masters shape the
		// split-brain fencing exists for.
		h.inj.Apply(faults.Schedule{{
			Kind: faults.LockPartition, At: cfg.ChaosLockPartitionAt, For: cfg.ChaosLockPartitionFor,
		}})
	}
}

// fault is the injector's hook: a healed partition starts the convergence
// probe over its victims.
func (cz *chaosProbe) fault(f faults.Fault, open bool) {
	if f.Kind == faults.NetworkPartition && !open {
		cz.healed(f.Targets)
	}
}

// healed starts the convergence probe over a partition the injector has
// just lifted: every chaosConvergePoll, compare each victim machine's agent
// allocation table against the primary's grant ledger until they all match
// (or the timeout records the window as unconverged).
func (cz *chaosProbe) healed(victims []int32) {
	h := cz.h
	for _, id := range victims {
		cz.victimActive[id]++
	}
	healAt := h.eng.Now()
	deadline := healAt + chaosConvergeTimeout
	finish := func(ms float64) {
		cz.conv.Observe(ms)
		for _, id := range victims {
			cz.victimActive[id]--
		}
	}
	var poll func()
	poll = func() {
		if cz.convergedAll(victims) {
			finish(float64(h.eng.Now()-healAt) / float64(sim.Millisecond))
			return
		}
		if h.eng.Now() >= deadline {
			cz.unconverged++
			finish(float64(chaosConvergeTimeout) / float64(sim.Millisecond))
			return
		}
		h.eng.After(chaosConvergePoll, poll)
	}
	h.eng.After(chaosConvergePoll, poll)
}

// convergedAll reports whether every victim machine's agent-side allocation
// table equals the primary master's grant ledger for that machine. During an
// interregnum there is no authoritative ledger, so nothing converges. The
// probe fires every chaosConvergePoll for as long as a heal takes, so it
// reads only the victims' own cells and allocates nothing.
func (cz *chaosProbe) convergedAll(victims []int32) bool {
	h := cz.h
	s := h.primarySched()
	if s == nil {
		return false
	}
	for _, id := range victims {
		// Every master cell has the agent's count, and the agent has no
		// entry beyond them (both sides omit zero counts).
		ag := h.agents[id]
		cells, same := 0, true
		s.ForEachGrantOn(id, func(app string, unit, n int) {
			cells++
			same = same && ag.Capacity(app, unit) == n
		})
		if !same {
			return false
		}
		ag.ForEachAllocation(func(string, int, int) { cells-- })
		if cells != 0 {
			return false
		}
	}
	return true
}

// granted and revoked are the observed-decision path's hooks. A revoke
// while a partition is open is a grant the storm cost the application (the
// master declared the unreachable machine dead and evacuated it); a grant
// landing on a victim machine between heal and convergence is repair
// traffic re-establishing the pre-storm allocation.
func (cz *chaosProbe) granted(machine int32, count int) {
	if cz.victimActive[machine] > 0 {
		cz.reissued += uint64(count)
	}
}

func (cz *chaosProbe) revoked(count int) {
	if cz.h.inj.OpenPartitions() > 0 {
		cz.lost += uint64(count)
	}
}

// ChaosStats is the `chaos` section of BENCH_scale.json. The struct is
// comparable (flat fields only) so determinism tests assert whole-struct
// equality across repeated runs.
type ChaosStats struct {
	Partitions          int `json:"partitions"`
	MachinesPartitioned int `json:"machines_partitioned"`
	Heals               int `json:"heals"`
	LinkFlaps           int `json:"link_flaps"`
	DelaySpikes         int `json:"delay_spikes"`
	LockPartitions      int `json:"lock_partitions"`
	Injections          int `json:"injections"`
	InjectionsSkipped   int `json:"injections_skipped,omitempty"`

	// Convergence-after-heal: heal instant → every victim machine's agent
	// ledger equals the primary's grant ledger, in virtual milliseconds.
	ConvergenceP50MS float64 `json:"convergence_p50_ms"`
	ConvergenceP99MS float64 `json:"convergence_p99_ms"`
	ConvergenceMaxMS float64 `json:"convergence_max_ms"`
	// Unconverged counts heal windows that hit the probe timeout (must be
	// 0; the chaos lane's contract fails on it).
	Unconverged int `json:"unconverged,omitempty"`

	// LostGrants are revocations applications observed while a partition
	// was open; ReissuedGrants are grants landing on victim machines during
	// their heal→convergence window.
	LostGrants     uint64 `json:"lost_grants"`
	ReissuedGrants uint64 `json:"reissued_grants"`

	// MasterEpoch is the final election epoch (> 1 iff the lock partition
	// forced a promotion).
	MasterEpoch int `json:"master_epoch"`

	// Per-link loss attribution (transport link stats, chaos runs only):
	// how many ordered endpoint pairs dropped traffic, the total dropped,
	// and the worst pair.
	LinksWithLoss    int    `json:"links_with_loss"`
	LinkMsgsDropped  uint64 `json:"link_msgs_dropped"`
	WorstLink        string `json:"worst_link,omitempty"`
	WorstLinkDropped uint64 `json:"worst_link_dropped,omitempty"`
}

func (cz *chaosProbe) report(res *Result) {
	h := cz.h
	in := h.inj
	planned, skipped := in.Planned()
	cs := &ChaosStats{
		Partitions:          in.Fired(faults.NetworkPartition),
		MachinesPartitioned: in.Machines(faults.NetworkPartition),
		Heals:               in.Fired(faults.NetworkPartition) - in.OpenPartitions(),
		LinkFlaps:           in.Fired(faults.LinkFlap),
		DelaySpikes:         in.Fired(faults.DelaySpike),
		LockPartitions:      in.Fired(faults.LockPartition),
		Injections:          planned,
		InjectionsSkipped:   skipped,
		ConvergenceP50MS:    cz.conv.Quantile(0.5),
		ConvergenceP99MS:    cz.conv.Quantile(0.99),
		ConvergenceMaxMS:    cz.conv.Max(),
		Unconverged:         cz.unconverged,
		LostGrants:          cz.lost,
		ReissuedGrants:      cz.reissued,
	}
	for _, m := range h.cl.Masters {
		if m != nil && m.Epoch() > cs.MasterEpoch {
			cs.MasterEpoch = m.Epoch()
		}
	}
	for _, ls := range h.net.LinkStats() {
		if ls.Dropped == 0 {
			continue
		}
		cs.LinksWithLoss++
		cs.LinkMsgsDropped += ls.Dropped
		if ls.Dropped > cs.WorstLinkDropped {
			cs.WorstLinkDropped = ls.Dropped
			cs.WorstLink = ls.From + "->" + ls.To
		}
	}
	res.Chaos = cs
}
