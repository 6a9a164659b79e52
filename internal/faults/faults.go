// Package faults implements the fault-injection campaigns of the paper's
// §5.4 (Table 3): NodeDown (random machine halts), PartialWorkerFailure
// (corrupted disks that refuse to launch processes), SlowMachine
// (deliberately stretched execution), and FuxiMasterFailure (killing the
// primary master), plus the conditions only a network produces (partition,
// link flap, delay spike, lock-service cut).
//
// A fault is a value (Fault) and a schedule a []Fault. Producers — a
// Campaign's seeded Plan, the scale harness's configured failover times and
// storms, a test's literal — only emit values; one Injector per assembled
// cluster (core.Cluster.Faults, the scale harness's) holds the only body of
// each effect, its retry rule and its closing event, and keeps the counts
// and per-machine tables the effects leave behind. Overlapping windows on
// one machine are counted, so an effect holds until the last one closes.
package faults

import (
	"math/rand"
	"slices"

	"repro/internal/sim"
)

// Campaign is one §5.4 experiment configuration: how many machines suffer
// each fault type (Table 3's rows).
type Campaign struct {
	NodeDown             int
	PartialWorkerFailure int
	SlowMachine          int
	// SlowFactor is the execution-time multiplier of SlowMachine victims
	// (sleep intervals injected into worker programs).
	SlowFactor float64
	// KillFuxiMaster additionally crashes the primary master once,
	// mid-run (the §5.4 FuxiMasterFailure scenario).
	KillFuxiMaster bool

	// NetworkPartition is the number of partition storms. Each storm
	// isolates a fresh random group of PartitionMachines machines from the
	// rest of the cluster for PartitionFor, then heals. Groups are drawn
	// independently per storm (a partition is a transient condition, not a
	// permanent degradation, so storms may revisit machines).
	NetworkPartition  int
	PartitionMachines int
	PartitionFor      sim.Time
	// LinkFlap victims have their network link cycle down/up FlapCycles
	// times: FlapDown down then FlapUp up per cycle. Machines stay alive —
	// only the wire misbehaves.
	LinkFlap   int
	FlapDown   sim.Time
	FlapUp     sim.Time
	FlapCycles int
	// DelaySpike victims get SpikeDelay added to every message crossing
	// their link for SpikeFor.
	DelaySpike int
	SpikeDelay sim.Time
	SpikeFor   sim.Time

	// Window is the span after Start over which injections are spread.
	Start  sim.Time
	Window sim.Time
	// Downtime is how long a machine fault holds before the victim recovers;
	// zero (the paper's §5.4 runs) leaves it degraded for good.
	Downtime sim.Time
}

// Paper5Percent reproduces Table 3's 5% column on a 300-node cluster:
// 2 NodeDown, 2 PartialWorkerFailure, 11 SlowMachine (15 machines). The
// slow factor models the paper's injected sleep intervals; it is large
// enough that a fresh backup instance clearly beats the straggler, which is
// the regime the backup-instance scheme targets.
func Paper5Percent() Campaign {
	return Campaign{NodeDown: 2, PartialWorkerFailure: 2, SlowMachine: 11, SlowFactor: 8}
}

// Paper10Percent reproduces Table 3's 10% column: 2 NodeDown,
// 4 PartialWorkerFailure, 23 SlowMachine (~30 machines).
func Paper10Percent() Campaign {
	return Campaign{NodeDown: 2, PartialWorkerFailure: 4, SlowMachine: 23, SlowFactor: 8}
}

// CampaignFor scales the paper's 5% fault mix to an arbitrary cluster: pct
// percent of machines become victims, split in Table 3's 2:2:11 NodeDown :
// PartialWorkerFailure : SlowMachine ratio with at least one victim per
// kind. The replay harness uses it to size failure storms.
func CampaignFor(machines int, pct, slowFactor float64) Campaign {
	victims := int(float64(machines)*pct/100 + 0.5)
	if victims < 3 {
		victims = 3
	}
	nd := victims * 2 / 15
	if nd < 1 {
		nd = 1
	}
	slow := victims - 2*nd
	if slow < 1 {
		slow = 1
	}
	return Campaign{
		NodeDown:             nd,
		PartialWorkerFailure: nd,
		SlowMachine:          slow,
		SlowFactor:           slowFactor,
	}
}

// Total returns the number of machines the campaign degrades.
func (c Campaign) Total() int { return c.NodeDown + c.PartialWorkerFailure + c.SlowMachine }

// Plan turns the campaign into a schedule over machines 0..machines-1:
// distinct victims come off one permutation shared by every per-machine
// kind, and each fault fires at a random point inside [Start, Start+Window).
// Nothing but rng is consumed, all of it now, so a plan never interleaves
// with another seeded stream.
//
// It also returns how many faults could not be placed because distinct
// victims ran out. A skipped fault makes no rng draw, so the remaining
// placements stay seed-stable and later kinds still get their share.
func (c Campaign) Plan(rng *rand.Rand, machines int) (Schedule, int) {
	perm := rng.Perm(machines)
	window := orDefault(c.Window, sim.Minute)
	at := func() sim.Time { return c.Start + sim.Time(rng.Int63n(int64(window))) }

	var plan Schedule
	skipped := 0
	place := func(n int, f Fault) {
		for i := 0; i < n; i++ {
			if len(perm) == 0 {
				skipped++
				continue
			}
			f.Targets, perm = []int32{int32(perm[0])}, perm[1:]
			f.At = at()
			plan = append(plan, f)
		}
	}
	factor := c.SlowFactor
	if factor <= 1 {
		factor = 3
	}
	place(c.NodeDown, Fault{Kind: NodeDown, For: c.Downtime})
	place(c.PartialWorkerFailure, Fault{Kind: PartialWorkerFailure, For: c.Downtime})
	place(c.SlowMachine, Fault{Kind: SlowMachine, For: c.Downtime, Factor: factor})
	if c.KillFuxiMaster {
		plan = append(plan, Fault{Kind: FuxiMasterFailure, At: at()})
	}

	// Network conditions come last, so a campaign without them plans exactly
	// as it did before they existed.
	for i := 0; i < c.NetworkPartition; i++ {
		k := min(max(c.PartitionMachines, 1), machines)
		group := make([]int32, k)
		for j, m := range rng.Perm(machines)[:k] {
			group[j] = int32(m)
		}
		slices.Sort(group)
		plan = append(plan, Fault{
			Kind: NetworkPartition, Targets: group,
			For: orDefault(c.PartitionFor, 5*sim.Second), At: at(),
		})
	}
	cycles := c.FlapCycles
	if cycles < 1 {
		cycles = 3
	}
	place(c.LinkFlap, Fault{
		Kind: LinkFlap, Cycles: cycles,
		Down: orDefault(c.FlapDown, 500*sim.Millisecond), Up: orDefault(c.FlapUp, 500*sim.Millisecond),
	})
	place(c.DelaySpike, Fault{
		Kind:  DelaySpike,
		Delay: orDefault(c.SpikeDelay, 5*sim.Millisecond), For: orDefault(c.SpikeFor, sim.Second),
	})
	return plan, skipped
}

func orDefault(v, def sim.Time) sim.Time {
	if v <= 0 {
		return def
	}
	return v
}
