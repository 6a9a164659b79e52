package faults

import (
	"math/rand"
	"slices"

	"repro/internal/agent"
	"repro/internal/master"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Kind names one fault effect: Table 3's three machine faults, the §5.4
// master kill, and the four conditions only a network can produce.
type Kind uint8

const (
	NodeDown Kind = iota
	PartialWorkerFailure
	SlowMachine
	FuxiMasterFailure
	NetworkPartition
	LinkFlap
	DelaySpike
	LockPartition
	numKinds
)

var kindNames = [numKinds]string{
	"NodeDown", "PartialWorkerFailure", "SlowMachine", "FuxiMasterFailure",
	"NetworkPartition", "LinkFlap", "DelaySpike", "LockPartition",
}

func (k Kind) String() string { return kindNames[k] }

// Fault is one fault as a plain value. Every producer — a Campaign, a
// harness's configured failover times and storms, a test's literal — emits
// these, and the Injector is the only thing that gives them an effect.
type Fault struct {
	Kind Kind
	// At is when Apply fires the fault; Fire ignores it.
	At sim.Time
	// For is how long the effect holds: machine downtime, partition, spike
	// or lock-cut length, the delay before a crashed master restarts as
	// standby. Zero never lifts it (the paper's §5.4 runs: a victim stays
	// degraded). A LinkFlap's window is Cycles × (Down + Up) instead.
	For sim.Time
	// Targets are dense machine IDs: the partitioned group, or one machine
	// per fault for the per-machine kinds (more are hit independently).
	// FuxiMasterFailure and LockPartition act on whichever master is primary
	// when they fire.
	Targets []int32

	Factor   float64  // SlowMachine: execution-time multiplier
	Delay    sim.Time // DelaySpike: extra one-way latency
	Down, Up sim.Time // LinkFlap: link down, then up, per cycle
	Cycles   int      // LinkFlap
}

// Schedule is a fault schedule: data, in arming order.
type Schedule []Fault

// retryEvery is how soon a fault that cannot open yet is tried again: a
// master crash or lock cut during an interregnum, a partition while the
// transport (which holds one at a time) is still partitioned.
const retryEvery = 500 * sim.Millisecond

// Injector holds the one body of every fault effect for one assembled
// cluster, and what the effects leave behind: per-kind counts, the
// per-machine slow and broken tables, open partitions and lock cuts.
type Injector struct {
	// Agents (by dense machine ID) and Masters (the hot-standby pair; nil
	// entries are skipped) are read when a fault fires, so an assembler may
	// arm a schedule before it has built them.
	Agents  []*agent.Agent
	Masters []*master.Master
	// Hook, when set, is called once a fault has taken effect (open) and
	// again once the effect of a windowed fault has been lifted.
	Hook func(f Fault, open bool)

	eng *sim.Engine
	net *transport.Net

	counts           [numKinds]struct{ fired, machines int }
	planned, skipped int // campaign faults asked for, and not placed
	// Open windows per machine — counts, not flags, so the effect holds until
	// the last of several overlapping windows closes. slow's factor is that
	// of the window opened last.
	broken   []int32
	slow     []slowCell
	partOpen int
	lockCut  [2]int32
}

type slowCell struct {
	open   int32
	factor float64
}

// NewInjector returns an injector for a cluster of the given machine count.
func NewInjector(eng *sim.Engine, net *transport.Net, machines int) *Injector {
	return &Injector{
		eng: eng, net: net,
		broken: make([]int32, machines), slow: make([]slowCell, machines),
	}
}

// Fired returns how many faults of kind k have taken effect; Machines how
// many machines they hit.
func (in *Injector) Fired(k Kind) int    { return in.counts[k].fired }
func (in *Injector) Machines(k Kind) int { return in.counts[k].machines }

// OpenPartitions returns the number of partitions not yet healed.
func (in *Injector) OpenPartitions() int { return in.partOpen }

// Broken reports whether machine id is inside a PartialWorkerFailure window.
func (in *Injector) Broken(id int32) bool { return in.broken[id] > 0 }

// Slowdown returns machine id's execution-time multiplier (1 outside every
// SlowMachine window).
func (in *Injector) Slowdown(id int32) float64 {
	if s := in.slow[id]; s.open > 0 {
		return s.factor
	}
	return 1
}

// LockReachable is master.Config.LockReachable for Masters[i]: false while a
// LockPartition of that process is open.
func (in *Injector) LockReachable(i int) bool { return in.lockCut[i] == 0 }

// Apply arms a schedule: one event per fault, in schedule order. A window's
// closing event is posted only when the window opens.
func (in *Injector) Apply(s Schedule) {
	for _, f := range s {
		in.eng.PostFunc(f.At-in.eng.Now(), func() { in.Fire(f) })
	}
}

// ApplyCampaign plans camp for this cluster on rng and arms the result.
func (in *Injector) ApplyCampaign(camp Campaign, rng *rand.Rand) (Schedule, int) {
	plan, skipped := camp.Plan(rng, len(in.broken))
	in.Apply(plan)
	in.planned += len(plan) + skipped
	in.skipped += skipped
	return plan, skipped
}

// Planned returns how many faults the campaigns applied so far asked for, and
// how many of those found no distinct victim.
func (in *Injector) Planned() (faults, skipped int) { return in.planned, in.skipped }

// Fire applies one fault now — the entry point of a producer that draws its
// victim at fire time.
func (in *Injector) Fire(f Fault) {
	switch f.Kind {
	case FuxiMasterFailure:
		// The standby takes over when the lease expires; the crashed process
		// comes back as the new standby, so repeated failovers alternate.
		if p := master.Primary(in.Masters...); p != nil {
			p.Crash()
			in.open(f, p.Restart)
			return
		}
	case LockPartition:
		// The primary loses the lock service while it still reaches every
		// agent: the lease expires server-side, the standby promotes, and the
		// deposed primary must fence itself at its lease deadline.
		if p := master.Primary(in.Masters...); p != nil {
			i := slices.Index(in.Masters, p)
			in.lockCut[i]++
			in.open(f, func() { in.lockCut[i]-- })
			return
		}
	case NetworkPartition:
		// The group drops off the control plane; links inside it stay up.
		if !in.net.Partitioned() {
			eps := make([]string, len(f.Targets))
			for i, id := range f.Targets {
				eps[i] = in.endpoint(id)
			}
			in.net.Isolate(eps)
			in.partOpen++
			in.open(f, func() { in.partOpen--; in.net.Heal() })
			return
		}
	default:
		for i := range f.Targets {
			one := f
			one.Targets = f.Targets[i : i+1]
			in.hit(one)
		}
		return
	}
	in.eng.PostFunc(retryEvery, func() { in.Fire(f) })
}

// hit applies a per-machine fault to its one target.
func (in *Injector) hit(f Fault) {
	id := f.Targets[0]
	a := in.Agents[id]
	switch f.Kind {
	case NodeDown:
		if !a.Up() {
			return // already down: not a second crash, and no second restart
		}
		a.CrashMachine()
		in.open(f, a.RestartMachine)
	case PartialWorkerFailure:
		// Corrupted disks: no new process launches, and the ones running hang.
		// Crash those in (application endpoint, worker) order, so map order
		// never reaches the simulation schedule.
		in.broken[id]++
		a.SetBroken(true)
		for _, p := range a.Procs() {
			a.CrashWorker(p, "disk I/O hang")
		}
		in.open(f, func() {
			if in.broken[id]--; in.broken[id] == 0 {
				a.SetBroken(false)
			}
		})
	case SlowMachine:
		in.slow[id].open++
		in.slow[id].factor = f.Factor
		in.open(f, func() { in.slow[id].open-- })
	case DelaySpike:
		// Spiked messages land out of order relative to un-spiked ones.
		ep := in.endpoint(id)
		in.net.SetLinkDelay(ep, f.Delay)
		in.open(f, func() { in.net.SetLinkDelay(ep, 0) })
	case LinkFlap:
		in.open(f, nil)
		in.flap(f, in.endpoint(id), 0)
	}
}

// flap runs cycle k of a link flap: the machine stays alive, only its wire
// misbehaves. A zero Up phase needs no timer.
func (in *Injector) flap(f Fault, ep string, k int) {
	if k >= f.Cycles {
		in.hook(f, false)
		return
	}
	in.net.SetLinkDown(ep, true)
	in.eng.PostFunc(f.Down, func() {
		in.net.SetLinkDown(ep, false)
		if f.Up <= 0 {
			in.flap(f, ep, k+1)
			return
		}
		in.eng.PostFunc(f.Up, func() { in.flap(f, ep, k+1) })
	})
}

// open records that f took effect and, when the fault has a window, posts
// the event that lifts it.
func (in *Injector) open(f Fault, lift func()) {
	in.counts[f.Kind].fired++
	in.counts[f.Kind].machines += len(f.Targets)
	if lift != nil && f.For > 0 {
		in.eng.PostFunc(f.For, func() {
			lift()
			in.hook(f, false)
		})
	}
	in.hook(f, true)
}

func (in *Injector) hook(f Fault, open bool) {
	if in.Hook != nil {
		in.Hook(f, open)
	}
}

func (in *Injector) endpoint(id int32) string {
	return protocol.AgentEndpoint(in.Agents[id].Machine)
}
