package faults_test

// The planner's predecessor, kept as a differential oracle: ApplyTo (with its
// Target/NetworkTarget/Injection types) is the code Campaign.Plan replaced,
// unchanged except that it reads faults.Campaign from outside the package.
// It planned and armed in one pass, through an interface each assembler
// adapted; Plan must draw the same victims and fire times from the same
// stream, in the same order, and nothing else.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// Injection records one planned fault, for experiment logs. A Skipped entry
// (Machine empty) records a fault the campaign could not place because the
// pool of distinct victim machines ran out.
type Injection struct {
	At      sim.Time
	Kind    string
	Machine string
	Skipped bool
}

// Target abstracts the cluster a campaign is injected into, so campaigns can
// drive both the core.Cluster facade and harnesses that manage their agents
// and masters directly.
type Target interface {
	// Rand is the seeded stream victims and fire times are drawn from.
	Rand() *rand.Rand
	// At schedules fn at virtual time t.
	At(t sim.Time, fn func())
	// Machines lists the victim pool in a deterministic order.
	Machines() []string
	// KillMachine halts a machine (NodeDown).
	KillMachine(m string)
	// BreakMachine corrupts a machine's disks so it refuses to launch new
	// worker processes; existing workers crash (PartialWorkerFailure).
	BreakMachine(m string)
	// SlowMachine stretches execution on m by factor (SlowMachine).
	SlowMachine(m string, factor float64)
	// KillPrimaryMaster crashes the primary FuxiMaster (FuxiMasterFailure).
	KillPrimaryMaster()
}

// NetworkTarget is the optional extension a Target implements when its
// transport supports scheduled per-link conditions. Campaigns with network
// faults applied to a Target without it record those faults as Skipped.
type NetworkTarget interface {
	// PartitionMachines cuts the group off from the rest of the cluster
	// (intra-group links stay up) and heals after dur.
	PartitionMachines(group []string, dur sim.Time)
	// FlapMachineLink cycles m's link down for down / up for up, cycles
	// times, starting now.
	FlapMachineLink(m string, down, up sim.Time, cycles int)
	// SpikeMachineLink adds extra one-way delay to every message crossing
	// m's link for dur.
	SpikeMachineLink(m string, extra, dur sim.Time)
}

// ApplyTo schedules the campaign's faults onto the target: distinct victim
// machines are drawn with the target's seeded RNG and each fault fires at a
// random point inside [Start, Start+Window). All randomness is consumed at
// call time, so the plan never interleaves with other seeded streams.
//
// It returns the planned injections and the number of faults that could not
// be placed because distinct victims ran out. Skipped faults appear in the
// plan as Skipped entries — they are never silently dropped (the old
// behaviour truncated the current fault kind and starved every kind
// scheduled after it on small clusters).
func ApplyTo(tgt Target, camp faults.Campaign) ([]Injection, int) {
	rng := tgt.Rand()
	machines := tgt.Machines()
	perm := rng.Perm(len(machines))
	next := 0
	pick := func() string {
		if next >= len(perm) {
			return ""
		}
		m := machines[perm[next]]
		next++
		return m
	}
	window := camp.Window
	if window <= 0 {
		window = sim.Minute
	}
	at := func() sim.Time { return camp.Start + sim.Time(rng.Int63n(int64(window))) }

	var plan []Injection
	skipped := 0
	schedule := func(kind string, n int, fire func(m string)) {
		for i := 0; i < n; i++ {
			m := pick()
			if m == "" {
				// Out of distinct victims: record the skip (no rng draw,
				// so the remaining placements stay seed-stable) and keep
				// going so later kinds still get their share.
				plan = append(plan, Injection{Kind: kind, Skipped: true})
				skipped++
				continue
			}
			t := at()
			plan = append(plan, Injection{At: t, Kind: kind, Machine: m})
			victim := m
			tgt.At(t, func() { fire(victim) })
		}
	}
	schedule("NodeDown", camp.NodeDown, tgt.KillMachine)
	schedule("PartialWorkerFailure", camp.PartialWorkerFailure, tgt.BreakMachine)
	schedule("SlowMachine", camp.SlowMachine, func(m string) {
		factor := camp.SlowFactor
		if factor <= 1 {
			factor = 3
		}
		tgt.SlowMachine(m, factor)
	})
	if camp.KillFuxiMaster {
		t := at()
		plan = append(plan, Injection{At: t, Kind: "FuxiMasterFailure"})
		tgt.At(t, tgt.KillPrimaryMaster)
	}

	// Network conditions come last so campaigns without them produce plans
	// byte-identical to the pre-network format. A Target that does not
	// implement NetworkTarget gets Skipped entries with no rng draws, same
	// as the out-of-victims convention above.
	if camp.NetworkPartition+camp.LinkFlap+camp.DelaySpike > 0 {
		net, _ := tgt.(NetworkTarget)
		for i := 0; i < camp.NetworkPartition; i++ {
			if net == nil {
				plan = append(plan, Injection{Kind: "NetworkPartition", Skipped: true})
				skipped++
				continue
			}
			k := camp.PartitionMachines
			if k < 1 {
				k = 1
			}
			if k > len(machines) {
				k = len(machines)
			}
			idx := rng.Perm(len(machines))[:k]
			group := make([]string, k)
			for j, gi := range idx {
				group[j] = machines[gi]
			}
			sort.Strings(group)
			dur := camp.PartitionFor
			if dur <= 0 {
				dur = 5 * sim.Second
			}
			t := at()
			plan = append(plan, Injection{At: t, Kind: "NetworkPartition", Machine: group[0]})
			g := group
			tgt.At(t, func() { net.PartitionMachines(g, dur) })
		}
		schedNet := func(kind string, n int, fire func(m string)) {
			for i := 0; i < n; i++ {
				var m string
				if net != nil {
					m = pick()
				}
				if m == "" {
					plan = append(plan, Injection{Kind: kind, Skipped: true})
					skipped++
					continue
				}
				t := at()
				plan = append(plan, Injection{At: t, Kind: kind, Machine: m})
				victim := m
				tgt.At(t, func() { fire(victim) })
			}
		}
		schedNet("LinkFlap", camp.LinkFlap, func(m string) {
			down, up := camp.FlapDown, camp.FlapUp
			if down <= 0 {
				down = 500 * sim.Millisecond
			}
			if up <= 0 {
				up = 500 * sim.Millisecond
			}
			cycles := camp.FlapCycles
			if cycles < 1 {
				cycles = 3
			}
			net.FlapMachineLink(m, down, up, cycles)
		})
		schedNet("DelaySpike", camp.DelaySpike, func(m string) {
			extra := camp.SpikeDelay
			if extra <= 0 {
				extra = 5 * sim.Millisecond
			}
			dur := camp.SpikeFor
			if dur <= 0 {
				dur = sim.Second
			}
			net.SpikeMachineLink(m, extra, dur)
		})
	}
	return plan, skipped
}

// fakeNetTarget records what ApplyTo drives through the Target and
// NetworkTarget interfaces: the effect each planned fault would have had,
// with its parameters, keyed the way Plan's Fault values carry them.
type fakeNetTarget struct {
	rng      *rand.Rand
	machines []string
	fired    []faults.Fault // Targets unset; machine names in names
	names    [][]string
}

func (f *fakeNetTarget) Rand() *rand.Rand         { return f.rng }
func (f *fakeNetTarget) At(_ sim.Time, fn func()) { fn() } // no event loop: fire at once
func (f *fakeNetTarget) Machines() []string       { return f.machines }

func (f *fakeNetTarget) record(ft faults.Fault, machines ...string) {
	f.fired = append(f.fired, ft)
	f.names = append(f.names, machines)
}

func (f *fakeNetTarget) KillMachine(m string) { f.record(faults.Fault{Kind: faults.NodeDown}, m) }
func (f *fakeNetTarget) BreakMachine(m string) {
	f.record(faults.Fault{Kind: faults.PartialWorkerFailure}, m)
}
func (f *fakeNetTarget) SlowMachine(m string, factor float64) {
	f.record(faults.Fault{Kind: faults.SlowMachine, Factor: factor}, m)
}
func (f *fakeNetTarget) KillPrimaryMaster() { f.record(faults.Fault{Kind: faults.FuxiMasterFailure}) }
func (f *fakeNetTarget) PartitionMachines(group []string, dur sim.Time) {
	f.record(faults.Fault{Kind: faults.NetworkPartition, For: dur}, group...)
}
func (f *fakeNetTarget) FlapMachineLink(m string, down, up sim.Time, cycles int) {
	f.record(faults.Fault{Kind: faults.LinkFlap, Down: down, Up: up, Cycles: cycles}, m)
}
func (f *fakeNetTarget) SpikeMachineLink(m string, extra, dur sim.Time) {
	f.record(faults.Fault{Kind: faults.DelaySpike, Delay: extra, For: dur}, m)
}

// TestPlanMatchesApplyToOracle plans 300 seeded campaigns — every kind,
// defaulted and explicit parameters, pools small enough that distinct victims
// run out — both ways from equal streams. Plan must yield the oracle's (At,
// Kind, machine) sequence and skip count, carry the parameters the oracle
// handed its target, and leave the stream at the same next draw.
func TestPlanMatchesApplyToOracle(t *testing.T) {
	kinds := map[faults.Kind]int{}
	exhausted := 0
	for seed := int64(1); seed <= 300; seed++ {
		gen := rand.New(rand.NewSource(seed * 7919))
		n := 1 + gen.Intn(12)
		secs := func(k int) sim.Time { return sim.Time(gen.Intn(k)) * sim.Second } // 0 takes the default
		camp := faults.Campaign{
			NodeDown: gen.Intn(4), PartialWorkerFailure: gen.Intn(4), SlowMachine: gen.Intn(5),
			SlowFactor:       float64(2 * gen.Intn(4)),
			KillFuxiMaster:   gen.Intn(2) == 0,
			NetworkPartition: gen.Intn(3), PartitionMachines: gen.Intn(n + 3), PartitionFor: secs(3),
			LinkFlap: gen.Intn(3), FlapDown: secs(3), FlapUp: secs(3), FlapCycles: gen.Intn(4),
			DelaySpike: gen.Intn(3), SpikeDelay: secs(2) / 100, SpikeFor: secs(3),
			Start: secs(100), Window: secs(4),
		}
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("m%02d", i)
		}
		f := &fakeNetTarget{rng: rand.New(rand.NewSource(seed)), machines: names}
		oracle, wantSkipped := ApplyTo(f, camp)
		rng := rand.New(rand.NewSource(seed))
		got, skipped := camp.Plan(rng, n)

		if skipped != wantSkipped {
			t.Fatalf("seed %d: skipped %d, oracle %d (%+v on %d machines)", seed, skipped, wantSkipped, camp, n)
		}
		if skipped > 0 {
			exhausted++
		}
		want := oracle[:0:0]
		for _, inj := range oracle {
			if !inj.Skipped {
				want = append(want, inj)
			}
		}
		if len(got) != len(want) || len(got) != len(f.fired) {
			t.Fatalf("seed %d: %d faults planned, oracle placed %d and fired %d", seed, len(got), len(want), len(f.fired))
		}
		for i, g := range got {
			kinds[g.Kind]++
			machine := ""
			if len(g.Targets) > 0 {
				machine = names[g.Targets[0]]
			}
			if g.At != want[i].At || g.Kind.String() != want[i].Kind || machine != want[i].Machine {
				t.Fatalf("seed %d fault %d: planned (%v, %v, %q), oracle %+v", seed, i, g.At, g.Kind, machine, want[i])
			}
			// The oracle armed in plan order and the fake fired at once, so
			// fired[i] is this fault's effect and parameters.
			targets := make([]string, len(g.Targets))
			for j, id := range g.Targets {
				targets[j] = names[id]
			}
			if fmt.Sprint(targets) != fmt.Sprint(f.names[i]) {
				t.Fatalf("seed %d fault %d (%v): targets %v, oracle hit %v", seed, i, g.Kind, targets, f.names[i])
			}
			g.At, g.Targets = 0, nil
			if fmt.Sprint(g) != fmt.Sprint(f.fired[i]) {
				t.Fatalf("seed %d fault %d: parameters %+v, oracle passed %+v", seed, i, g, f.fired[i])
			}
		}
		if a, b := rng.Int63(), f.rng.Int63(); a != b {
			t.Fatalf("seed %d: streams diverge after planning (%d vs %d)", seed, a, b)
		}
	}
	for k := faults.NodeDown; k <= faults.DelaySpike; k++ {
		if kinds[k] == 0 {
			t.Errorf("no campaign placed a %v", k)
		}
	}
	if exhausted < 20 {
		t.Errorf("only %d of 300 campaigns ran out of victims", exhausted)
	}
}
