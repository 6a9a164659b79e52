package master

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/resource"
)

// fuzzFleet drives N schedulers through an identical operation stream and
// fails the moment any decision stream diverges from fleet[0]'s. It is the
// machinery behind the legacy ≡ serial parity guarantee, under every failure
// mode the fuzz can compose.
type fuzzFleet struct {
	t      *testing.T
	scheds []*Scheduler
	names  []string
}

func (f *fuzzFleet) compare(seed int64, step int, op string, outs [][]Decision) {
	base := outs[0]
	for si := 1; si < len(outs); si++ {
		o := outs[si]
		if len(o) != len(base) {
			f.t.Fatalf("seed %d step %d (%s): %s decision count %d != %s %d\n%v\n%v",
				seed, step, op, f.names[si], len(o), f.names[0], len(base), o, base)
		}
		for i := range o {
			if o[i] != base[i] {
				f.t.Fatalf("seed %d step %d (%s): %s decision %d = %+v, %s has %+v",
					seed, step, op, f.names[si], i, o[i], f.names[0], base[i])
			}
		}
	}
}

func (f *fuzzFleet) each(fn func(s *Scheduler) []Decision) [][]Decision {
	outs := make([][]Decision, len(f.scheds))
	for i, s := range f.scheds {
		outs[i] = fn(s)
	}
	return outs
}

// TestParallelParityFuzz (named for the sharded fleet members it once had)
// is the legacy/optimized parity fuzz: a legacy-tree scheduler and the
// indexed scheduler run the same random workload — demand churn, coalesced
// release bursts followed by cluster-wide assignment sweeps (the
// batched-round shape), agent failovers, full master-failover rebuilds,
// blacklisting and app churn, preemption on — and the two decision streams
// must stay byte-identical, with both schedulers' conservation invariants
// intact after every step.
func TestParallelParityFuzz(t *testing.T) {
	groups := map[string]resource.Vector{
		"gold":   resource.New(96_000, 768*1024),
		"bronze": resource.New(48_000, 384*1024),
	}
	opts := Options{EnablePreemption: true, Groups: groups}
	names := []string{"legacy", "serial"}
	newFleet := func() *fuzzFleet {
		f := &fuzzFleet{t: t, names: names}
		for i := range names {
			f.scheds = append(f.scheds, newTestScheduler(testTop(t, 8, 5), opts, i == 0))
		}
		return f
	}
	// rebuild promotes a fresh scheduler over s's cluster the way a hot
	// standby does (hard state from the checkpoint, grants from agent
	// reports, demand from app full syncs), returning the decisions the
	// soft-state replay produced.
	rebuild := func(s *Scheduler, legacy bool, groupOf map[string]string, unitsOf map[string][]resource.ScheduleUnit) (*Scheduler, []Decision) {
		n := newTestScheduler(s.top, opts, legacy)
		apps := s.Apps()
		for _, app := range apps {
			if err := n.RegisterApp(app, groupOf[app], unitsOf[app]); err != nil {
				t.Fatalf("rebuild register %s: %v", app, err)
			}
		}
		for m := int32(0); m < int32(s.top.Size()); m++ {
			if s.Blacklisted(m) {
				n.SetBlacklisted(m, true)
			}
		}
		for _, app := range apps {
			for _, u := range s.Units(app) {
				granted := s.Granted(app, u.ID)
				machines := make([]string, 0, len(granted))
				for m := range granted {
					machines = append(machines, m)
				}
				sort.Strings(machines)
				for _, m := range machines {
					if id := s.top.MachineID(m); !s.Down(id) {
						restore(n, app, u.ID, id, granted[m])
					}
				}
			}
		}
		for m := int32(0); m < int32(s.top.Size()); m++ {
			if s.Down(m) {
				n.MachineDown(m)
			}
		}
		var ds []Decision
		for _, app := range apps {
			for _, u := range s.Units(app) {
				for _, h := range s.WaitingNodes(app, u.ID) {
					out, err := n.UpdateDemand(app, u.ID, []resource.LocalityHint{h})
					if err != nil {
						t.Fatalf("rebuild demand %s/%d: %v", app, u.ID, err)
					}
					ds = append(ds, out...)
				}
			}
		}
		return n, ds
	}

	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := newFleet()
		top := f.scheds[0].top
		machines := top.Machines()
		groupNames := []string{"", "gold", "bronze"}
		appNames := []string{"a", "b", "c", "d", "e", "f"}
		groupOf := map[string]string{}
		unitsOf := map[string][]resource.ScheduleUnit{}

		register := func(app string) {
			if f.scheds[0].Registered(app) {
				return
			}
			units := []resource.ScheduleUnit{
				{ID: 1, Priority: 50 + rng.Intn(200), MaxCount: 1 + rng.Intn(60),
					Size: resource.New(int64(500+rng.Intn(4)*500), int64(1024*(1+rng.Intn(8))))},
				{ID: 2, Priority: 50 + rng.Intn(200), MaxCount: 1 + rng.Intn(20),
					Size: resource.New(2000, 8192)},
			}
			g := groupNames[rng.Intn(len(groupNames))]
			groupOf[app], unitsOf[app] = g, units
			for _, s := range f.scheds {
				if err := s.RegisterApp(app, g, units); err != nil {
					t.Fatalf("seed %d: register: %v", seed, err)
				}
			}
		}
		for _, a := range appNames {
			register(a)
		}

		for step := 0; step < 250; step++ {
			app := appNames[rng.Intn(len(appNames))]
			unitID := 1 + rng.Intn(2)
			switch op := rng.Intn(14); {
			case op < 5: // demand change
				if !f.scheds[0].Registered(app) {
					register(app)
					break
				}
				var h resource.LocalityHint
				switch rng.Intn(3) {
				case 0:
					h = resource.LocalityHint{Type: resource.LocalityMachine,
						Node: int32(rng.Intn(len(machines))), Count: rng.Intn(13) - 2}
				case 1:
					h = resource.LocalityHint{Type: resource.LocalityRack,
						Node: int32(rng.Intn(top.NumRacks())), Count: rng.Intn(13) - 2}
				default:
					h = resource.LocalityHint{Type: resource.LocalityCluster, Count: rng.Intn(25) - 4}
				}
				f.compare(seed, step, "demand", f.each(func(s *Scheduler) []Decision {
					out, err := s.UpdateDemand(app, unitID, []resource.LocalityHint{h})
					if err != nil {
						t.Fatalf("seed %d step %d: demand: %v", seed, step, err)
					}
					return out
				}))
			case op < 8: // batched-round shape: release burst + wide sweep
				if !f.scheds[0].Registered(app) {
					break
				}
				granted := f.scheds[0].Granted(app, unitID)
				ms := make([]string, 0, len(granted))
				for m := range granted {
					ms = append(ms, m)
				}
				sort.Strings(ms)
				if len(ms) == 0 {
					break
				}
				// Release on a random prefix of the app's machines, then one
				// cluster-wide assignment sweep: freed capacity spread across
				// the racks, shared cluster-level waiters offered all of it.
				burst := 1 + rng.Intn(len(ms))
				counts := make([]int, burst)
				for i := 0; i < burst; i++ {
					counts[i] = 1 + rng.Intn(granted[ms[i]])
				}
				f.compare(seed, step, "round", f.each(func(s *Scheduler) []Decision {
					for i := 0; i < burst; i++ {
						if err := s.Release(app, unitID, ms[i], counts[i]); err != nil {
							t.Fatalf("seed %d step %d: release: %v", seed, step, err)
						}
					}
					return s.AssignOn(machines)
				}))
			case op < 10: // agent failover: machine down / up
				m := f.scheds[0].top.MachineID(machines[rng.Intn(len(machines))])
				if f.scheds[0].Down(m) {
					f.compare(seed, step, "machine-up", f.each(func(s *Scheduler) []Decision {
						return s.MachineUp(m)
					}))
				} else {
					f.compare(seed, step, "machine-down", f.each(func(s *Scheduler) []Decision {
						return s.MachineDown(m)
					}))
				}
			case op < 11: // blacklist toggle
				m := f.scheds[0].top.MachineID(machines[rng.Intn(len(machines))])
				black := !f.scheds[0].Blacklisted(m)
				_ = rng.Intn(2) // the draw of the deleted revoke flag: each seed keeps its op sequence
				f.compare(seed, step, "blacklist", f.each(func(s *Scheduler) []Decision {
					return s.SetBlacklisted(m, black)
				}))
			case op < 12: // master failover: promote fresh schedulers
				outs := make([][]Decision, len(f.scheds))
				for i := range f.scheds {
					f.scheds[i], outs[i] = rebuild(f.scheds[i], i == 0, groupOf, unitsOf)
				}
				f.compare(seed, step, "master-failover", outs)
			default: // app churn
				if f.scheds[0].Registered(app) && rng.Intn(3) == 0 {
					f.compare(seed, step, "unregister", f.each(func(s *Scheduler) []Decision {
						return s.UnregisterApp(app)
					}))
				} else {
					register(app)
				}
			}
			for i, s := range f.scheds {
				if bad := s.CheckInvariants(); len(bad) > 0 {
					t.Fatalf("seed %d step %d: %s invariants violated: %v", seed, step, f.names[i], bad)
				}
			}
		}
	}
}
