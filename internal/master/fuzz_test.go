package master

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/resource"
)

// TestSchedulerInvariantsUnderRandomOps drives the scheduler with random
// operation sequences — demand changes, returns, machine failures and
// recoveries, blacklisting, app churn — and checks the accounting
// invariants after every step. This is the property the whole resource
// layer rests on: free + granted == capacity on every machine, held counts
// consistent, quota usage exact.
func TestSchedulerInvariantsUnderRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		top := testTop(t, 3, 4)
		s := NewScheduler(top, Options{
			EnablePreemption: true,
			Groups: map[string]resource.Vector{
				"gold":   resource.New(24_000, 192*1024),
				"bronze": resource.New(12_000, 96*1024),
			},
		})
		machines := top.Machines()
		groups := []string{"", "gold", "bronze"}
		apps := []string{"a", "b", "c", "d"}
		registered := map[string]bool{}

		register := func(app string) {
			if registered[app] {
				return
			}
			units := []resource.ScheduleUnit{
				{ID: 1, Priority: 50 + rng.Intn(200), MaxCount: 1 + rng.Intn(40),
					Size: resource.New(int64(500+rng.Intn(4)*500), int64(1024*(1+rng.Intn(8))))},
				{ID: 2, Priority: 50 + rng.Intn(200), MaxCount: 1 + rng.Intn(10),
					Size: resource.New(2000, 8192)},
			}
			if err := s.RegisterApp(app, groups[rng.Intn(len(groups))], units); err != nil {
				t.Fatalf("seed %d: register: %v", seed, err)
			}
			registered[app] = true
		}
		for _, a := range apps {
			register(a)
		}

		for step := 0; step < 400; step++ {
			app := apps[rng.Intn(len(apps))]
			unitID := 1 + rng.Intn(2)
			switch op := rng.Intn(10); {
			case op < 4: // demand change
				if !registered[app] {
					register(app)
					break
				}
				var h resource.LocalityHint
				switch rng.Intn(3) {
				case 0:
					h = resource.LocalityHint{Type: resource.LocalityMachine,
						Node: int32(rng.Intn(len(machines))), Count: rng.Intn(9) - 2}
				case 1:
					h = resource.LocalityHint{Type: resource.LocalityRack,
						Node: int32(rng.Intn(top.NumRacks())), Count: rng.Intn(9) - 2}
				default:
					h = resource.LocalityHint{Type: resource.LocalityCluster, Count: rng.Intn(17) - 4}
				}
				if _, err := s.UpdateDemand(app, unitID, []resource.LocalityHint{h}); err != nil {
					t.Fatalf("seed %d step %d: demand: %v", seed, step, err)
				}
			case op < 6: // return something held
				if !registered[app] {
					break
				}
				granted := s.Granted(app, unitID)
				for m, n := range granted {
					k := 1 + rng.Intn(n)
					if _, err := s.Return(app, unitID, m, k); err != nil {
						t.Fatalf("seed %d step %d: return: %v", seed, step, err)
					}
					break
				}
			case op < 7: // machine down/up
				m := machines[rng.Intn(len(machines))]
				if s.Down(m) {
					s.MachineUp(m)
				} else {
					s.MachineDown(m)
				}
			case op < 8: // blacklist toggle
				m := machines[rng.Intn(len(machines))]
				s.SetBlacklisted(m, !s.Blacklisted(m), rng.Intn(2) == 0)
			default: // app churn
				if registered[app] && rng.Intn(3) == 0 {
					s.UnregisterApp(app)
					registered[app] = false
				} else {
					register(app)
				}
			}
			if bad := s.CheckInvariants(); len(bad) > 0 {
				t.Fatalf("seed %d step %d: invariants violated: %v", seed, step, bad)
			}
		}
	}
}

// TestLegacyParityUnderFailovers is the locality-tree parity fuzz extended
// with fault injection: the optimized (size-class-indexed) and legacy
// (linear-scan) trees are driven in lockstep through random submit, demand,
// grant and return traffic — and through agent failovers (machine down/up)
// and full master failovers, where each scheduler is torn down and rebuilt
// the way a promoted hot standby rebuilds soft state (hard state from the
// checkpoint, grants from agent reports, demand from app full syncs). Every
// decision stream must stay bit-identical and every accounting invariant
// must hold on both sides after every step.
func TestLegacyParityUnderFailovers(t *testing.T) {
	groups := map[string]resource.Vector{
		"gold":   resource.New(24_000, 192*1024),
		"bronze": resource.New(12_000, 96*1024),
	}
	newPair := func() [2]*Scheduler {
		return [2]*Scheduler{
			NewScheduler(testTop(t, 3, 4), Options{EnablePreemption: true, Groups: groups}),
			newTestScheduler(testTop(t, 3, 4), Options{EnablePreemption: true, Groups: groups}, true),
		}
	}
	// rebuild promotes a fresh scheduler over s's cluster the way a hot
	// standby does, returning it and the decisions its soft-state replay
	// produced (demand re-adds may grant immediately).
	rebuild := func(s *Scheduler, legacy bool, groupOf map[string]string, unitsOf map[string][]resource.ScheduleUnit) (*Scheduler, []Decision) {
		n := newTestScheduler(s.top, Options{EnablePreemption: true, Groups: groups}, legacy)
		apps := s.Apps()
		// Hard state: app configurations and the blacklist.
		for _, app := range apps {
			if err := n.RegisterApp(app, groupOf[app], unitsOf[app]); err != nil {
				t.Fatalf("rebuild register %s: %v", app, err)
			}
		}
		for _, m := range s.top.Machines() {
			if s.Blacklisted(m) {
				n.SetBlacklisted(m, true, false)
			}
		}
		// Soft state from agents: live machines re-report allocations; dead
		// machines report nothing and trip the heartbeat timeout.
		for _, app := range apps {
			for _, u := range s.Units(app) {
				granted := s.Granted(app, u.ID)
				machines := make([]string, 0, len(granted))
				for m := range granted {
					machines = append(machines, m)
				}
				sort.Strings(machines)
				for _, m := range machines {
					if !s.Down(m) {
						n.RestoreGrant(app, u.ID, m, granted[m])
					}
				}
			}
		}
		for _, m := range s.top.Machines() {
			if s.Down(m) {
				n.MachineDown(m)
			}
		}
		// Soft state from application masters: waiting demand, re-added in
		// a deterministic order (WaitingNodes lists it in (level, node)
		// order, as a full sync does).
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
	compare := func(seed int64, step int, op string, a, b []Decision) {
		if len(a) != len(b) {
			t.Fatalf("seed %d step %d (%s): decision counts diverge: %d vs %d\n%v\n%v",
				seed, step, op, len(a), len(b), a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d step %d (%s): decision %d diverges: %+v vs %+v",
					seed, step, op, i, a[i], b[i])
			}
		}
	}

	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pair := newPair()
		top := pair[0].top
		machines := top.Machines()
		groupNames := []string{"", "gold", "bronze"}
		appNames := []string{"a", "b", "c", "d"}
		groupOf := map[string]string{}
		unitsOf := map[string][]resource.ScheduleUnit{}

		register := func(app string) {
			if pair[0].Registered(app) {
				return
			}
			units := []resource.ScheduleUnit{
				{ID: 1, Priority: 50 + rng.Intn(200), MaxCount: 1 + rng.Intn(40),
					Size: resource.New(int64(500+rng.Intn(4)*500), int64(1024*(1+rng.Intn(8))))},
				{ID: 2, Priority: 50 + rng.Intn(200), MaxCount: 1 + rng.Intn(10),
					Size: resource.New(2000, 8192)},
			}
			g := groupNames[rng.Intn(len(groupNames))]
			groupOf[app], unitsOf[app] = g, units
			for _, s := range pair {
				if err := s.RegisterApp(app, g, units); err != nil {
					t.Fatalf("seed %d: register: %v", seed, err)
				}
			}
		}
		for _, a := range appNames {
			register(a)
		}

		for step := 0; step < 300; step++ {
			app := appNames[rng.Intn(len(appNames))]
			unitID := 1 + rng.Intn(2)
			switch op := rng.Intn(12); {
			case op < 4: // demand change
				if !pair[0].Registered(app) {
					register(app)
					break
				}
				var h resource.LocalityHint
				switch rng.Intn(3) {
				case 0:
					h = resource.LocalityHint{Type: resource.LocalityMachine,
						Node: int32(rng.Intn(len(machines))), Count: rng.Intn(9) - 2}
				case 1:
					h = resource.LocalityHint{Type: resource.LocalityRack,
						Node: int32(rng.Intn(top.NumRacks())), Count: rng.Intn(9) - 2}
				default:
					h = resource.LocalityHint{Type: resource.LocalityCluster, Count: rng.Intn(17) - 4}
				}
				a0, err0 := pair[0].UpdateDemand(app, unitID, []resource.LocalityHint{h})
				a1, err1 := pair[1].UpdateDemand(app, unitID, []resource.LocalityHint{h})
				if err0 != nil || err1 != nil {
					t.Fatalf("seed %d step %d: demand: %v / %v", seed, step, err0, err1)
				}
				compare(seed, step, "demand", a0, a1)
			case op < 6: // return something held
				if !pair[0].Registered(app) {
					break
				}
				granted := pair[0].Granted(app, unitID)
				ms := make([]string, 0, len(granted))
				for m := range granted {
					ms = append(ms, m)
				}
				sort.Strings(ms)
				if len(ms) == 0 {
					break
				}
				m := ms[rng.Intn(len(ms))]
				k := 1 + rng.Intn(granted[m])
				a0, err0 := pair[0].Return(app, unitID, m, k)
				a1, err1 := pair[1].Return(app, unitID, m, k)
				if err0 != nil || err1 != nil {
					t.Fatalf("seed %d step %d: return: %v / %v", seed, step, err0, err1)
				}
				compare(seed, step, "return", a0, a1)
			case op < 8: // agent failover: machine down / up
				m := machines[rng.Intn(len(machines))]
				if pair[0].Down(m) {
					compare(seed, step, "machine-up", pair[0].MachineUp(m), pair[1].MachineUp(m))
				} else {
					compare(seed, step, "machine-down", pair[0].MachineDown(m), pair[1].MachineDown(m))
				}
			case op < 9: // blacklist toggle
				m := machines[rng.Intn(len(machines))]
				black := !pair[0].Blacklisted(m)
				revoke := rng.Intn(2) == 0
				compare(seed, step, "blacklist",
					pair[0].SetBlacklisted(m, black, revoke), pair[1].SetBlacklisted(m, black, revoke))
			case op < 10: // master failover: promote fresh schedulers
				var d0, d1 []Decision
				pair[0], d0 = rebuild(pair[0], false, groupOf, unitsOf)
				pair[1], d1 = rebuild(pair[1], true, groupOf, unitsOf)
				compare(seed, step, "master-failover", d0, d1)
			default: // app churn
				if pair[0].Registered(app) && rng.Intn(3) == 0 {
					compare(seed, step, "unregister",
						pair[0].UnregisterApp(app), pair[1].UnregisterApp(app))
				} else {
					register(app)
				}
			}
			for i, s := range pair {
				if bad := s.CheckInvariants(); len(bad) > 0 {
					t.Fatalf("seed %d step %d: scheduler %d invariants violated: %v", seed, step, i, bad)
				}
			}
		}
	}
}

// TestSchedulerDeterministic re-runs an identical operation sequence and
// requires bit-identical decision streams — the reproducibility guarantee
// every experiment in this repo rests on.
func TestSchedulerDeterministic(t *testing.T) {
	run := func() []Decision {
		rng := rand.New(rand.NewSource(99))
		top := testTop(t, 2, 5)
		s := NewScheduler(top, Options{EnablePreemption: true})
		var log []Decision
		for _, app := range []string{"a", "b", "c"} {
			mustRegister(t, s, app, "", unit(1, 50+rng.Intn(100), 20, 1000, 4096))
		}
		machines := top.Machines()
		for step := 0; step < 200; step++ {
			app := []string{"a", "b", "c"}[rng.Intn(3)]
			switch rng.Intn(3) {
			case 0:
				ds, err := s.UpdateDemand(app, 1, []resource.LocalityHint{
					{Type: resource.LocalityCluster, Count: rng.Intn(7) - 2}})
				if err != nil {
					t.Fatal(err)
				}
				log = append(log, ds...)
			case 1:
				granted := s.Granted(app, 1)
				ms := make([]string, 0, len(granted))
				for m := range granted {
					ms = append(ms, m)
				}
				sort.Strings(ms)
				if len(ms) > 0 {
					m := ms[rng.Intn(len(ms))]
					ds, err := s.Return(app, 1, m, 1+rng.Intn(granted[m]))
					if err != nil {
						t.Fatal(err)
					}
					log = append(log, ds...)
				}
			default:
				m := machines[rng.Intn(len(machines))]
				if s.Down(m) {
					log = append(log, s.MachineUp(m)...)
				} else {
					log = append(log, s.MachineDown(m)...)
				}
			}
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("decision counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSchedulerDrainToEmpty checks that after unregistering everything and
// recovering all machines, the scheduler returns to its pristine state.
func TestSchedulerDrainToEmpty(t *testing.T) {
	top := testTop(t, 2, 3)
	s := NewScheduler(top, Options{})
	for _, app := range []string{"x", "y", "z"} {
		mustRegister(t, s, app, "", unit(1, 100, 30, 1000, 2048))
		mustDemand(t, s, app, 1, clusterHint(30))
	}
	s.MachineDown(top.Machines()[0])
	s.MachineUp(top.Machines()[0])
	for _, app := range []string{"x", "y", "z"} {
		s.UnregisterApp(app)
	}
	if !s.TotalFree().Equal(s.TotalCapacity()) {
		t.Errorf("free %v != capacity %v after drain", s.TotalFree(), s.TotalCapacity())
	}
	if !s.PlannedTotal().IsZero() {
		t.Errorf("planned %v after drain", s.PlannedTotal())
	}
	checkInv(t, s)
}
