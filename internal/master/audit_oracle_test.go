package master

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/resource"
	"repro/internal/topology"
)

// The full-walk audit the dirty-set audit replaced, kept as its reference:
// CheckInvariants exactly as it shipped — the whole index regrouped by unit
// with a counting sort, every app × unit × cell, every machine, every group —
// plus the two whole-ledger sums PlannedTotal and TotalCapacity used to be,
// now held against the running totals that replaced them. It reads the books
// and nothing of the audit's own state.

type unitCell struct{ machine, n int32 }

// oracleCellsByUnit regroups the whole index by unit: the cells of app a's
// i-th unit are byUnit[at[slot]:at[slot+1]] with slot = base[a.id]+i. Cells
// naming no registered app or unit are reported into bad and left out.
func oracleCellsByUnit(s *Scheduler, bad *[]string) (base, at []int32, byUnit []unitCell) {
	base = make([]int32, len(s.appByID))
	units := int32(0)
	for _, st := range s.apps {
		base[st.id] = units
		units += int32(len(st.unitArr))
	}
	known := func(c grantCell) bool {
		st := s.appStateByID(c.app)
		return st != nil && int(c.unit) < len(st.unitArr)
	}
	at = make([]int32, int(units)+1)
	for m, cells := range s.grants.cells {
		for _, c := range cells {
			if !known(c) {
				*bad = append(*bad, "index: machine "+s.top.MachineName(int32(m))+": cell of an unregistered app or unit")
				continue
			}
			at[base[c.app]+c.unit]++
		}
	}
	for i := int32(1); i <= units; i++ {
		at[i] += at[i-1] // the end of slot i's run; at[units] is the total
	}
	byUnit = make([]unitCell, int(at[units]))
	for m, cells := range s.grants.cells {
		for _, c := range cells {
			if known(c) {
				slot := base[c.app] + c.unit
				at[slot]-- // fill each run from its end, leaving at[slot] at its start
				byUnit[at[slot]] = unitCell{machine: int32(m), n: c.n}
			}
		}
	}
	return base, at, byUnit
}

func oracleCheckInvariants(s *Scheduler) []string {
	var bad []string
	vecs := make([]resource.Vector, int(s.nMach+s.nRack))
	used, rackSum := vecs[:s.nMach], vecs[s.nMach:]
	base, at, byUnit := oracleCellsByUnit(s, &bad)
	for name, st := range s.apps {
		for ui := range st.unitArr {
			u := &st.unitArr[ui]
			slot := base[st.id] + int32(ui)
			cells := byUnit[at[slot]:at[slot+1]]
			if len(cells) != u.granted.Len() {
				bad = append(bad, fmt.Sprintf("index: app %s unit %d: %d cells, ledger has %d machines",
					name, u.def.ID, len(cells), u.granted.Len()))
			}
			sum := 0
			for _, c := range cells {
				if holds := u.granted.Get(uint64(c.machine)); c.n <= 0 || holds != int(c.n) {
					bad = append(bad, fmt.Sprintf("index: machine %s app %s unit %d: index holds %d, ledger %d",
						s.top.MachineName(c.machine), name, u.def.ID, c.n, holds))
				}
				sum += int(c.n)
				(&used[c.machine]).AddScaledInPlace(u.def.Size, int64(c.n))
			}
			if sum != u.held {
				bad = append(bad, "app "+name+": unit held mismatch")
			}
			if u.held > u.def.MaxCount {
				bad = append(bad, "app "+name+": unit over MaxCount")
			}
		}
	}
	var sumFree resource.Vector
	for id := int32(0); id < s.nMach; id++ {
		rack := s.top.RackIDOf(id)
		(&rackSum[rack]).AddScaledInPlace(s.free[id], 1)
		(&sumFree).AddScaledInPlace(s.free[id], 1)
		if s.down[id] {
			continue
		}
		name := s.top.MachineName(id)
		cap := s.top.MachineByID(id).Capacity
		if !s.free[id].Add(used[id]).Equal(cap) {
			bad = append(bad, "machine "+name+": free+used != capacity: "+s.free[id].String()+" + "+used[id].String()+" != "+cap.String())
		}
		if s.free[id].CPUMilli() < 0 || s.free[id].MemoryMB() < 0 {
			bad = append(bad, "machine "+name+": negative physical free "+s.free[id].String())
		}
	}
	if !sumFree.Equal(s.totalFree) {
		bad = append(bad, "cluster aggregate free "+s.totalFree.String()+" != sum "+sumFree.String())
	}
	for rack := int32(0); rack < s.nRack; rack++ {
		if !rackSum[rack].Equal(s.rackFree[rack]) {
			bad = append(bad, "rack "+s.top.RackName(rack)+" aggregate free "+s.rackFree[rack].String()+" != sum "+rackSum[rack].String())
		}
	}
	// Group usage equals sum of member grants (membership was a name set; the
	// app's own group field says the same).
	for gname, g := range s.groups {
		var sum resource.Vector
		for _, st := range s.apps {
			if st.group != gname {
				continue
			}
			for ui := range st.unitArr {
				u := &st.unitArr[ui]
				(&sum).AddScaledInPlace(u.def.Size, int64(u.held))
			}
		}
		if !sum.Equal(g.usage) {
			bad = append(bad, "group "+gname+": usage mismatch "+g.usage.String()+" != "+sum.String())
		}
	}
	if sum := oraclePlannedTotal(s); !sum.Equal(s.planned) {
		bad = append(bad, "cluster planned total "+s.planned.String()+" != sum "+sum.String())
	}
	if sum := oracleTotalCapacity(s); !sum.Equal(s.upCap) {
		bad = append(bad, "cluster up capacity "+s.upCap.String()+" != sum "+sum.String())
	}
	return bad
}

// oracleTotalCapacity is TotalCapacity as a sum over the machines that are up.
func oracleTotalCapacity(s *Scheduler) resource.Vector {
	var t resource.Vector
	for id := int32(0); id < s.nMach; id++ {
		if !s.down[id] {
			t = t.Add(s.top.MachineByID(id).Capacity)
		}
	}
	return t
}

// oraclePlannedTotal is PlannedTotal as a sum over every unit of every app.
func oraclePlannedTotal(s *Scheduler) resource.Vector {
	var t resource.Vector
	for _, st := range s.apps {
		for i := range st.unitArr {
			u := &st.unitArr[i]
			t = t.Add(u.def.Size.Scale(int64(u.held)))
		}
	}
	return t
}

func sortedCopy(v []string) []string {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

// auditStream drives a scheduler through a seeded stream of everything that
// changes the books: register, demand (so grants), release, restore,
// preemption (the groups have minimums), blacklist, machine down/up, a
// virtual resource's capacity raised and lowered, unregister.
type auditStream struct {
	t        *testing.T
	rng      *rand.Rand
	s        *Scheduler
	top      *topology.Topology
	machines []string
	apps     []string
	live     map[string]bool
}

const auditVirtual = "Slots"

func newAuditStream(t *testing.T, seed int64) *auditStream {
	top, err := topology.Build(topology.Spec{
		Racks: 3, MachinesPerRack: 4,
		MachineCapacity: resource.New(12000, 96*1024).With(auditVirtual, 6),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := &auditStream{
		t: t, rng: rand.New(rand.NewSource(seed)), top: top, machines: top.Machines(), live: map[string]bool{},
		s: NewScheduler(top, Options{EnablePreemption: true, Groups: map[string]resource.Vector{
			"prod":  resource.New(40000, 300*1024),
			"batch": resource.New(20000, 150*1024),
		}}),
	}
	for i := 0; i < 24; i++ {
		st.apps = append(st.apps, fmt.Sprintf("app-%02d", (i*7)%24))
	}
	return st
}

func (a *auditStream) register(app string) {
	group := []string{"prod", "batch", ""}[a.rng.Intn(3)]
	units := []resource.ScheduleUnit{
		{ID: 7, Priority: 10 + a.rng.Intn(3), MaxCount: 30, Size: resource.New(250, 512)},
		{ID: 3, Priority: 20, MaxCount: 30, Size: resource.New(500, 1024).With(auditVirtual, 1)},
	}
	if err := a.s.RegisterApp(app, group, units); err != nil {
		a.t.Fatal(err)
	}
	a.live[app] = true
}

func (a *auditStream) step() {
	s, rng := a.s, a.rng
	app := a.apps[rng.Intn(len(a.apps))]
	unitID := []int{3, 7}[rng.Intn(2)]
	mi := int32(rng.Intn(len(a.machines)))
	m := a.machines[mi]
	if !a.live[app] {
		a.register(app)
		return
	}
	switch op := rng.Intn(16); {
	case op < 6: // demand: grants now or queued, preemption when a group is short
		h := resource.LocalityHint{Type: resource.LocalityCluster, Count: 1 + rng.Intn(12)}
		if rng.Intn(2) == 0 {
			h = resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(mi), Count: 1 + rng.Intn(3)}
		}
		if _, err := s.UpdateDemand(app, unitID, []resource.LocalityHint{h}); err != nil {
			a.t.Fatal(err)
		}
	case op < 9: // release part of a holding and reassign
		for gm, n := range s.Granted(app, unitID) {
			if _, err := giveBack(s, app, unitID, s.top.MachineID(gm), 1+rng.Intn(n)); err != nil {
				a.t.Fatal(err)
			}
			break
		}
	case op < 10: // restore (a recovering master replaying an agent report)
		if !s.Down(mi) && s.free[mi].FitCount(resource.New(500, 1024).With(auditVirtual, 1)) > 0 && s.Held(app, unitID) < 30 {
			restore(s, app, unitID, mi, 1)
		}
	case op < 11:
		s.UnregisterApp(app)
		a.live[app] = false
	case op < 12:
		s.SetBlacklisted(mi, !s.Blacklisted(mi))
		_ = rng.Intn(2) // the draw of the deleted revoke flag: each seed keeps its op sequence
	case op < 14:
		if s.Down(mi) {
			s.MachineUp(mi)
		} else {
			s.MachineDown(mi)
		}
	default: // capacity change, on machines up and down
		s.SetVirtualResource(m, auditVirtual, int64(2+rng.Intn(8)))
	}
}

// partialNext makes sure the next CheckInvariants is a plain dirty-set sweep:
// marks clear, and not the periodic full one.
func (a *auditStream) partialNext() {
	for a.s.audit.all || a.s.audit.sweeps%auditFullEvery == 0 {
		if bad := a.s.CheckInvariants(); len(bad) > 0 {
			a.t.Fatalf("clean stream reported %v", bad)
		}
	}
}

// entity is one thing the audit reads by mark — a machine, a unit: a
// fingerprint of its audited state, and whether it is in the dirty set.
type entity struct {
	state  string
	marked func() bool
}

// audited fingerprints everything the audit reads, entity by entity, so a test
// can tell which entities a step changed. Units are keyed by their appState:
// a name that unregisters and registers again is a new entity.
func (a *auditStream) audited() map[string]entity {
	s, out := a.s, map[string]entity{}
	for id := int32(0); id < s.nMach; id++ {
		cells := slices.Clone(s.grants.cells[id])
		slices.SortFunc(cells, func(x, y grantCell) int { return int(x.app-y.app)<<8 + int(x.unit-y.unit) })
		out[fmt.Sprint("machine ", id)] = entity{
			fmt.Sprint(s.free[id], s.down[id], s.top.MachineByID(id).Capacity, cells),
			func() bool { return s.audit.mach[id>>6]&(1<<(id&63)) != 0 }}
	}
	for _, st := range s.appByID {
		for ui := 0; st != nil && ui < len(st.unitArr); ui++ {
			u := &st.unitArr[ui]
			out[fmt.Sprintf("unit %p/%d", st, ui)] = entity{
				fmt.Sprint(u.held, u.granted.Cells()),
				func() bool { return u.dirty && s.audit.apps[st.id>>6]&(1<<(st.id&63)) != 0 }}
		}
	}
	return out
}

// TestDirtySetAuditMatchesFullWalk: over a clean stream both audits stay
// silent whenever either is asked, however many steps pass between sweeps,
// a sweep over everything agrees with the full walk, and — the half of the
// contract no clean audit can show — every entity a step changed carries a
// mark until the next sweep.
func TestDirtySetAuditMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		a := newAuditStream(t, seed)
		partial := 0
		atSweep := a.audited()
		for step := 0; step < 1500; step++ {
			a.step()
			if !a.s.audit.all {
				for key, now := range a.audited() {
					was, had := atSweep[key]
					if !had && now.state == "0 []" {
						continue // a unit registered since: nothing held, nothing to audit yet
					}
					if was.state != now.state && !now.marked() {
						t.Fatalf("seed %d step %d: %s changed since the last sweep (%s -> %s) and is not marked", seed, step, key, was.state, now.state)
					}
				}
			}
			if a.rng.Intn(3) > 0 {
				continue // let marks pile up across several steps
			}
			if want := oracleCheckInvariants(a.s); len(want) > 0 {
				t.Fatalf("seed %d step %d: the full walk reports %v on a clean stream", seed, step, want)
			}
			if !a.s.audit.all && a.s.audit.sweeps%auditFullEvery != 0 {
				partial++
			}
			got := a.s.CheckInvariants()
			if a.rng.Intn(8) == 0 {
				got = append(got, a.s.CheckAllInvariants()...)
			}
			if len(got) > 0 {
				t.Fatalf("seed %d step %d: dirty-set audit reports %v, the full walk nothing", seed, step, got)
			}
			atSweep = a.audited()
		}
		if partial < 300 {
			t.Fatalf("seed %d: only %d plain sweeps: the stream is not exercising the dirty set", seed, partial)
		}
	}
}

// TestDirtySetAuditReportsWhatTheFullWalkReports injects one corruption of
// every violation class into an entity the stream has just touched, and
// expects the next plain sweep to return exactly the full walk's strings; the
// same corruption behind an untouched entity stays invisible to a plain
// sweep (that is the contract) and a sweep over everything returns the full
// walk's strings either way.
func TestDirtySetAuditReportsWhatTheFullWalkReports(t *testing.T) {
	// Each corruption is handed a unit holding two or more containers on a
	// machine that is up, the app, and the group they are charged to.
	type target struct {
		st      *appState
		u       *unitState
		machine int32
	}
	add := func(v *resource.Vector) { v.AddScaledInPlace(resource.New(250, 512), 1) }
	cell := func(s *Scheduler, tg target) *grantCell {
		cells := s.grants.cells[tg.machine]
		for i := range cells {
			if cells[i].app == tg.st.id && cells[i].unit == tg.u.idx {
				return &cells[i]
			}
		}
		return nil
	}
	// global marks the aggregates a plain sweep holds against their
	// neighbours every time: they have no entity to hide behind.
	cases := []struct {
		name    string
		global  bool
		corrupt func(s *Scheduler, tg target)
	}{
		{"index cell count", false, func(s *Scheduler, tg target) { cell(s, tg).n++ }},
		{"index cell dropped", false, func(s *Scheduler, tg target) {
			cells := s.grants.cells[tg.machine]
			*cell(s, tg) = cells[len(cells)-1]
			s.grants.cells[tg.machine] = cells[:len(cells)-1]
		}},
		{"index cell of a unit the ledger does not have there", false, func(s *Scheduler, tg target) {
			other := &tg.st.unitArr[1-tg.u.idx]
			if other.granted.Get(uint64(tg.machine)) == 0 {
				s.grants.add(tg.machine, tg.st.id, other.idx, 2, true)
			} else {
				cell(s, target{tg.st, other, tg.machine}).n = 0
			}
		}},
		{"index cell of no app", false, func(s *Scheduler, tg target) { s.grants.add(tg.machine, 9999, 0, 1, true) }},
		{"ledger count", false, func(s *Scheduler, tg target) { *tg.u.granted.Put(uint64(tg.machine)) += 2 }},
		{"held", false, func(s *Scheduler, tg target) { tg.u.held++ }},
		{"MaxCount", false, func(s *Scheduler, tg target) { tg.u.def.MaxCount = tg.u.held - 1 }},
		{"free", false, func(s *Scheduler, tg target) { add(&s.free[tg.machine]) }},
		{"negative free", false, func(s *Scheduler, tg target) { s.free[tg.machine].AddScaledInPlace(resource.New(1<<20, 0), -1) }},
		{"rackFree", true, func(s *Scheduler, tg target) { add(&s.rackFree[s.top.RackIDOf(tg.machine)]) }},
		{"totalFree", true, func(s *Scheduler, tg target) { add(&s.totalFree) }},
		{"group usage", true, func(s *Scheduler, tg target) { add(&tg.st.quota.usage) }},
		{"planned total", true, func(s *Scheduler, tg target) { add(&s.planned) }},
		{"up-capacity total", true, func(s *Scheduler, tg target) { add(&s.upCap) }},
	}
	for ci, tc := range cases {
		for _, touched := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/touched=%v", tc.name, touched), func(t *testing.T) {
				a := newAuditStream(t, int64(100+ci))
				for step := 0; step < 400; step++ {
					a.step()
				}
				s := a.s
				var tg target
				for tries := 0; tg.st == nil; tries++ {
					if tries == 2000 {
						t.Fatal("the stream never leaves a unit holding two containers on an up machine")
					}
					a.step()
					for _, st := range s.appByID {
						for ui := 0; st != nil && ui < len(st.unitArr); ui++ {
							for _, row := range st.unitArr[ui].granted.Cells() {
								if row.Val >= 2 && !s.down[row.Key] {
									tg = target{st, &st.unitArr[ui], int32(row.Key)}
								}
							}
						}
					}
				}
				a.partialNext()
				if touched {
					// One real release marks the unit, the machine and the group.
					if err := s.Release(tg.st.name, tg.u.def.ID, s.top.MachineName(tg.machine), 1); err != nil {
						t.Fatal(err)
					}
				}
				tc.corrupt(s, tg)
				want := sortedCopy(oracleCheckInvariants(s))
				if len(want) == 0 {
					t.Fatal("the full walk does not see the corruption")
				}
				got := sortedCopy(s.CheckInvariants())
				switch {
				case touched || tc.global:
					if !reflect.DeepEqual(got, want) {
						t.Errorf("plain sweep after touching the entity:\n got %q\nwant %q", got, want)
					}
				case len(got) != 0:
					t.Errorf("plain sweep reports %q for an entity nothing touched", got)
				}
				if all := sortedCopy(s.CheckAllInvariants()); !reflect.DeepEqual(all, want) {
					t.Errorf("sweep over everything:\n got %q\nwant %q", all, want)
				}
			})
		}
	}
}

// TestUntouchedCorruptionSurfacesWithinSixteenSweeps: what no mark announced
// is found by the periodic full sweep, a constant number of calls away.
func TestUntouchedCorruptionSurfacesWithinSixteenSweeps(t *testing.T) {
	a := newAuditStream(t, 7)
	for step := 0; step < 300; step++ {
		a.step()
	}
	a.partialNext()
	a.s.free[0].AddScaledInPlace(resource.New(1, 1), 1)
	for sweep := 1; sweep <= auditFullEvery; sweep++ {
		if bad := a.s.CheckInvariants(); len(bad) > 0 {
			return
		}
	}
	t.Errorf("%d sweeps never audited an unmarked machine", auditFullEvery)
}

// TestAuditAllocatesNothing: neither a plain sweep over fresh marks nor a
// sweep over everything leaves garbage behind.
func TestAuditAllocatesNothing(t *testing.T) {
	s := NewScheduler(testTop(t, 3, 4), Options{})
	for _, app := range []string{"a", "b", "c"} {
		mustRegister(t, s, app, "", unit(1, 10, 40, 250, 512), unit(2, 20, 40, 500, 1024))
		mustDemand(t, s, app, 1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 30})
		mustDemand(t, s, app, 2, resource.LocalityHint{Type: resource.LocalityCluster, Count: 30})
	}
	if bad := s.CheckAllInvariants(); len(bad) > 0 {
		t.Fatal(bad)
	}
	machine := ""
	for m := range s.Granted("b", 1) {
		machine = m
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := s.Release("b", 1, machine, 1); err != nil {
			t.Fatal(err)
		}
		restore(s, "b", 1, s.top.MachineID(machine), 1)
		if bad := s.CheckInvariants(); len(bad) > 0 {
			t.Fatal(bad)
		}
	}); n != 0 {
		t.Errorf("touch + sweep allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { s.CheckAllInvariants() }); n != 0 {
		t.Errorf("a sweep over everything allocates %v times, want 0", n)
	}
}
