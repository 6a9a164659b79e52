package master

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/resource"
	"repro/internal/transport"
)

// registerSliced is RegisterApp as it stood before a one-unit app's unit
// moved inside its appState: the units always in a slice of their own, sorted
// by sort.Slice. Kept as the reference TestInlineUnitMatchesSlicedOracle
// drives the shipped registration against.
func registerSliced(s *Scheduler, app, group string, units []resource.ScheduleUnit) error {
	if _, dup := s.apps[app]; app == "" || dup {
		return fmt.Errorf("master: bad or duplicate app %q", app)
	}
	if group == "" {
		group = DefaultGroup
	}
	g, ok := s.groups[group]
	if !ok {
		return fmt.Errorf("master: unknown quota group %q", group)
	}
	st := &appState{name: app, group: group, quota: g, ep: transport.None}
	st.unitArr = make([]unitState, 0, len(units))
	for _, u := range units {
		if err := u.Validate(); err != nil {
			return err
		}
		st.unitArr = append(st.unitArr, unitState{def: u})
	}
	sort.Slice(st.unitArr, func(i, j int) bool { return st.unitArr[i].def.ID < st.unitArr[j].def.ID })
	for i := range st.unitArr {
		st.unitArr[i].idx = int32(i)
	}
	id := s.appIDs.Alloc()
	st.id = id
	s.apps[app] = st
	for int(id) >= len(s.appByID) {
		s.appByID = append(s.appByID, nil)
	}
	s.appByID[id] = st
	s.audit.growApps(len(s.appByID))
	return nil
}

// TestInlineUnitMatchesSlicedOracle runs one seeded job stream — register,
// demand at all three locality levels, grant, return, machine death and
// recovery, unregister, re-register under the old name — through two
// schedulers that differ only in where a registration puts the units: the
// shipped RegisterApp (a one-unit app's unit inside its appState, wider apps
// in a slice, sorted by slices.SortFunc) and registerSliced. Jobs are one,
// two or forty units wide, their IDs given out of order. Every decision,
// every ledger the inspection API shows, the audit and the checkpoint bytes
// written from Scheduler.Units must be identical.
func TestInlineUnitMatchesSlicedOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		top := testTop(t, 4, 5)
		machines, racks := top.Machines(), top.Racks()
		type side struct {
			s        *Scheduler
			ckpt     *CheckpointStore
			register func(s *Scheduler, app, group string, units []resource.ScheduleUnit) error
		}
		sides := [2]*side{
			{s: NewScheduler(top, Options{}), ckpt: NewCheckpointStore(), register: (*Scheduler).RegisterApp},
			{s: NewScheduler(top, Options{}), ckpt: NewCheckpointStore(), register: registerSliced},
		}
		rng := rand.New(rand.NewSource(seed))
		live := map[string][]int{} // app -> its unit IDs
		var names []string         // live apps, in registration order
		decisions, inlined := 0, 0
		both := func(op string, f func(*side) []Decision) {
			t.Helper()
			a, b := f(sides[0]), f(sides[1])
			decisions += len(a)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d %s: decisions differ\n inline %+v\n sliced %+v", seed, op, a, b)
			}
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(100); {
			case r < 12 && len(names) < 40:
				app := fmt.Sprintf("job-%03d", rng.Intn(60)) // names come round again after an unregister
				if live[app] != nil {
					continue
				}
				width := []int{1, 1, 1, 2, 40}[rng.Intn(5)]
				units := make([]resource.ScheduleUnit, width)
				ids := rng.Perm(width)
				for i := range units {
					units[i] = unit(ids[i]+1, 10+rng.Intn(3)*40, 1+rng.Intn(6), int64(500+500*rng.Intn(3)), 2048)
				}
				both("register "+app, func(sd *side) []Decision {
					if err := sd.register(sd.s, app, "", units); err != nil {
						t.Fatal(err)
					}
					sd.ckpt.SaveApp(AppConfig{Name: app, Group: DefaultGroup, Units: sd.s.Units(app)})
					return nil
				})
				live[app] = ids
				names = append(names, app)
				if st := sides[0].s.apps[app]; &st.unitArr[0] == &st.unit0[0] {
					inlined++
				}
			case len(names) == 0:
			case r < 55:
				app := names[rng.Intn(len(names))]
				unitID := live[app][rng.Intn(len(live[app]))] + 1
				var hints []resource.LocalityHint
				for n := 1 + rng.Intn(3); n > 0; n-- {
					h := resource.LocalityHint{Type: resource.LocalityType(rng.Intn(3)), Count: rng.Intn(6) - 1}
					switch h.Type {
					case resource.LocalityMachine:
						h.Node = int32(rng.Intn(len(machines)))
					case resource.LocalityRack:
						h.Node = int32(rng.Intn(len(racks)))
					}
					hints = append(hints, h)
				}
				both("demand "+app, func(sd *side) []Decision { return mustDemand(t, sd.s, app, unitID, hints...) })
			case r < 80:
				app := names[rng.Intn(len(names))]
				unitID := live[app][rng.Intn(len(live[app]))] + 1
				held := sides[0].s.Granted(app, unitID)
				if len(held) == 0 {
					continue
				}
				on := make([]string, 0, len(held))
				for m := range held {
					on = append(on, m)
				}
				sort.Strings(on)
				m := on[rng.Intn(len(on))]
				n := 1 + rng.Intn(held[m])
				both("return "+app, func(sd *side) []Decision {
					ds, err := sd.s.Return(app, unitID, m, n)
					if err != nil {
						t.Fatal(err)
					}
					return ds
				})
			case r < 86:
				m := machines[rng.Intn(len(machines))]
				if sides[0].s.Down(m) {
					both("up "+m, func(sd *side) []Decision { return sd.s.MachineUp(m) })
				} else {
					both("down "+m, func(sd *side) []Decision { return sd.s.MachineDown(m) })
				}
			default:
				i := rng.Intn(len(names))
				app := names[i]
				both("unregister "+app, func(sd *side) []Decision {
					sd.ckpt.RemoveApp(app)
					return sd.s.UnregisterApp(app)
				})
				delete(live, app)
				names = append(names[:i], names[i+1:]...)
			}
			if op%50 != 0 {
				continue
			}
			for _, app := range names {
				for _, id := range live[app] {
					a, b := sides[0].s, sides[1].s
					if !reflect.DeepEqual(a.Granted(app, id+1), b.Granted(app, id+1)) ||
						a.Held(app, id+1) != b.Held(app, id+1) || a.Waiting(app, id+1) != b.Waiting(app, id+1) {
						t.Fatalf("seed %d op %d: %s unit %d: ledgers differ", seed, op, app, id+1)
					}
				}
				if !reflect.DeepEqual(sides[0].s.Units(app), sides[1].s.Units(app)) {
					t.Fatalf("seed %d op %d: %s: unit definitions differ", seed, op, app)
				}
			}
			for _, sd := range sides {
				if bad := sd.s.CheckAllInvariants(); len(bad) > 0 {
					t.Fatalf("seed %d op %d: %v", seed, op, bad)
				}
			}
		}
		if decisions < 1000 || inlined < 20 {
			t.Fatalf("seed %d: %d decisions, %d apps registered inline: the stream missed its subject", seed, decisions, inlined)
		}
		a, b := sides[0].ckpt, sides[1].ckpt
		if !bytes.Equal(a.log, b.log) || !bytes.Equal(a.anchor, b.anchor) || a.Bytes() != b.Bytes() {
			t.Fatalf("seed %d: checkpoint bytes differ: %d bytes inline, %d sliced", seed, a.Bytes(), b.Bytes())
		}
		if !reflect.DeepEqual(a.Load(), b.Load()) {
			t.Fatalf("seed %d: checkpoints load differently", seed)
		}
	}
}
