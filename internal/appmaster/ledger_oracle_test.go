package appmaster

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dense"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// mapLedgers is the application master's container ledger and demand view as
// they were before they became per-unit compact tables: one value map keyed by
// packed (unit, machine), and a map of maps keyed by the locality target as a
// (level, node) struct. It is kept as the reference the differential test below drives the
// shipped AM against; the protocol around it (return and demand coalescing,
// the grant stream's dedup and epoch fence, the gap-triggered early sync) is
// the AM's, mirrored here so the reference is asked the same questions at the
// same time.
type mapLedgers struct {
	app   string
	units []resource.ScheduleUnit
	top   *topology.Topology

	outstanding map[int]map[locTarget]int
	held        map[heldKey]int

	seq           protocol.Sequencer
	dedup         protocol.Dedup
	gate          protocol.EpochGate
	pendRet       []protocol.ReturnEntry
	pendDem       []protocol.UnitHint // the instant's hints, in call order
	nextGrantSync sim.Time

	sent   []transport.Message // what the AM should have sent to the master
	events []string            // the callbacks it should have fired
}

type locTarget struct {
	typ  resource.LocalityType
	node int32
}

type heldKey uint64

func makeHeldKey(unitID int, machine int32) heldKey {
	return heldKey(uint64(uint32(unitID))<<32 | uint64(uint32(machine)))
}

func (k heldKey) unitID() int    { return int(int32(uint32(k >> 32))) }
func (k heldKey) machine() int32 { return int32(uint32(k)) }

func (o *mapLedgers) known(unitID int) bool {
	for _, u := range o.units {
		if u.ID == unitID {
			return true
		}
	}
	return false
}

// flush sends the instant's returns and demand in one update.
func (o *mapLedgers) flush() {
	if len(o.pendRet) > 0 || len(o.pendDem) > 0 {
		o.sent = append(o.sent, protocol.DemandUpdate{App: o.app, Returns: o.pendRet, Deltas: o.pendDem, Seq: o.seq.Next()})
		o.pendRet, o.pendDem = nil, nil
	}
}

// unregister is the old AM.Unregister, as far as the master hears it: the
// instant's unsent returns and demand are dropped.
func (o *mapLedgers) unregister() {
	o.pendRet, o.pendDem = nil, nil
	o.sent = append(o.sent, protocol.UnregisterApp{App: o.app, Seq: o.seq.Next()})
}

// request is the old AM.Request, its update joining the instant's.
func (o *mapLedgers) request(unitID int, hints ...resource.LocalityHint) {
	if !o.known(unitID) {
		return
	}
	out := o.outstanding[unitID]
	if out == nil {
		if o.outstanding == nil {
			o.outstanding = make(map[int]map[locTarget]int)
		}
		out = make(map[locTarget]int)
		o.outstanding[unitID] = out
	}
	clean := true
	for _, h := range hints {
		if h.Count <= 0 {
			clean = false
			break
		}
	}
	deltas := hints
	if clean {
		for _, h := range hints {
			out[locTarget{h.Type, h.Node}] += h.Count
		}
		if len(deltas) == 0 {
			return
		}
	} else {
		var valid []resource.LocalityHint
		for _, h := range hints {
			if h.Count == 0 {
				continue
			}
			k := locTarget{h.Type, h.Node}
			n := out[k] + h.Count
			if n < 0 {
				h.Count -= n
				n = 0
			}
			if h.Count == 0 {
				continue
			}
			out[k] = n
			valid = append(valid, h)
		}
		if len(valid) == 0 {
			return
		}
		deltas = valid
	}
	for _, h := range deltas {
		o.pendDem = append(o.pendDem, protocol.UnitHint{UnitID: unitID, LocalityHint: h})
	}
}

// returnContainers is the old AM.ReturnContainers.
func (o *mapLedgers) returnContainers(unitID int, machine int32, count int) {
	k := makeHeldKey(unitID, machine)
	held := o.held[k]
	if count <= 0 || held < count {
		return
	}
	if held == count {
		delete(o.held, k)
	} else {
		o.held[k] = held - count
	}
	o.pendRet = append(o.pendRet, protocol.ReturnEntry{UnitID: unitID, Machine: machine, Count: count})
}

// grantUpdate is the old GrantUpdate case of AM.handle with applyGrant and
// consumeOutstanding (the one-at-a-time decrement loop included), taking a
// multi-unit update entry by entry, however its units are grouped.
func (o *mapLedgers) grantUpdate(now sim.Time, from transport.EndpointID, t protocol.GrantUpdate) {
	for _, ch := range t.Changes {
		if ch.Delta == 0 || ch.Machine < 0 || int(ch.Machine) >= o.top.Size() {
			return // malformed: dropped whole
		}
	}
	if o.gate.StaleCh(t.Epoch, &o.dedup, int32(from), protocol.ChanGrant) {
		return
	}
	v := o.dedup.ObserveCh(int32(from), protocol.ChanGrant, t.Seq)
	if v == protocol.Duplicate {
		return
	}
	for _, ch := range t.Changes {
		if !o.known(ch.UnitID) {
			continue
		}
		if ch.Delta > 0 {
			if o.held == nil {
				o.held = make(map[heldKey]int)
			}
			o.held[makeHeldKey(ch.UnitID, ch.Machine)] += ch.Delta
			out, count := o.outstanding[ch.UnitID], ch.Delta
			take := func(k locTarget) {
				for count > 0 && out[k] > 0 {
					out[k]--
					count--
				}
				if out[k] == 0 {
					delete(out, k)
				}
			}
			take(locTarget{resource.LocalityMachine, ch.Machine})
			take(locTarget{resource.LocalityRack, o.top.RackIDOf(ch.Machine)})
			take(locTarget{resource.LocalityCluster, 0})
			o.events = append(o.events, fmt.Sprintf("grant u%d m%d x%d", ch.UnitID, ch.Machine, ch.Delta))
		} else if ch.Delta < 0 {
			k := makeHeldKey(ch.UnitID, ch.Machine)
			n := -ch.Delta
			if held := o.held[k]; held < n {
				n = held
			}
			if n == 0 {
				continue
			}
			if o.held[k] == n {
				delete(o.held, k)
			} else {
				o.held[k] -= n
			}
			o.events = append(o.events, fmt.Sprintf("revoke u%d m%d x%d", ch.UnitID, ch.Machine, n))
		}
	}
	if v == protocol.Gap && now >= o.nextGrantSync {
		o.nextGrantSync = now + grantSyncMin
		o.fullSync(from)
	}
}

func (o *mapLedgers) hello(from transport.EndpointID, t protocol.MasterHello) {
	if o.gate.StaleCh(t.Epoch, &o.dedup, int32(from), protocol.ChanGrant) {
		return
	}
	o.sent = append(o.sent, protocol.RegisterApp{App: o.app, Units: o.units, Seq: o.seq.Next()})
	o.fullSync(from)
}

// fullSync is the old AM.fullSync, writing the flat wire shape from the maps:
// the maps' keys sorted by unit, then (level, node) or machine.
func (o *mapLedgers) fullSync(master transport.EndpointID) {
	o.flush()
	var demand []protocol.UnitHint
	for unitID, out := range o.outstanding {
		for k, c := range out {
			if c > 0 {
				demand = append(demand, protocol.UnitHint{UnitID: unitID,
					LocalityHint: resource.LocalityHint{Type: k.typ, Node: k.node, Count: c}})
			}
		}
	}
	sort.Slice(demand, func(i, j int) bool {
		a, b := demand[i], demand[j]
		if a.UnitID != b.UnitID {
			return a.UnitID < b.UnitID
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return a.Node < b.Node
	})
	var held []protocol.SyncHeld
	for k, c := range o.held {
		held = append(held, protocol.SyncHeld{UnitID: k.unitID(), Machine: k.machine(), Count: c})
	}
	sort.Slice(held, func(i, j int) bool {
		if held[i].UnitID != held[j].UnitID {
			return held[i].UnitID < held[j].UnitID
		}
		return held[i].Machine < held[j].Machine
	})
	o.sent = append(o.sent, protocol.FullDemandSync{
		App: o.app, Units: o.units, Demand: demand, Held: held, Seq: o.seq.Current(),
		SeenGrantSeq: o.dedup.LastCh(int32(master), protocol.ChanGrant),
	})
}

// normalize rewrites a captured or predicted message into the form the two
// sides are compared in: a full sync's or an update's empty payloads as nil,
// whether the recorded copy came out of a recycled message (empty, with
// capacity) or the reference never appended (nil). FuxiMaster reads the two
// identically.
func normalize(m transport.Message) transport.Message {
	switch t := m.(type) {
	case protocol.FullDemandSync:
		t.Demand, t.Held = nilIfEmpty(t.Demand), nilIfEmpty(t.Held)
		return t
	case protocol.DemandUpdate:
		t.Returns, t.Deltas = nilIfEmpty(t.Returns), nilIfEmpty(t.Deltas)
		return t
	}
	return m
}

func nilIfEmpty[E any](s []E) []E {
	if len(s) == 0 {
		return nil
	}
	return s
}

// TestLedgersMatchMapOracle drives the shipped AM and the map-based ledgers it
// replaced with the same seeded stream — demand stated and withdrawn at
// machine, rack and cluster level (nodes of the topology and IDs past its
// range, which the AM books like any other, withdrawals past zero, repeated targets in one call), grants and
// revocations (in order, duplicated, after a gap, from stale and newer
// epochs, revoking more than is held, several units in one update, units the
// job never defined, malformed updates), container returns (valid, too large,
// on machines holding nothing), master hellos and periodic full syncs — and
// compares every message the AM sends FuxiMaster (DemandUpdate,
// FullDemandSync, RegisterApp; payloads, sequence numbers and order), every callback it fires, and every accessor after every step,
// down to the unregister that ends the job with returns still pending. The
// job is one, two, three or forty units wide: the one-unit job books in the
// slot inside the AM, the others in the slice, and the oracle knows no
// difference.
func TestLedgersMatchMapOracle(t *testing.T) {
	wide := make([]resource.ScheduleUnit, 40)
	for i := range wide {
		wide[i] = resource.ScheduleUnit{ID: i + 1, Priority: 100, MaxCount: 50, Size: resource.New(250, 512)}
	}
	for _, units := range [][]resource.ScheduleUnit{
		{{ID: 1, Priority: 100, MaxCount: 50, Size: resource.New(1000, 2048)}},
		{{ID: 1, Priority: 100, MaxCount: 50, Size: resource.New(1000, 2048)},
			{ID: 2, Priority: 100, MaxCount: 50, Size: resource.New(500, 1024)}},
		{{ID: 1, Priority: 100, MaxCount: 50, Size: resource.New(1000, 2048)},
			{ID: 2, Priority: 100, MaxCount: 50, Size: resource.New(500, 1024)},
			{ID: 7, Priority: 50, MaxCount: 50, Size: resource.New(250, 512)}}, // not at position ID-1
		wide,
	} {
		t.Run(fmt.Sprintf("units=%d", len(units)), func(t *testing.T) { ledgersMatchMapOracle(t, units) })
	}
}

func ledgersMatchMapOracle(t *testing.T, units []resource.ScheduleUnit) {
	seeds, ops := int64(8), 4000
	if len(units) != 3 {
		seeds, ops = 3, 2500 // the three-unit job is the long-standing stream; the others vary the storage
	}
	defined := make([]int, len(units))
	for i, u := range units {
		defined[i] = u.ID
	}
	for seed := int64(1); seed <= seeds; seed++ {
		eng := sim.NewEngine(seed)
		net := transport.NewNet(eng)
		top, err := topology.Build(topology.Spec{Racks: 3, MachinesPerRack: 4, MachineCapacity: resource.New(12000, 96*1024)})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var got []transport.Message
		master := net.Register(protocol.MasterEndpoint, func(_ transport.EndpointID, m transport.Message) {
			got = append(got, protocol.Keep(m)) // pooled messages end with the handler
		})
		ref := &mapLedgers{app: "app1", units: units, top: top}
		var events []string
		am := New(Config{App: "app1", Units: units, FullSyncInterval: 7 * sim.Second}, eng, net, top, cbFuncs{
			Grant: func(u int, m int32, c int) { events = append(events, fmt.Sprintf("grant u%d m%d x%d", u, m, c)) },
			Revoke: func(u int, m int32, c int) {
				events = append(events, fmt.Sprintf("revoke u%d m%d x%d", u, m, c))
			},
		})
		ref.sent = append(ref.sent, protocol.RegisterApp{App: "app1", Units: units, Seq: ref.seq.Next()})
		// The reference hears the master exactly when the AM does.
		net.Register("app1", func(from transport.EndpointID, msg transport.Message) {
			switch m := protocol.Keep(msg).(type) {
			case protocol.GrantUpdate:
				ref.grantUpdate(eng.Now(), from, m)
			case protocol.MasterHello:
				ref.hello(from, m)
			}
			am.handle(from, msg)
		})
		// ... and runs its periodic sync on the AM's clock: the AM's timer was
		// armed first, so at each tick the reference's turn comes second.
		eng.Every(7*sim.Second, func() { ref.fullSync(master) })

		machines, racks := top.Machines(), top.NumRacks()
		target := func() resource.LocalityHint {
			switch rng.Intn(8) {
			case 0, 1, 2:
				return resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(rng.Intn(len(machines)))}
			case 3, 4:
				return resource.LocalityHint{Type: resource.LocalityRack, Node: int32(rng.Intn(racks))}
			case 5:
				return resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(len(machines) + 7*rng.Intn(2))}
			case 6:
				return resource.LocalityHint{Type: resource.LocalityRack, Node: int32(racks)}
			}
			return resource.LocalityHint{Type: resource.LocalityCluster}
		}
		unit := func() int { // one time in five an ID the job never defined
			if rng.Intn(5) == 0 {
				return 1000
			}
			return defined[rng.Intn(len(defined))]
		}
		epoch, seq := 1, uint64(0)
		// Steps end half a millisecond off the whole milliseconds the timers
		// tick on, so nothing is ever in flight when the two sides are compared.
		eng.Run(500 * sim.Microsecond)
		settle := func() { eng.Run(eng.Now() + sim.Millisecond) }

		for op := 0; op <= ops; op++ {
			switch r := rng.Intn(100); {
			case op == ops:
				// The job ends, as often as not with returns and demand of this
				// instant still unflushed: they are dropped, and the unregister
				// goes out alone.
				if mc := int32(rng.Intn(len(machines))); am.Held(defined[0], mc) > 0 {
					am.ReturnContainers(defined[0], mc, 1)
					ref.returnContainers(defined[0], mc, 1)
				}
				if rng.Intn(2) == 0 {
					am.Request(defined[0], resource.LocalityHint{Type: resource.LocalityCluster, Count: 1})
					ref.request(defined[0], resource.LocalityHint{Type: resource.LocalityCluster, Count: 1})
				}
				am.Unregister()
				ref.unregister()
			case r < 30:
				// One to three requests in one instant, a unit now and then
				// asked for again after another: they share one DemandUpdate.
				for n := 1 + rng.Intn(3); n > 0; n-- {
					hints := make([]resource.LocalityHint, rng.Intn(4))
					for i := range hints {
						hints[i] = target()
						hints[i].Count = rng.Intn(9) - 3 // withdrawals, zeros and additions
						if rng.Intn(3) == 0 {
							hints[i].Count = 1 + rng.Intn(4) // keep the all-additions fast path busy
						}
					}
					if rng.Intn(2) == 0 {
						for i := range hints {
							if hints[i].Count <= 0 {
								hints[i].Count = 1 + rng.Intn(4)
							}
						}
					}
					u := unit()
					am.Request(u, hints...)
					ref.request(u, hints...)
				}
			case r < 70:
				// One to three unit runs; a unit may come back in a later run,
				// and a delta may be zero, which makes the update malformed.
				var changes []protocol.UnitDelta
				for runs := 1 + rng.Intn(3); runs > 0; runs-- {
					u := unit()
					for n := 1 + rng.Intn(3); n > 0; n-- {
						d := rng.Intn(7) - 2
						if d == 0 && rng.Intn(4) > 0 {
							d = 1
						}
						changes = append(changes, protocol.UnitDelta{UnitID: u, Machine: int32(rng.Intn(len(machines))), Delta: d})
					}
				}
				e, s := epoch, seq+1
				switch rng.Intn(12) {
				case 0:
					s = uint64(rng.Int63n(int64(seq) + 1)) // duplicate or late
				case 1:
					s = seq + uint64(2+rng.Intn(3)) // an update was lost
				case 2:
					e = epoch - 1 // deposed master's leftover (0 = unstamped: stale too once one is seen)
				case 3:
					epoch++
					e, s, seq = epoch, 1, 0 // the successor's fresh sequencer
				}
				if e == epoch && s > seq {
					seq = s
				}
				net.SendID(net.Endpoint(protocol.MasterEndpoint), net.Endpoint("app1"), &protocol.GrantUpdate{
					App: "app1", Changes: changes, Epoch: e, Seq: s,
				})
			case r < 90:
				u, mc, n := unit(), int32(rng.Intn(len(machines))), rng.Intn(4)
				if held := am.Held(u, mc); held > 0 && rng.Intn(3) > 0 {
					n = 1 + rng.Intn(held)
				}
				am.ReturnContainers(u, mc, n)
				ref.returnContainers(u, mc, n)
			case r < 93:
				e := epoch
				if rng.Intn(2) == 0 {
					epoch++
					e, seq = epoch, 0
				}
				net.SendID(net.Endpoint(protocol.MasterEndpoint), net.Endpoint("app1"), protocol.MasterHello{Epoch: e})
			default:
				eng.Run(eng.Now() + sim.Time(rng.Intn(4000))*sim.Millisecond) // periodic syncs, the gap-sync throttle
			}
			settle()
			if op < ops {
				ref.flush() // the AM's end-of-instant flush has run by now
			}

			if len(got) != len(ref.sent) {
				t.Fatalf("seed %d op %d: AM sent %d messages, oracle %d\n last AM     %+v\n last oracle %+v",
					seed, op, len(got), len(ref.sent), got[len(got)-1], ref.sent[len(ref.sent)-1])
			}
			for i := range got {
				if a, b := normalize(got[i]), normalize(ref.sent[i]); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d op %d message %d:\n AM     %+v\n oracle %+v", seed, op, i, a, b)
				}
			}
			got, ref.sent = got[:0], ref.sent[:0]
			if !reflect.DeepEqual(events, ref.events) {
				t.Fatalf("seed %d op %d: callbacks\n AM     %v\n oracle %v", seed, op, events, ref.events)
			}
			events, ref.events = events[:0], ref.events[:0]

			var obtained resource.Vector
			for _, u := range units {
				heldTotal, outTotal := 0, 0
				var on []int32
				for id := int32(0); id < int32(len(machines)); id++ {
					want := ref.held[makeHeldKey(u.ID, id)]
					if h := am.Held(u.ID, id); h != want {
						t.Fatalf("seed %d op %d: Held(%d, %d) = %d, oracle %d", seed, op, u.ID, id, h, want)
					}
					if want > 0 {
						on = append(on, id)
					}
					heldTotal += want
				}
				for _, c := range ref.outstanding[u.ID] {
					outTotal += c
				}
				if am.HeldTotal(u.ID) != heldTotal || am.Outstanding(u.ID) != outTotal {
					t.Fatalf("seed %d op %d unit %d: HeldTotal %d Outstanding %d, oracle %d %d",
						seed, op, u.ID, am.HeldTotal(u.ID), am.Outstanding(u.ID), heldTotal, outTotal)
				}
				if hm := heldMachines(am, u.ID); !reflect.DeepEqual(hm, on) {
					t.Fatalf("seed %d op %d unit %d: held machines %v, oracle %v", seed, op, u.ID, hm, on)
				}
				obtained = obtained.Add(u.Size.Scale(int64(heldTotal)))
			}
			if !am.ObtainedTotal().Equal(obtained) {
				t.Fatalf("seed %d op %d: ObtainedTotal %v, oracle %v", seed, op, am.ObtainedTotal(), obtained)
			}
		}
	}
}

// churnAMs builds n application masters of 40 one-container units on a
// 5,000-machine topology — churn's shape is 2,500 of them — each unit holding
// its container on one machine and waiting for nothing.
func churnAMs(tb testing.TB, n int) (*sim.Engine, transport.EndpointID, []*AM, [][]int32) {
	tb.Helper()
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	master := net.Register(protocol.MasterEndpoint, func(transport.EndpointID, transport.Message) {})
	top, err := topology.Build(topology.Spec{Racks: 100, MachinesPerRack: 50, MachineCapacity: resource.New(12000, 96*1024)})
	if err != nil {
		tb.Fatal(err)
	}
	units := make([]resource.ScheduleUnit, 40)
	for u := range units {
		units[u] = resource.ScheduleUnit{ID: u + 1, Priority: 100, MaxCount: 4, Size: resource.New(500, 2048)}
	}
	ams := make([]*AM, n)
	where := make([][]int32, n)
	for i := range ams {
		ams[i] = New(Config{App: fmt.Sprintf("app-%04d", i), Units: units}, eng, net, top, NoCallbacks{})
		where[i] = make([]int32, len(units))
		for u := range units {
			mc := int32((i*131 + u*977) % top.Size())
			where[i][u] = mc
			ams[i].applyGrant(&protocol.GrantUpdate{Changes: []protocol.UnitDelta{{UnitID: u + 1, Machine: mc, Delta: 1}}})
		}
	}
	eng.Run(sim.Second)
	return eng, master, ams, where
}

// TestGrantCycleAllocatesOnlyItsMessages is the application master's share of
// "a delta costs O(delta)": one turn of churn's cycle on a warmed AM — a grant
// arrives, the holder checks Held, returns the container and restates the
// demand — allocates nothing: not for its own books, and not for the message
// it sends FuxiMaster, which is pooled and owns its payloads.
func TestGrantCycleAllocatesOnlyItsMessages(t *testing.T) {
	eng, master, ams, where := churnAMs(t, 1)
	am, mc := ams[0], where[0][6]
	am.ReturnContainers(7, mc, 1)
	const warm = 20000 // twice round the engine's calendar ring (see the agent's gate)
	grants := make([]transport.Message, warm+300)
	for i := range grants {
		grants[i] = &protocol.GrantUpdate{
			Changes: []protocol.UnitDelta{{UnitID: 7, Machine: mc, Delta: 1}}, Epoch: 1, Seq: uint64(i + 1),
		}
	}
	i := 0
	step := func() {
		am.handle(master, grants[i])
		i++
		if am.Held(7, mc) != 1 {
			t.Fatal("grant not booked")
		}
		am.ReturnContainers(7, mc, 1)
		am.Request(7, resource.LocalityHint{Type: resource.LocalityCluster, Count: 1})
		eng.Run(eng.Now() + sim.Millisecond)
	}
	for i < warm {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("grant cycle allocates %v times, want 0", n)
	}
}

// TestWideAppBooksCostChunks: a forty-unit application master's books — each
// unit's outstanding demand and held containers, from its first Request and
// its first grant — cost the ledger slice and ten chunks of the AM's slab,
// not two tables a unit. Each turn starts the books afresh.
func TestWideAppBooksCostChunks(t *testing.T) {
	_, _, ams, _ := churnAMs(t, 1)
	am := ams[0]
	grant := &protocol.GrantUpdate{}
	for u := range am.cfg.Units {
		grant.Changes = append(grant.Changes, protocol.UnitDelta{UnitID: u + 1, Machine: int32(u), Delta: 2})
	}
	turn := func() {
		am.units, am.slab = nil, dense.Slab[int]{}
		for u := range am.cfg.Units {
			am.Request(u+1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 3})
		}
		am.applyGrant(grant)
		am.drop()
		if am.Held(40, 39) != 2 || am.Outstanding(40) != 1 {
			t.Fatal("the grant was not booked against the demand")
		}
	}
	turn()
	if n := testing.AllocsPerRun(20, turn); n > 1+10 {
		t.Fatalf("a forty-unit AM's books cost %v allocations, want at most 11", n)
	}
}

// BenchmarkAMGrantCycle turns churn's cycle once per iteration — grant,
// Held, ReturnContainers, Request — rotating over 2,500 application masters ×
// 40 units so each call finds its ledger as cold as the lane does. "tables" is
// the shipped AM (its messages go to a discarding master), "map-oracle" the
// map-based ledgers it replaced doing the same bookkeeping.
func BenchmarkAMGrantCycle(b *testing.B) {
	const n = 2500
	eng, master, ams, where := churnAMs(b, n)
	b.Run("tables", func(b *testing.B) {
		for i := range ams {
			for u, mc := range where[i] {
				ams[i].ReturnContainers(u+1, mc, 1)
			}
		}
		eng.Run(eng.Now() + sim.Second)
		gu := &protocol.GrantUpdate{Changes: make([]protocol.UnitDelta, 1)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			am, u := ams[i%n], i/n%40
			mc := where[i%n][u]
			gu.Changes[0] = protocol.UnitDelta{UnitID: u + 1, Machine: mc, Delta: 1}
			am.applyGrant(gu)
			if am.Held(u+1, mc) == 1 {
				am.ReturnContainers(u+1, mc, 1)
			}
			am.Request(u+1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 1})
			if i%512 == 511 {
				eng.Run(eng.Now() + sim.Millisecond) // deliver and recycle, as the lane's clock would
			}
		}
	})
	b.Run("map-oracle", func(b *testing.B) {
		refs := make([]*mapLedgers, n)
		for i, am := range ams {
			refs[i] = &mapLedgers{app: am.cfg.App, units: am.cfg.Units, top: am.top}
			for u := range where[i] {
				refs[i].request(u+1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 1})
			}
			refs[i].sent = nil
		}
		changes := make([]protocol.UnitDelta, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ref, u := refs[i%n], i/n%40
			mc := where[i%n][u]
			changes[0] = protocol.UnitDelta{UnitID: u + 1, Machine: mc, Delta: 1}
			ref.grantUpdate(0, master, protocol.GrantUpdate{Changes: changes, Seq: uint64(i/n + 1)})
			if ref.held[makeHeldKey(u+1, mc)] == 1 {
				ref.returnContainers(u+1, mc, 1)
			}
			ref.request(u+1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 1})
			ref.sent, ref.events = ref.sent[:0], ref.events[:0]
		}
	})
}
