package master

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/lockservice"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

// syncScript turns fuzz bytes into hostile application-master traffic: a
// cursor that reads zeros once the bytes run out.
type syncScript struct{ b []byte }

func (s *syncScript) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// count is a small signed count: mostly positive, sometimes zero, negative or
// huge.
func (s *syncScript) count() int {
	switch c := s.next(); {
	case c < 0xf0:
		return int(int8(c)) % 9
	case c < 0xf8:
		return 1 << 40
	default:
		return -(1 << 40)
	}
}

// unit picks one of the app's unit IDs, or (one time in eight) an ID no app
// defined.
func (s *syncScript) unit(units []resource.ScheduleUnit) int {
	c := s.next()
	if c&7 == 7 {
		return []int{0, -1, 3, 99}[c>>3&3]
	}
	return units[int(c>>3)%len(units)].ID
}

// machine picks a dense machine ID, in range or not.
func (s *syncScript) machine(n int) int32 {
	c := s.next()
	if c&15 == 15 {
		return []int32{-1, int32(n), int32(n) + 7, 1 << 30}[c>>4&3]
	}
	return int32(int(c) % n)
}

// hint picks a locality target — machine, rack or cluster, an ID inside or
// outside the topology, or a level no hint has — and a count.
func (s *syncScript) hint(machines, racks int) resource.LocalityHint {
	c := s.next()
	h := resource.LocalityHint{Count: s.count()}
	switch c % 8 {
	case 0, 1, 2:
		h.Type, h.Node = resource.LocalityMachine, int32(int(c>>3)%machines)
	case 3:
		h.Type, h.Node = resource.LocalityRack, int32(int(c>>3)%racks)
	case 4:
		h.Type, h.Node = resource.LocalityMachine, int32(machines+int(c>>3))
	case 5:
		h.Type, h.Node = resource.LocalityRack, int32(racks+int(c>>3))
	case 6:
		h.Type = resource.LocalityCluster
	default:
		h.Type = resource.LocalityType(3 + c>>3%4)
	}
	return h
}

// seq is the next sequence number of an app's stream, or a hostile one: a
// replay below the receiver's high-water marks, zero, or a leap ahead.
func (s *syncScript) seq(sq *protocol.Sequencer) uint64 {
	switch c := s.next(); c % 8 {
	case 0:
		return sq.Current() / 2
	case 1:
		return 0
	case 2:
		return sq.Current() + 1 + uint64(c>>3)
	}
	return sq.Next()
}

// TestReturnOnUnknownMachineIsRefused is FuzzFullDemandSync's first finding:
// a return naming a machine ID outside the topology crashed the primary —
// the refusal's own error message looked the machine's name up by that ID.
// It is refused like any other return of containers the app does not hold.
func TestReturnOnUnknownMachineIsRefused(t *testing.T) {
	h := newMasterHarness(t, Config{ProcessName: "fm-1"})
	h.registerApp(t)
	h.send(&protocol.DemandUpdate{App: "app1",
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 3}), Seq: h.seq.Next()})
	s := h.m1.Scheduler()
	if s.Held("app1", 1) != 3 {
		t.Fatalf("setup: held %d, want 3", s.Held("app1", 1))
	}
	n := int32(h.top.Size())
	h.send(&protocol.DemandUpdate{App: "app1", Seq: h.seq.Next(), Returns: []protocol.ReturnEntry{
		{UnitID: 1, Machine: n, Count: 1}, {UnitID: 1, Machine: -1, Count: 1},
	}})
	h.send(&protocol.DemandUpdate{App: "app1", Seq: h.seq.Next(), Returns: []protocol.ReturnEntry{
		{UnitID: 1, Machine: n + 5, Count: 2},
	}})
	if !h.m1.IsPrimary() || s.Held("app1", 1) != 3 {
		t.Fatalf("after returns on unknown machines: primary %v, held %d (want true, 3)", h.m1.IsPrimary(), s.Held("app1", 1))
	}
	if bad := s.CheckAllInvariants(); len(bad) > 0 {
		t.Fatalf("invariants: %v", bad)
	}
}

// FuzzFullDemandSync drives a primary with a few registered multi-unit apps
// through a byte-scripted sequence of hostile application-master messages —
// demand updates whose returns name machines outside the topology, units
// never defined, counts of zero or less and more than is held, and whose
// demand brings a unit back in a later run, carries a zero count or names a
// node outside the topology; and full syncs with unsorted, duplicated and
// negative entries, unknown unit IDs, machine and rack IDs out of range,
// levels no hint has, stale SeenGrantSeq and Seq below the high-water marks
// (and, for contrast, well-formed syncs of the same content). After every message the master must not have panicked and its
// scheduler must pass the full audit.
func FuzzFullDemandSync(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 9, 3, 1, 0x11, 2, 1, 3, 2, 8, 0, 1, 2, 2, 5, 3, 40})
	f.Add([]byte{0, 1, 8, 2, 0x02, 6, 3, 20, 1, 1, 8, 1, 8, 0x3f, 2, 3})
	f.Add([]byte{0, 0, 0, 1, 6, 5, 3, 9, 2, 0, 3, 3, 2, 6, 4, 1, 0, 0, 2, 0, 2, 7, 1, 1, 2, 1, 3, 30})
	f.Add([]byte{1, 2, 0, 2, 0x0f, 4, 3, 1, 2, 1, 0, 0, 2, 2, 0x1f, 3, 2, 0x2f, 0xf9})
	f.Fuzz(runSyncScript)
}

// runSyncScript is FuzzFullDemandSync's body: one fresh primary, one script.
func runSyncScript(t *testing.T, data []byte) {
	s := &syncScript{b: data}
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	top := testTop(t, 2, 3)
	cfg := Config{ProcessName: "fm-1"}
	if s.next()&1 == 1 {
		cfg.BatchWindow = 20 * sim.Millisecond
	}
	m := NewMaster(cfg, eng, net, lockservice.New(eng), top, NewCheckpointStore())
	eng.Run(10 * sim.Millisecond)
	apps := syncApps
	seqs := make([]protocol.Sequencer, len(apps))
	for i, a := range apps {
		net.Register(a.name, func(tr, transport.Message) {})
		m.handle(net.Endpoint(a.name), &protocol.RegisterApp{App: a.name, Units: a.units, Seq: seqs[i].Next()})
	}
	machines, racks := top.Size(), top.NumRacks()
	for step := 0; len(s.b) > 0 && step < 256; step++ {
		ai := int(s.next()) % len(apps)
		a, sq := apps[ai], &seqs[ai]
		from := net.Endpoint(a.name)
		var what string
		switch op := s.next() % 4; op {
		case 0, 1:
			// Up to three returns, then up to four unit runs of up to three
			// hints: a unit may come back in a later run, and a zero count or
			// (op 1 only) a return of zero or less makes the update malformed.
			what = "update"
			msg := &protocol.DemandUpdate{App: a.name, Seq: s.seq(sq)}
			for n := s.next() % 4; n > 0; n-- {
				r := protocol.ReturnEntry{UnitID: s.unit(a.units), Machine: s.machine(machines), Count: s.count()}
				if op == 0 && r.Count <= 0 {
					r.Count = 1 - r.Count // well-formed, for the receiver to refuse or honour one by one
				}
				msg.Returns = append(msg.Returns, r)
			}
			for runs := s.next() % 5; runs > 0; runs-- {
				id := s.unit(a.units)
				for n := 1 + s.next()%3; n > 0; n-- {
					msg.Deltas = append(msg.Deltas, protocol.UnitHint{UnitID: id, LocalityHint: s.hint(machines, racks)})
				}
			}
			m.handle(from, msg)
		case 2:
			what = "sync"
			shape := s.next()
			msg := &protocol.FullDemandSync{App: a.name, Units: a.units, Seq: s.seq(sq)}
			switch shape >> 2 & 3 {
			case 0:
				msg.SeenGrantSeq = m.sched.apps[a.name].lastGrantSeq
			case 1:
				msg.SeenGrantSeq = 0 // stale while a grant is in flight
			case 2:
				msg.SeenGrantSeq = 1 << 62
			}
			for n := s.next() % 6; n > 0; n-- {
				msg.Demand = append(msg.Demand, protocol.UnitHint{UnitID: s.unit(a.units), LocalityHint: s.hint(machines, racks)})
			}
			for n := s.next() % 6; n > 0; n-- {
				msg.Held = append(msg.Held, protocol.SyncHeld{
					UnitID: s.unit(a.units), Machine: s.machine(machines), Count: s.count(),
				})
			}
			if shape&1 == 1 { // the same content, put in the wire's order
				slices.SortStableFunc(msg.Demand, func(x, y protocol.UnitHint) int {
					return cmp.Or(cmp.Compare(x.UnitID, y.UnitID), resource.CompareHints(x.LocalityHint, y.LocalityHint))
				})
				msg.Demand = slices.CompactFunc(msg.Demand, func(x, y protocol.UnitHint) bool {
					return x.UnitID == y.UnitID && resource.CompareHints(x.LocalityHint, y.LocalityHint) == 0
				})
				slices.SortFunc(msg.Held, func(x, y protocol.SyncHeld) int {
					return cmp.Or(cmp.Compare(x.UnitID, y.UnitID), cmp.Compare(x.Machine, y.Machine))
				})
				msg.Held = slices.CompactFunc(msg.Held, func(x, y protocol.SyncHeld) bool {
					return x.UnitID == y.UnitID && x.Machine == y.Machine
				})
			}
			if shape&2 == 2 { // and without negative counts
				for i := range msg.Demand {
					msg.Demand[i].Count = max(msg.Demand[i].Count, 0)
				}
				for i := range msg.Held {
					msg.Held[i].Count = max(msg.Held[i].Count, 0)
				}
			}
			m.handle(from, msg)
		default:
			what = "time"
			eng.Run(eng.Now() + sim.Time(s.next()%64)*sim.Millisecond)
		}
		if bad := m.sched.CheckAllInvariants(); len(bad) > 0 {
			t.Fatalf("step %d (%s from %s): invariants violated: %v", step, what, a.name, bad)
		}
	}
	eng.Run(eng.Now() + 100*sim.Millisecond)
	if bad := m.sched.CheckAllInvariants(); len(bad) > 0 {
		t.Fatalf("after the script settled: invariants violated: %v", bad)
	}
}
