package agent

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/ident"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// mapLedger is the agent's capacity ledger and heartbeat encoder as they were
// before the ledger became a compact table: a value map keyed by (locally
// interned app ID, unit), a second map of changed keys, and the agent's own
// ident.Table of application names, re-interned from every message. It is
// kept as the reference the differential tests drive the shipped agent
// against; the message fencing around it (malformed-message drop, epoch gate,
// dedup, repair throttle) is the agent's, mirrored here so the reference sees
// what the agent sees.
type mapLedger struct {
	appTbl   ident.Table
	capacity map[oracleKey]oracleEntry
	dirty    map[oracleKey]struct{}
	// machine is the agent's own machine ID: a sync naming another is not
	// this ledger's. clamped counts the releases clamped at zero.
	machine int32
	clamped int

	anchorEvery   int
	sinceAnchor   int
	forceAnchor   bool
	gate          protocol.EpochGate
	dedup         protocol.Dedup
	seq           protocol.Sequencer
	nextAnchorReq sim.Time
	repairQueries int
}

type oracleKey struct {
	app    int32
	unitID int
}

type oracleEntry struct {
	size  resource.Vector
	count int
}

// namedAlloc is protocol.AllocDelta with the application spelled out, the
// form both sides are compared in.
type namedAlloc struct {
	App    string
	UnitID int
	Count  int
}

type oracleBeat struct {
	Full        bool
	Allocations []namedAlloc
	Changes     []namedAlloc
	Seq         uint64
}

func newMapLedger(anchorEvery int, machine int32) *mapLedger {
	return &mapLedger{
		capacity:    map[oracleKey]oracleEntry{},
		dirty:       map[oracleKey]struct{}{},
		machine:     machine,
		anchorEvery: anchorEvery,
		forceAnchor: true,
	}
}

func sortNamed(ds []namedAlloc) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].App != ds[j].App {
			return ds[i].App < ds[j].App
		}
		return ds[i].UnitID < ds[j].UnitID
	})
}

// beat is the old sendHeartbeat.
func (l *mapLedger) beat() oracleBeat {
	b := oracleBeat{Seq: l.seq.Next()}
	l.sinceAnchor++
	if l.forceAnchor || l.sinceAnchor >= l.anchorEvery {
		b.Full = true
		for k, e := range l.capacity {
			if e.count > 0 {
				b.Allocations = append(b.Allocations, namedAlloc{l.appTbl.Name(k.app), k.unitID, e.count})
			}
		}
		sortNamed(b.Allocations)
		for k, e := range l.capacity {
			if e.count <= 0 {
				delete(l.capacity, k)
			}
		}
		l.forceAnchor = false
		l.sinceAnchor = 0
		clear(l.dirty)
	} else if len(l.dirty) > 0 {
		for k := range l.dirty {
			b.Changes = append(b.Changes, namedAlloc{l.appTbl.Name(k.app), k.unitID, l.capacity[k].count})
		}
		sortNamed(b.Changes)
		clear(l.dirty)
	}
	return b
}

// apply is the old applyCapacityID behind its Intern.
func (l *mapLedger) apply(app string, unitID int, size resource.Vector, delta int) {
	k := oracleKey{l.appTbl.Intern(app), unitID}
	l.dirty[k] = struct{}{}
	e := l.capacity[k]
	e.size = size
	e.count += delta
	if e.count < 0 {
		e.count = 0
		l.clamped++
	}
	l.capacity[k] = e
}

// handle mirrors Agent.handle for the capacity messages. name resolves a wire
// entry's application (an endpoint ID now, the name itself then), "" for an
// endpoint nobody interned.
func (l *mapLedger) handle(now sim.Time, from transport.EndpointID, msg transport.Message, name func(int32) string) {
	stale := func(epoch int) bool { return l.gate.StaleCh(epoch, &l.dedup, int32(from), protocol.ChanCap) }
	// A message with an entry naming no application, or a unit ID wider than
	// the wire's 32 bits, is malformed: dropped whole, before any fencing.
	malformed := func(es []protocol.CapacityEntry) bool {
		for _, e := range es {
			if name(e.App) == "" || int(int32(e.UnitID)) != e.UnitID {
				return true
			}
		}
		return false
	}
	switch t := msg.(type) {
	case *protocol.CapacityDelta:
		l.handle(now, from, *t, name)
	case protocol.CapacityDelta:
		if malformed(t.Entries) || stale(t.Epoch) {
			return
		}
		switch l.dedup.ObserveCh(int32(from), protocol.ChanCap, t.Seq) {
		case protocol.Duplicate:
			return
		case protocol.Gap:
			if now >= l.nextAnchorReq {
				l.nextAnchorReq = now + anchorRequestMin
				l.seq.Next()
				l.repairQueries++
			}
		}
		for _, e := range t.Entries {
			l.apply(name(e.App), e.UnitID, e.Size, e.Count)
		}
	case protocol.CapacitySync:
		if t.Machine != l.machine || malformed(t.Entries) || stale(t.Epoch) {
			return
		}
		if t.Seq != 0 && l.dedup.ObserveCh(int32(from), protocol.ChanCap, t.Seq) == protocol.Duplicate {
			return
		}
		l.forceAnchor = true
		clear(l.dirty)
		l.capacity = make(map[oracleKey]oracleEntry, len(t.Entries))
		for _, e := range t.Entries {
			if e.Count > 0 {
				l.capacity[oracleKey{l.appTbl.Intern(name(e.App)), e.UnitID}] = oracleEntry{size: e.Size, count: e.Count}
			}
		}
	case protocol.MasterHello:
		if !stale(t.Epoch) {
			l.forceAnchor = true // the agent beats at once; the tap calls beat()
		}
	}
}

func (l *mapLedger) crashDaemon() {
	l.capacity = map[oracleKey]oracleEntry{}
	l.dedup = protocol.Dedup{}
}

func (l *mapLedger) restartDaemon() {
	l.forceAnchor = true
	l.seq.Next() // the restart CapacityQuery
}

func (l *mapLedger) crashMachine() { l.capacity = map[oracleKey]oracleEntry{} }

func (l *mapLedger) restartMachine() {
	l.forceAnchor = true
	clear(l.dirty)
	l.dedup = protocol.Dedup{}
}

// appName resolves a wire entry's application for the reference: its name, or
// "" for an endpoint ID the network never interned. A retired endpoint's name
// is gone from the network; it resolves to the name it had when this resolver
// last saw it live, so a script names each endpoint once while it lives.
func appName(net *transport.Net) func(int32) string {
	had := map[int32]string{}
	return func(ep int32) string {
		if !net.Known(transport.EndpointID(ep)) {
			return ""
		}
		if n := net.Name(transport.EndpointID(ep)); n != "" {
			had[ep] = n
			return n
		}
		return had[ep]
	}
}

// checkBeats compares every heartbeat h's agent sends, at the instant it sends
// it, with the one ref would have sent: anchor flag, sequence number, and the
// allocation and change tables entry by entry. The agent's tables leave in
// ledger order, which no receiver depends on, so each is compared as a copy
// sorted into the reference's (name, unit) order, with name naming the apps.
// It returns the running count of beats compared; label names the run in a
// failure.
func checkBeats(t *testing.T, h *harness, ref *mapLedger, label func() string, name func(int32) string) *int {
	beats := new(int)
	h.net.Tap = func(from, to string, msg transport.Message) {
		if _, ok := msg.(protocol.WorkerStatus); ok {
			// Worker reports draw from the agent's one sequencer; the
			// reference keeps no process table, so it only counts them.
			ref.seq.Next()
			return
		}
		hb, ok := msg.(*protocol.AgentHeartbeat)
		if !ok || to != protocol.MasterEndpoint {
			return
		}
		*beats++
		want := ref.beat()
		got := oracleBeat{Full: hb.Full, Seq: hb.Seq}
		for _, d := range hb.Allocations {
			got.Allocations = append(got.Allocations, namedAlloc{name(d.App), d.UnitID, d.Count})
		}
		for _, d := range hb.Changes {
			got.Changes = append(got.Changes, namedAlloc{name(d.App), d.UnitID, d.Count})
		}
		sortNamed(got.Allocations)
		sortNamed(got.Changes)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s beat %d at %v:\n agent  %+v\n oracle %+v", label(), *beats, h.eng.Now(), got, want)
		}
	}
	return beats
}

// TestLedgerMatchesMapOracle drives the shipped agent and the map-based ledger
// it replaced with the same seeded message stream — capacity deltas (in order,
// duplicated, with gaps, from stale and newer epochs, over-releasing), named
// single updates, full syncs (current, stale, unsequenced, with zero rows),
// master hellos, daemon and machine crashes with restarts, and idle stretches
// long enough for delta beats, anchors and the zero-count reap — and compares
// every heartbeat the agent sends with the one the reference would have sent
// (checkBeats).
func TestLedgerMatchesMapOracle(t *testing.T) {
	// Application names whose endpoint-ID order (registration order below) is
	// neither their name order nor its reverse.
	apps := []string{"job-m", "job-c", "job-x", "job-a", "job-q", "job-e", "job-z", "job-b"}
	for seed := int64(1); seed <= 8; seed++ {
		h := newHarness(t)
		a := h.agent
		rng := rand.New(rand.NewSource(seed))
		for _, app := range apps {
			h.net.Endpoint(app)
		}
		name := appName(h.net)
		ref := newMapLedger(a.cfg.AnchorEvery, a.id)
		beats := checkBeats(t, h, ref, func() string { return fmt.Sprintf("seed %d", seed) }, name)
		// The reference sees each message exactly when the agent's handler
		// does; a restart re-registers the agent's own handler, so re-wrap.
		wrap := func() {
			h.net.Register(a.endpoint(), func(from transport.EndpointID, msg transport.Message) {
				ref.handle(h.eng.Now(), from, msg, name)
				a.handle(from, msg)
			})
		}
		wrap()

		epoch, seq := 1, uint64(0)
		send := func(msg transport.Message) {
			h.net.Send(protocol.MasterEndpoint, a.endpoint(), msg)
			h.eng.Run(h.eng.Now() + sim.Millisecond)
		}
		// stamp picks the (epoch, seq) a message travels with: mostly the
		// stream as sent, sometimes a duplicate, a gap, a deposed master's
		// leftover or a promoted successor's first message.
		stamp := func() (int, uint64) {
			switch rng.Intn(12) {
			case 0:
				return epoch, uint64(rng.Int63n(int64(seq) + 1)) // duplicate or late
			case 1:
				seq += uint64(2 + rng.Intn(3)) // lost messages before this one
				return epoch, seq
			case 2:
				return epoch - 1, seq + 1 // stale epoch (epoch 0 = unstamped: applied)
			case 3:
				epoch++
				seq = 1 // the successor's fresh sequencer
				return epoch, seq
			}
			seq++
			return epoch, seq
		}
		entries := func(signed bool) []protocol.CapacityEntry {
			es := make([]protocol.CapacityEntry, 1+rng.Intn(4))
			for i := range es {
				n := 1 + rng.Intn(3)
				if signed && rng.Intn(2) == 0 {
					n = -n // releases, now and then more than is held: the clamp
				} else if !signed && rng.Intn(5) == 0 {
					n = 0
				}
				es[i] = protocol.CapacityEntry{
					App:    int32(h.net.Endpoint(apps[rng.Intn(len(apps))])),
					UnitID: 1 + rng.Intn(3), Size: resource.New(int64(250*(1+rng.Intn(3))), 1024), Count: n,
				}
			}
			return es
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(100); {
			case r < 55:
				e, s := stamp()
				send(protocol.CapacityDelta{Entries: entries(true), Epoch: e, Seq: s})
			case r < 60:
				e, s := stamp()
				// A one-entry delta, as a scripted master sends one.
				send(protocol.CapacityDelta{Entries: []protocol.CapacityEntry{{
					App: int32(h.net.Endpoint(apps[rng.Intn(len(apps))])), UnitID: 1 + rng.Intn(3), Size: size,
					Count: rng.Intn(5) - 2,
				}}, Epoch: e, Seq: s})
			case r < 68:
				e, s := stamp()
				if rng.Intn(6) == 0 {
					s = 0 // direct injection: bypasses the sequence check
				}
				send(protocol.CapacitySync{Machine: a.id, Entries: entries(false), Epoch: e, Seq: s})
			case r < 72:
				e := epoch
				if rng.Intn(2) == 0 {
					epoch++
					seq = 0
					e = epoch
				}
				send(protocol.MasterHello{Epoch: e})
			case r < 75:
				a.CrashDaemon()
				ref.crashDaemon()
				h.eng.Run(h.eng.Now() + sim.Time(rng.Intn(1500))*sim.Millisecond)
				a.RestartDaemon()
				ref.restartDaemon()
				wrap()
			case r < 77:
				a.CrashMachine()
				ref.crashMachine()
				h.eng.Run(h.eng.Now() + sim.Time(rng.Intn(1500))*sim.Millisecond)
				a.RestartMachine()
				ref.restartMachine()
				wrap()
			default: // idle: beats, anchors, the reap
				h.eng.Run(h.eng.Now() + sim.Time(100+rng.Intn(2500))*sim.Millisecond)
			}
			if got := len(h.repairQueries()); got != ref.repairQueries {
				t.Fatalf("seed %d op %d: %d repair queries sent, oracle %d", seed, op, got, ref.repairQueries)
			}
			for _, app := range apps {
				for unit := 1; unit <= 3; unit++ {
					want := ref.capacity[oracleKey{ref.appTbl.ID(app), unit}].count
					if got := a.Capacity(app, unit); got != want {
						t.Fatalf("seed %d op %d: Capacity(%s, %d) = %d, oracle %d", seed, op, app, unit, got, want)
					}
				}
			}
		}
		if *beats < 500 {
			t.Fatalf("seed %d: only %d beats compared", seed, *beats)
		}
		var live []string
		a.ForEachAllocation(func(app string, unitID, count int) {
			live = append(live, fmt.Sprintf("%s/%d=%d", app, unitID, count))
		})
		var want []string
		for k, e := range ref.capacity {
			if e.count > 0 {
				want = append(want, fmt.Sprintf("%s/%d=%d", ref.appTbl.Name(k.app), k.unitID, e.count))
			}
		}
		sort.Strings(live)
		sort.Strings(want)
		if !reflect.DeepEqual(live, want) {
			t.Fatalf("seed %d: ForEachAllocation %v, oracle %v", seed, live, want)
		}
	}
}

// churnAgents builds n agents on one network, each holding rows (app, unit)
// capacity rows — churn's shape is 5,000 agents with about 40 — and returns
// them with a CapacityDelta per agent that touches four of its rows.
func churnAgents(tb testing.TB, n, rows int) (*transport.Net, *sim.Engine, []*Agent, [][]protocol.CapacityEntry) {
	tb.Helper()
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	net.Register(protocol.MasterEndpoint, func(transport.EndpointID, transport.Message) {})
	top, err := topology.Build(topology.Spec{Racks: 1, MachinesPerRack: n, MachineCapacity: resource.New(12000, 96*1024)})
	if err != nil {
		tb.Fatal(err)
	}
	apps := make([]int32, 2500)
	for i := range apps {
		apps[i] = int32(net.Endpoint(fmt.Sprintf("app-%04d", i)))
	}
	agents := make([]*Agent, n)
	deltas := make([][]protocol.CapacityEntry, n)
	for i, m := range top.Machines() {
		a := New(DefaultConfig(), eng, net, top.Machine(m))
		agents[i] = a
		for r := 0; r < rows; r++ {
			a.applyCapacity(makeCapKey(transport.EndpointID(apps[(i*7+r*61)%len(apps)]), 1+r%40), 1)
		}
		for r := 0; r < 4; r++ {
			k := a.capacity.keys[(r*11+3)%rows]
			deltas[i] = append(deltas[i], protocol.CapacityEntry{App: int32(k.app()), UnitID: k.unitID(), Size: size})
		}
	}
	eng.Run(2 * sim.Second) // first anchors out, marks clean
	return net, eng, agents, deltas
}

// TestCapacityDeltaAndBeatAllocateNothing is the agent's share of "a delta
// costs O(delta)": a warmed agent applies a four-entry CapacityDelta and sends
// the beat that reports it — a delta beat, or an anchor carrying the whole
// table — without allocating. Both beats are drawn from the network's pool.
func TestCapacityDeltaAndBeatAllocateNothing(t *testing.T) {
	for _, anchor := range []bool{false, true} {
		t.Run(map[bool]string{false: "delta", true: "anchor"}[anchor], func(t *testing.T) {
			net, eng, agents, deltas := churnAgents(t, 1, 40)
			a := agents[0]
			master := net.Endpoint(protocol.MasterEndpoint)
			const warm = 20000                          // twice round the engine's 8,192-slot calendar ring, so every slot a delivery event lands in is built
			msgs := make([]transport.Message, warm+300) // boxed up front: the sender's cost
			for i := range msgs {
				es := append([]protocol.CapacityEntry(nil), deltas[0]...)
				for j := range es {
					es[j].Count = 1 - 2*(i%2) // grant, release, grant, ...
				}
				msgs[i] = protocol.CapacityDelta{Entries: es, Epoch: 1, Seq: uint64(i + 1)}
			}
			i := 0
			step := func() {
				a.handle(master, msgs[i])
				i++
				if anchor {
					a.forceAnchor = true
				} else {
					a.sinceAnchor = 0
				}
				a.sendHeartbeat()
				eng.Run(eng.Now() + sim.Millisecond)
			}
			for i < warm {
				step()
			}
			if n := testing.AllocsPerRun(200, step); n != 0 {
				t.Fatalf("delta + beat allocate %v times on a warmed agent", n)
			}
			if a.ClampedNegative != 0 {
				t.Fatalf("ClampedNegative = %d", a.ClampedNegative)
			}
		})
	}
}

// BenchmarkAgentCapacityDelta applies one four-entry delta per iteration,
// rotating over churn's 5,000 agents × 40 rows so each call finds its agent's
// table as cold as the lane does. "table" is the shipped ledger, "map-oracle"
// the map-based one it replaced, fed the same entries by name.
func BenchmarkAgentCapacityDelta(b *testing.B) {
	const n, rows = 5000, 40
	net, _, agents, deltas := churnAgents(b, n, rows)
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, sign := agents[i%n], 1-2*(i/n%2)
			for _, e := range deltas[i%n] {
				a.applyCapacity(makeCapKey(transport.EndpointID(e.App), e.UnitID), sign)
			}
		}
	})
	b.Run("map-oracle", func(b *testing.B) {
		refs := make([]*mapLedger, n)
		names := make([][]string, n)
		for i, a := range agents {
			refs[i] = newMapLedger(10, a.id)
			a.ForEachAllocation(func(app string, unitID, count int) { refs[i].apply(app, unitID, size, count) })
			for _, e := range deltas[i] {
				names[i] = append(names[i], net.Name(transport.EndpointID(e.App)))
			}
			refs[i].beat()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ref, sign := refs[i%n], 1-2*(i/n%2)
			for j, e := range deltas[i%n] {
				ref.apply(names[i%n][j], e.UnitID, e.Size, sign)
			}
		}
	})
}
