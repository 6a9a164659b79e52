package master

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/lockservice"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The fan-out as it was before an instant's capacity changes waited for the
// instant's end: applyReleases and unregister sent every touched agent a
// CapacityDelta of release entries at once, the regrant the freed capacity
// enabled went to the same agents in a second CapacityDelta, and every step's
// dispatch sent its own. The legacy world's master also keeps the demand
// paths from before every update joined one round buffer: the immediate step
// of a zero-width window, the recovery's own demand and return buffers, and
// deferRound, which moved a round flushed during a recovery into them. The
// legacy* methods below are those paths, kept as the differential oracle of
// the shipped ones; everything they share with it (placeRound, applyRuns,
// dispatch followed at once by flushCapacity) is the shipped code.

// legacyMaster is a master with the buffers the one-round path deleted:
// the demand and returns that arrive during a recovery window.
type legacyMaster struct {
	*Master
	recDem []demandRec
	recRet []returnRec
}

// legacyApplyReleases is applyReleases sending its releases itself.
func (m *Master) legacyApplyReleases(rets []returnRec) []int32 {
	touched := m.applyReleases(rets)
	m.flushCapacity()
	return touched
}

// legacyDispatch is dispatch sending the step's capacity changes at once.
func (m *Master) legacyDispatch(ds []Decision) {
	m.dispatch(ds)
	m.flushCapacity()
}

func (m *legacyMaster) legacyHandleReturns(rets []returnRec) {
	if m.recovering {
		m.recRet = append(m.recRet, rets...)
		return
	}
	if m.cfg.BatchWindow > 0 {
		m.pendRet = append(m.pendRet, rets...)
		m.legacyArmFlush()
		return
	}
	touched := m.legacyApplyReleases(rets)
	ds := m.decisions()
	m.sched.assignOnIDsInto(touched, ds)
	m.legacyDispatch(*ds)
}

// legacyHandleDemand is handleDemand's three paths for an update without
// returns: buffered apart during a recovery, into the round when batching,
// and placed at once otherwise.
func (m *legacyMaster) legacyHandleDemand(from tr, t *protocol.DemandUpdate) {
	switch {
	case m.recovering:
		m.recDem = append(m.recDem, demandRec{from: from, upd: protocol.DemandUpdate{
			App: t.App, Deltas: slices.Clone(t.Deltas), Seq: t.Seq}})
	case m.cfg.BatchWindow > 0:
		n := len(m.pendHints)
		m.pendHints = append(m.pendHints, t.Deltas...)
		m.pendDem = append(m.pendDem, demandRec{from: from, upd: protocol.DemandUpdate{
			App: t.App, Deltas: m.pendHints[n:len(m.pendHints):len(m.pendHints)], Seq: t.Seq}})
		m.legacyArmFlush()
	default:
		ds := m.decisions()
		if st := m.appFrom(from, t.App); st != nil {
			m.applyRuns(st, t.Deltas, ds)
		}
		m.legacyDispatch(*ds)
	}
}

func (m *legacyMaster) legacyArmFlush() {
	if !m.flushArm {
		m.flushArm = true
		m.eng.PostFunc(m.cfg.BatchWindow, m.legacyFlushRound)
	}
}

func (m *legacyMaster) legacyFlushRound() {
	m.flushArm = false
	if !m.primary || m.crashed {
		return
	}
	if m.recovering {
		m.deferRound()
		return
	}
	ds := m.decisions()
	if len(m.pendRet) > 0 {
		touched := m.legacyApplyReleases(m.pendRet)
		m.sched.assignOnIDsInto(touched, ds)
	}
	m.placeRound(ds)
	m.dropRound()
	m.legacyDispatch(*ds)
}

// deferRound reroutes a round flushed during a recovery through the
// recovery buffers, the demand grouped by app in name order.
func (m *legacyMaster) deferRound() {
	n := len(m.recDem)
	m.recDem = append(m.recDem, m.pendDem...)
	moved := m.recDem[n:]
	for i := range moved {
		moved[i].upd.Deltas = slices.Clone(moved[i].upd.Deltas) // out of the round's arena
	}
	sort.SliceStable(moved, func(i, j int) bool { return moved[i].upd.App < moved[j].upd.App })
	m.recRet = append(m.recRet, m.pendRet...)
	m.dropRound()
}

func (m *Master) legacyUnregister(from tr, app string) {
	if m.recovering {
		m.recUnreg = append(m.recUnreg, unregRec{app: app, from: from})
		return
	}
	st := m.sched.apps[app]
	if st != nil {
		for i := range st.unitArr {
			u := &st.unitArr[i]
			for _, c := range u.granted.Cells() {
				m.openCapacity(int32(c.Key), protocol.CapacityEntry{
					App: int32(st.ep), UnitID: u.def.ID, Size: u.def.Size, Count: -c.Val,
				})
			}
		}
		m.byEP[st.ep] = nil
	}
	m.flushCapacity()
	ds := m.decisions()
	if st != nil {
		m.sched.unregister(st, ds)
	}
	m.ckpt.RemoveApp(app)
	m.legacyDispatch(*ds)
	ack := transport.Acquire[protocol.UnregisterAck](m.net)
	ack.App, ack.Epoch, ack.Seq = app, m.epoch, m.seq.Next()
	m.net.SendID(m.epID, from, ack)
}

func (m *legacyMaster) legacyFinishRecovery() {
	m.recovering = false
	dem, ret, unreg := m.recDem, m.recRet, m.recUnreg
	m.recDem, m.recRet, m.recUnreg = nil, nil, nil
	var ds []Decision
	m.legacyApplyReleases(ret)
	for _, r := range dem {
		if st := m.sched.apps[r.upd.App]; st != nil {
			m.applyRuns(st, r.upd.Deltas, &ds)
		}
	}
	m.legacyDispatch(ds)
	for _, r := range unreg {
		m.legacyUnregister(r.from, r.app)
	}
	m.legacyDispatch(m.sched.AssignOnAll())
}

// legacyHandle stands in front of the legacy world's master: demand updates
// and unregisters take the legacy paths, the rest the shipped handler. The
// script sends its returns in updates of their own.
func (m *legacyMaster) legacyHandle(from tr, msg transport.Message) {
	switch t := msg.(type) {
	case *protocol.DemandUpdate:
		if !t.WellFormed() || m.dedup.ObserveCh(int32(from), protocol.ChanDem, t.Seq) == protocol.Duplicate {
			return
		}
		if len(t.Returns) == 0 {
			m.legacyHandleDemand(from, t)
			return
		}
		var rets []returnRec
		for _, r := range t.Returns {
			rets = append(rets, returnRec{ret: r, app: t.App, from: from})
		}
		m.legacyHandleReturns(rets)
	case *protocol.UnregisterApp:
		if m.dedup.ObserveCh(int32(from), protocol.ChanUnreg, t.Seq) == protocol.Duplicate {
			return
		}
		m.legacyUnregister(from, t.App)
	default:
		m.handle(from, msg)
	}
}

// capMsg is one CapacityDelta as an agent received it.
type capMsg struct {
	at      sim.Time
	seq     uint64
	entries []protocol.CapacityEntry
}

// fanoutWorld is one master under the fan-out script, with recording
// endpoints for every agent and app.
type fanoutWorld struct {
	eng    *sim.Engine
	net    *transport.Net
	m      *Master
	legacy *legacyMaster          // the legacy world's master (nil in the shipped world)
	caps   [][]capMsg             // by machine ID, every CapacityDelta in arrival order
	grants []protocol.GrantUpdate // every GrantUpdate the apps received, in order
}

// fanoutApps: two quota groups with guaranteed halves, priorities far apart
// inside group A so its late high-priority demand preempts.
var fanoutApps = []struct {
	name, group string
	units       []resource.ScheduleUnit
}{
	{"lo", "A", []resource.ScheduleUnit{unit(1, 500, 40, 2000, 8192)}},
	{"hi", "A", []resource.ScheduleUnit{unit(1, 10, 20, 1000, 4096)}},
	{"b1", "B", []resource.ScheduleUnit{unit(1, 100, 30, 1000, 8192), unit(2, 200, 10, 3000, 16384)}},
	{"b2", "B", []resource.ScheduleUnit{unit(1, 100, 30, 2000, 4096)}},
}

func newFanoutWorld(t *testing.T, batch sim.Time, legacy bool) *fanoutWorld {
	t.Helper()
	eng := sim.NewEngine(1)
	w := &fanoutWorld{eng: eng, net: transport.NewNet(eng)}
	top := testTop(t, 2, 3)
	half := resource.New(6*12000/2, 6*96*1024/2)
	cfg := Config{ProcessName: "fm-1"}
	cfg.BatchWindow = batch
	cfg.Sched = Options{EnablePreemption: true, Groups: map[string]resource.Vector{"A": half, "B": half}}
	w.m = NewMaster(cfg, eng, w.net, lockservice.New(eng), top, NewCheckpointStore())
	w.caps = make([][]capMsg, top.Size())
	for id := int32(0); id < int32(top.Size()); id++ {
		w.net.Register(protocol.AgentEndpoint(top.MachineName(id)), func(_ tr, msg transport.Message) {
			if cd, ok := msg.(*protocol.CapacityDelta); ok {
				w.caps[id] = append(w.caps[id], capMsg{at: eng.Now(), seq: cd.Seq, entries: slices.Clone(cd.Entries)})
			}
		})
	}
	eng.Run(10 * sim.Millisecond)
	if legacy {
		w.legacy = &legacyMaster{Master: w.m}
		w.net.Register(protocol.MasterEndpoint, w.legacy.legacyHandle)
	}
	for _, a := range fanoutApps {
		w.net.Register(a.name, func(_ tr, msg transport.Message) {
			if gu, ok := protocol.Keep(msg).(protocol.GrantUpdate); ok {
				w.grants = append(w.grants, gu)
			}
		})
	}
	return w
}

// twin returns a copy of a pooled message, payloads included, for one of
// several worlds a script speaks to: each network clears what it delivers,
// and the script's payload slices may be shared.
func twin(msg transport.Message) transport.Message {
	k := reflect.ValueOf(protocol.Keep(msg))
	p := reflect.New(k.Type())
	p.Elem().Set(k)
	return p.Interface()
}

// TestFanoutMatchesSendOnReleaseOracle drives the shipped fan-out and demand
// path and the legacy world's — send-on-release, the immediate step and the
// recovery's own buffers — through one seeded script — demand
// updates, single and multi-machine returns, unregisters and
// re-registrations, preemption across and inside quota groups, machine
// deaths and recoveries that revoke, and recovery windows that buffer all of
// it and replay it at their end — with and without batched rounds. At every
// instant an agent hears the master, the entries it receives must be the
// oracle's, in the oracle's order, in one CapacityDelta — a recovery's
// replay, several steps at one instant, included — and its capacity sequence
// has no gap. The grant updates and the scheduler's state must match after
// every step.
func TestFanoutMatchesSendOnReleaseOracle(t *testing.T) {
	for _, batch := range []sim.Time{0, 20 * sim.Millisecond} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("batch=%v/seed=%d", batch, seed), func(t *testing.T) {
				fanoutMatchesOracle(t, seed, batch)
			})
		}
	}
}

func fanoutMatchesOracle(t *testing.T, seed int64, batch sim.Time) {
	ws := [2]*fanoutWorld{newFanoutWorld(t, batch, false), newFanoutWorld(t, batch, true)}
	rng := rand.New(rand.NewSource(seed))
	top := ws[0].m.top
	machines, racks := top.Machines(), top.NumRacks()
	seqs := make([]protocol.Sequencer, len(fanoutApps))
	registered := make([]bool, len(fanoutApps))
	send := func(app string, msg transport.Message) {
		for _, w := range ws {
			w.net.SendID(w.net.Endpoint(app), w.net.Endpoint(protocol.MasterEndpoint), twin(msg))
		}
	}
	register := func(i int) {
		a := fanoutApps[i]
		send(a.name, &protocol.RegisterApp{App: a.name, QuotaGroup: a.group, Units: a.units, Seq: seqs[i].Next()})
		registered[i] = true
	}
	for i := range fanoutApps {
		register(i)
	}
	// recovery is the step at which an open recovery window replays (0: no
	// window open). The script's own steps — a machine's death or return, a
	// replay — run as engine events, as the master's timers and handlers do,
	// so the shipped world's instant ends after them.
	recovery := 0
	var doubles, shippedMsgs, legacyMsgs int
	for step := 0; step < 400; step++ {
		ai := rng.Intn(len(fanoutApps))
		a := fanoutApps[ai]
		unitID := a.units[rng.Intn(len(a.units))].ID
		switch r := rng.Intn(100); {
		case !registered[ai]:
			register(ai)
		case r < 40:
			hints := make([]resource.LocalityHint, 1+rng.Intn(2))
			for i := range hints {
				switch rng.Intn(4) {
				case 0:
					hints[i] = resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(rng.Intn(len(machines)))}
				case 1:
					hints[i] = resource.LocalityHint{Type: resource.LocalityRack, Node: int32(rng.Intn(racks))}
				default:
					hints[i] = resource.LocalityHint{Type: resource.LocalityCluster}
				}
				if hints[i].Count = rng.Intn(8) - 2; hints[i].Count >= 0 {
					hints[i].Count++ // a zero count makes the update malformed
				}
			}
			send(a.name, &protocol.DemandUpdate{App: a.name, Deltas: unitHints(unitID, hints...), Seq: seqs[ai].Next()})
		case r < 75:
			cells := ws[0].m.sched.GrantedCells(a.name, unitID)
			if len(cells) == 0 {
				break
			}
			b := &protocol.DemandUpdate{App: a.name, Seq: seqs[ai].Next()}
			for _, c := range cells {
				if len(b.Returns) == 0 || rng.Intn(3) == 0 {
					b.Returns = append(b.Returns, protocol.ReturnEntry{UnitID: unitID, Machine: int32(c.Key), Count: 1 + rng.Intn(c.Val)})
				}
			}
			send(a.name, b)
		case r < 82:
			send(a.name, &protocol.UnregisterApp{App: a.name, Seq: seqs[ai].Next()})
			registered[ai] = false
		case r < 90:
			mc := int32(rng.Intn(len(machines)))
			for _, w := range ws {
				w.eng.PostFunc(0, func() {
					var ds []Decision
					if w.m.sched.Down(mc) {
						ds = w.m.sched.MachineUp(mc)
					} else {
						ds = w.m.sched.MachineDown(mc)
					}
					if w.legacy != nil {
						w.m.legacyDispatch(ds)
					} else {
						w.m.dispatch(ds)
					}
				})
			}
		case r < 93 && recovery == 0:
			// A recovery window opens: what arrives until it closes is
			// buffered, then replayed by finishRecovery in one burst.
			for _, w := range ws {
				w.m.recovering = true
			}
			recovery = step + 3 + rng.Intn(6)
		}
		if step == recovery {
			ws[0].eng.PostFunc(0, ws[0].m.finishRecovery)
			ws[1].eng.PostFunc(0, ws[1].legacy.legacyFinishRecovery)
			recovery = 0
		}
		// Steps are whole milliseconds plus an odd offset, so an action never
		// lands on the instant a batched round flushes.
		d := sim.Time(1+rng.Intn(60))*sim.Millisecond + 37*sim.Microsecond
		for _, w := range ws {
			w.eng.Run(w.eng.Now() + d)
		}

		if !reflect.DeepEqual(ws[0].grants, ws[1].grants) {
			t.Fatalf("step %d: grant updates diverged\n shipped %+v\n oracle  %+v", step, ws[0].grants, ws[1].grants)
		}
		for mc := range machines {
			got, want := ws[0].caps[mc], ws[1].caps[mc]
			for i, c := range got {
				if c.seq != uint64(i+1) {
					t.Fatalf("step %d: machine %d's CapacityDelta %d has seq %d", step, mc, i, c.seq)
				}
				if i > 0 && got[i-1].at == c.at {
					t.Fatalf("step %d: machine %d got two CapacityDeltas at %v: %+v / %+v", step, mc, c.at, got[i-1], c)
				}
			}
			for i := 1; i < len(want); i++ {
				if want[i-1].at == want[i].at {
					doubles++
				}
			}
			if g, o := byInstant(got), byInstant(want); !reflect.DeepEqual(g, o) {
				t.Fatalf("step %d: machine %d's capacity stream diverged\n shipped %v\n oracle  %v", step, mc, g, o)
			}
		}
		for _, a := range fanoutApps {
			for _, u := range a.units {
				s0, s1 := ws[0].m.sched, ws[1].m.sched
				if !slices.Equal(s0.GrantedCells(a.name, u.ID), s1.GrantedCells(a.name, u.ID)) ||
					!reflect.DeepEqual(s0.WaitingNodes(a.name, u.ID), s1.WaitingNodes(a.name, u.ID)) {
					t.Fatalf("step %d: %s unit %d diverged", step, a.name, u.ID)
				}
			}
		}
		for i, w := range ws {
			if bad := w.m.sched.CheckAllInvariants(); len(bad) > 0 {
				t.Fatalf("step %d: world %d invariants: %v", step, i, bad)
			}
		}
	}
	for mc := range machines {
		shippedMsgs += len(ws[0].caps[mc])
		legacyMsgs += len(ws[1].caps[mc])
	}
	revokes := 0
	for _, gu := range ws[0].grants {
		for _, ch := range gu.Changes {
			if ch.Delta < 0 {
				revokes++
			}
		}
	}
	// The script must have exercised what it claims to: releases regranted
	// on the same machine (the oracle's doubles) and revocations.
	if doubles == 0 || revokes == 0 || shippedMsgs >= legacyMsgs {
		t.Fatalf("vacuous script: %d oracle doubles, %d revocations, %d shipped vs %d oracle CapacityDeltas",
			doubles, revokes, shippedMsgs, legacyMsgs)
	}
}

// byInstant concatenates an agent's capacity entries per arrival instant:
// what the agent's ledger saw happen at each instant, however many messages
// carried it.
func byInstant(msgs []capMsg) map[sim.Time][]protocol.CapacityEntry {
	out := map[sim.Time][]protocol.CapacityEntry{}
	for _, c := range msgs {
		out[c.at] = append(out[c.at], c.entries...)
	}
	return out
}

// TestReturnAndRegrantShareOneCapacityDelta: on a one-machine cluster that
// app A fills and app B waits for, A's release — by a return, immediate or
// batched, or by its unregister — and B's regrant of the freed machine reach
// the agent as one CapacityDelta, the release first.
func TestReturnAndRegrantShareOneCapacityDelta(t *testing.T) {
	full := []resource.ScheduleUnit{unit(1, 100, 1, 12000, 8192)}
	release := map[string]func(seq uint64) transport.Message{
		"return": func(seq uint64) transport.Message {
			return &protocol.DemandUpdate{App: "A", Seq: seq, Returns: []protocol.ReturnEntry{{UnitID: 1, Machine: 0, Count: 1}}}
		},
		"unregister": func(seq uint64) transport.Message { return &protocol.UnregisterApp{App: "A", Seq: seq} },
	}
	for _, tc := range []struct {
		name  string
		batch sim.Time
	}{{"return", 0}, {"return", 20 * sim.Millisecond}, {"unregister", 0}} {
		t.Run(fmt.Sprintf("%s/batch=%v", tc.name, tc.batch), func(t *testing.T) {
			eng := sim.NewEngine(1)
			net := transport.NewNet(eng)
			top := testTop(t, 1, 1)
			cfg := Config{ProcessName: "fm-1"}
			cfg.BatchWindow = tc.batch
			m := NewMaster(cfg, eng, net, lockservice.New(eng), top, NewCheckpointStore())
			var caps []capMsg
			net.Register(protocol.AgentEndpoint(top.MachineName(0)), func(_ tr, msg transport.Message) {
				if cd, ok := msg.(*protocol.CapacityDelta); ok {
					caps = append(caps, capMsg{at: eng.Now(), seq: cd.Seq, entries: slices.Clone(cd.Entries)})
				}
			})
			eng.Run(10 * sim.Millisecond)
			var seqA, seqB protocol.Sequencer
			step := func(from string, msg transport.Message) {
				net.SendID(net.Endpoint(from), net.Endpoint(protocol.MasterEndpoint), msg)
				eng.Run(eng.Now() + 50*sim.Millisecond)
			}
			cluster1 := []resource.LocalityHint{{Type: resource.LocalityCluster, Count: 1}}
			for _, app := range []struct {
				name string
				seq  *protocol.Sequencer
			}{{"A", &seqA}, {"B", &seqB}} {
				net.Register(app.name, func(tr, transport.Message) {})
				step(app.name, &protocol.RegisterApp{App: app.name, Units: full, Seq: app.seq.Next()})
				step(app.name, &protocol.DemandUpdate{App: app.name, Deltas: unitHints(1, cluster1...), Seq: app.seq.Next()})
			}
			if m.sched.Held("A", 1) != 1 || m.sched.Held("B", 1) != 0 {
				t.Fatalf("setup: A holds %d, B holds %d; want 1, 0", m.sched.Held("A", 1), m.sched.Held("B", 1))
			}
			before := len(caps)
			step("A", release[tc.name](seqA.Next()))
			size := full[0].Size
			want := []protocol.CapacityEntry{
				{App: int32(net.Endpoint("A")), UnitID: 1, Size: size, Count: -1},
				{App: int32(net.Endpoint("B")), UnitID: 1, Size: size, Count: 1},
			}
			if got := caps[before:]; len(got) != 1 || !reflect.DeepEqual(got[0].entries, want) {
				t.Fatalf("agent received %+v, want one CapacityDelta %+v", got, want)
			}
			if m.sched.Held("B", 1) != 1 {
				t.Fatalf("B holds %d after the release, want 1", m.sched.Held("B", 1))
			}
		})
	}
}

// TestOneCapacityDeltaPerAgentPerInstant: two zero-width rounds that land at
// one instant, each releasing a container on the one machine and regranting
// it, reach the agent as one CapacityDelta: the first round's release and
// regrant, then the second's — the entries the two per-round messages
// carried, in their order.
func TestOneCapacityDeltaPerAgentPerInstant(t *testing.T) {
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	top := testTop(t, 1, 1)
	m := NewMaster(Config{ProcessName: "fm-1"}, eng, net, lockservice.New(eng), top, NewCheckpointStore())
	var caps []capMsg
	net.Register(protocol.AgentEndpoint(top.MachineName(0)), func(_ tr, msg transport.Message) {
		if cd, ok := msg.(*protocol.CapacityDelta); ok {
			caps = append(caps, capMsg{at: eng.Now(), seq: cd.Seq, entries: slices.Clone(cd.Entries)})
		}
	})
	eng.Run(10 * sim.Millisecond)
	half := []resource.ScheduleUnit{unit(1, 100, 2, 6000, 8192)}
	var seqA, seqB protocol.Sequencer
	send := func(from string, msg transport.Message) {
		net.SendID(net.Endpoint(from), net.Endpoint(protocol.MasterEndpoint), msg)
	}
	cluster2 := []resource.LocalityHint{{Type: resource.LocalityCluster, Count: 2}}
	for _, app := range []struct {
		name string
		seq  *protocol.Sequencer
	}{{"A", &seqA}, {"B", &seqB}} {
		net.Register(app.name, func(tr, transport.Message) {})
		send(app.name, &protocol.RegisterApp{App: app.name, Units: half, Seq: app.seq.Next()})
		send(app.name, &protocol.DemandUpdate{App: app.name, Deltas: unitHints(1, cluster2...), Seq: app.seq.Next()})
		eng.Run(eng.Now() + 50*sim.Millisecond)
	}
	if m.sched.Held("A", 1) != 2 || m.sched.Held("B", 1) != 0 {
		t.Fatalf("setup: A holds %d, B holds %d; want 2, 0", m.sched.Held("A", 1), m.sched.Held("B", 1))
	}
	before := len(caps)
	for range 2 {
		send("A", &protocol.DemandUpdate{App: "A", Seq: seqA.Next(), Returns: []protocol.ReturnEntry{{UnitID: 1, Machine: 0, Count: 1}}})
	}
	eng.Run(eng.Now() + 50*sim.Millisecond)
	if passes, _, _ := m.SchedStats(); passes < 2 {
		t.Fatalf("%d scheduling rounds, want the two updates flushed as rounds of their own", passes)
	}
	a, b, size := int32(net.Endpoint("A")), int32(net.Endpoint("B")), half[0].Size
	want := []protocol.CapacityEntry{
		{App: a, UnitID: 1, Size: size, Count: -1}, {App: b, UnitID: 1, Size: size, Count: 1},
		{App: a, UnitID: 1, Size: size, Count: -1}, {App: b, UnitID: 1, Size: size, Count: 1},
	}
	if got := caps[before:]; len(got) != 1 || !reflect.DeepEqual(got[0].entries, want) {
		t.Fatalf("agent received %+v, want one CapacityDelta %+v", got, want)
	}
	if m.sched.Held("A", 1) != 0 || m.sched.Held("B", 1) != 2 {
		t.Fatalf("after the returns A holds %d, B holds %d; want 0, 2", m.sched.Held("A", 1), m.sched.Held("B", 1))
	}
}

// TestStandDownFlushesOpenFanout: capacity changes a term made in its last
// instant leave with its epoch when it stands down in that instant, before
// the end-of-instant flush would have sent them, and the flush that then
// fires sends nothing more.
func TestStandDownFlushesOpenFanout(t *testing.T) {
	w := newFanoutWorld(t, 0, false)
	m := w.m
	a := fanoutApps[0]
	w.net.SendID(w.net.Endpoint(a.name), w.net.Endpoint(protocol.MasterEndpoint), &protocol.RegisterApp{App: a.name, QuotaGroup: a.group, Units: a.units, Seq: 1})
	w.net.SendID(w.net.Endpoint(a.name), w.net.Endpoint(protocol.MasterEndpoint), &protocol.DemandUpdate{App: a.name, Seq: 2,
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityMachine, Node: 0, Count: 2})})
	w.eng.Run(w.eng.Now() + 10*sim.Millisecond)
	if m.sched.Held(a.name, 1) != 2 {
		t.Fatalf("setup: %s holds %d, want 2", a.name, m.sched.Held(a.name, 1))
	}
	before, epoch := len(w.caps[0]), m.Epoch()
	var cds []protocol.CapacityDelta
	w.net.Tap = func(_, _ string, msg transport.Message) {
		if cd, ok := protocol.Keep(msg).(protocol.CapacityDelta); ok {
			cds = append(cds, cd)
		}
	}
	w.eng.PostFunc(0, func() {
		m.applyReleases([]returnRec{{from: m.net.Endpoint(a.name), app: a.name, ret: protocol.ReturnEntry{UnitID: 1, Machine: 0, Count: 1}}})
		if len(cds) != 0 || len(m.dsp.opened) != 1 {
			t.Errorf("release sent %d messages and left %d open; want 0 sent, 1 open", len(cds), len(m.dsp.opened))
		}
		m.Crash()
		if len(cds) != 1 || len(m.dsp.opened) != 0 {
			t.Errorf("stand-down sent %d messages and left %d open; want 1 sent, 0 open", len(cds), len(m.dsp.opened))
		}
	})
	w.eng.Run(w.eng.Now() + 10*sim.Millisecond)
	if len(cds) != 1 || cds[0].Epoch != epoch {
		t.Fatalf("sent %+v, want one CapacityDelta of epoch %d", cds, epoch)
	}
	got := w.caps[0][before:]
	if len(got) != 1 || len(got[0].entries) != 1 || got[0].entries[0].Count != -1 {
		t.Fatalf("agent received %+v, want one CapacityDelta releasing 1", got)
	}
}

// TestCapacitySyncSendsItsAgentsOpenDeltaFirst: a capacity sync taken while
// its agent's CapacityDelta of the instant is still open sends that delta
// first, numbered below the sync — the sync's table already holds the
// delta's entries, and a delta numbered after it would apply them twice.
// Another agent's open delta waits for the instant's end.
func TestCapacitySyncSendsItsAgentsOpenDeltaFirst(t *testing.T) {
	w := newFanoutWorld(t, 0, false)
	m := w.m
	type sent struct {
		to   string
		kind string
		seq  uint64
	}
	var got []sent
	w.net.Tap = func(_, to string, msg transport.Message) {
		switch c := msg.(type) {
		case *protocol.CapacityDelta:
			got = append(got, sent{to, "delta", c.Seq})
		case protocol.CapacitySync:
			got = append(got, sent{to, "sync", c.Seq})
		}
	}
	ep := int32(w.net.Endpoint(fanoutApps[0].name))
	w.eng.PostFunc(0, func() {
		m.openCapacity(0, protocol.CapacityEntry{App: ep, UnitID: 1, Count: 1})
		m.openCapacity(1, protocol.CapacityEntry{App: ep, UnitID: 1, Count: 1})
		m.sendCapacitySync(0)
	})
	w.eng.Run(w.eng.Now() + 10*sim.Millisecond)
	a0, a1 := protocol.AgentEndpoint(m.top.MachineName(0)), protocol.AgentEndpoint(m.top.MachineName(1))
	want := []sent{{a0, "delta", 1}, {a0, "sync", 2}, {a1, "delta", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sent %+v, want %+v", got, want)
	}
}
