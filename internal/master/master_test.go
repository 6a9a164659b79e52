package master

import (
	"sort"
	"testing"

	"repro/internal/lockservice"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// masterHarness wires one or two Master processes with a scripted AM and
// agent side, for focused protocol tests below the core integration level.
type masterHarness struct {
	eng   *sim.Engine
	net   *transport.Net
	lock  *lockservice.Service
	ckpt  *CheckpointStore
	top   *topology.Topology
	m1    *Master
	toApp []transport.Message
	seq   protocol.Sequencer
}

func newMasterHarness(t *testing.T, cfg Config) *masterHarness {
	t.Helper()
	return newMasterHarnessOn(t, cfg, testTop(t, 2, 2))
}

// newMasterHarnessOn is newMasterHarness over the topology top.
func newMasterHarnessOn(t *testing.T, cfg Config, top *topology.Topology) *masterHarness {
	t.Helper()
	eng := sim.NewEngine(9)
	h := &masterHarness{
		eng:  eng,
		net:  transport.NewNet(eng),
		lock: lockservice.New(eng),
		ckpt: NewCheckpointStore(),
	}
	h.top = top
	h.m1 = NewMaster(cfg, eng, h.net, h.lock, h.top, h.ckpt)
	h.net.Register("app1", func(_ transport.EndpointID, m transport.Message) {
		h.toApp = append(h.toApp, protocol.Keep(m)) // pooled messages end with the handler
	})
	return h
}

func (h *masterHarness) send(msg transport.Message) {
	h.sendFrom("app1", msg)
}

// sendFrom delivers msg to the master from the endpoint named from.
func (h *masterHarness) sendFrom(from string, msg transport.Message) {
	h.net.SendID(h.net.Endpoint(from), h.net.Endpoint(protocol.MasterEndpoint), msg)
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
}

// unitHints is one unit's run of a DemandUpdate payload.
func unitHints(unitID int, hints ...resource.LocalityHint) []protocol.UnitHint {
	out := make([]protocol.UnitHint, len(hints))
	for i, h := range hints {
		out[i] = protocol.UnitHint{UnitID: unitID, LocalityHint: h}
	}
	return out
}

func (h *masterHarness) registerApp(t *testing.T) {
	t.Helper()
	h.send(&protocol.RegisterApp{
		App: "app1",
		Units: []resource.ScheduleUnit{
			{ID: 1, Priority: 100, MaxCount: 100, Size: resource.New(1000, 2048)},
		},
		Seq: h.seq.Next(),
	})
}

// TestUnregisterBufferedDuringRecovery pins the orphaned-capacity race: an
// UnregisterApp that reaches a promoted successor before the agents' restore
// reports must be buffered to the end of the recovery window — processing it
// against the half-restored ledger would release nothing, and the restores
// arriving afterwards would be dropped as unknown-app, stranding the agents'
// capacity entries forever.
func TestUnregisterBufferedDuringRecovery(t *testing.T) {
	eng := sim.NewEngine(9)
	net := transport.NewNet(eng)
	lock := lockservice.New(eng)
	ckpt := NewCheckpointStore()
	top := testTop(t, 2, 2)
	m1 := NewMaster(Config{ProcessName: "fm-1"}, eng, net, lock, top, ckpt)
	m2 := NewMaster(Config{ProcessName: "fm-2"}, eng, net, lock, top, ckpt)

	// Scripted agent endpoints record every capacity change; no automatic
	// heartbeats, so the test controls exactly when restore reports land.
	agentMsgs := map[string][]protocol.CapacityEntry{}
	for _, mc := range top.Machines() {
		mc := mc
		net.Register(protocol.AgentEndpoint(mc), func(_ transport.EndpointID, msg transport.Message) {
			if cd, ok := msg.(*protocol.CapacityDelta); ok {
				agentMsgs[mc] = append(agentMsgs[mc], cd.Entries...)
			}
		})
	}
	var appSeq protocol.Sequencer
	net.Register("app1", func(transport.EndpointID, transport.Message) {})
	net.SendID(net.Endpoint("app1"), net.Endpoint(protocol.MasterEndpoint), &protocol.RegisterApp{
		App: "app1", Units: []resource.ScheduleUnit{
			{ID: 1, Priority: 100, MaxCount: 8, Size: resource.New(1000, 2048)},
		}, Seq: appSeq.Next(),
	})
	eng.Run(eng.Now() + 10*sim.Millisecond)
	net.SendID(net.Endpoint("app1"), net.Endpoint(protocol.MasterEndpoint), &protocol.DemandUpdate{
		App:    "app1",
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 4}),
		Seq:    appSeq.Next(),
	})
	eng.Run(eng.Now() + 10*sim.Millisecond)
	granted := m1.Scheduler().Granted("app1", 1)
	if len(granted) == 0 {
		t.Fatal("setup: no grants")
	}

	m1.Crash()
	for m2.Epoch() != 2 {
		if eng.Now() > 10*sim.Second {
			t.Fatal("standby never promoted")
		}
		eng.Run(eng.Now() + 100*sim.Microsecond)
	}
	// The race: the unregister reaches the successor first ...
	net.SendID(net.Endpoint("app1"), net.Endpoint(protocol.MasterEndpoint), &protocol.UnregisterApp{App: "app1", Seq: appSeq.Next()})
	eng.Run(eng.Now() + sim.Millisecond)
	// ... and only then do the agents re-send their allocation reports.
	for mc, n := range granted {
		net.SendID(net.Endpoint(protocol.AgentEndpoint(mc)), net.Endpoint(protocol.MasterEndpoint), &protocol.AgentHeartbeat{
			Machine: top.MachineID(mc), Full: true,
			Allocations: []protocol.AllocDelta{{App: int32(net.Endpoint("app1")), UnitID: 1, Count: n}},
			HealthScore: 100, Seq: 1,
		})
	}
	eng.Run(eng.Now() + 5*sim.Second) // past the recovery window

	for mc, n := range granted {
		released := 0
		for _, e := range agentMsgs[mc] {
			if e.App == int32(net.Endpoint("app1")) && e.Count < 0 {
				released -= e.Count
			}
		}
		if released < n {
			t.Errorf("machine %s: agents told to release %d of %d containers held for the unregistered app",
				mc, released, n)
		}
	}
	if m2.Scheduler().Registered("app1") {
		t.Error("app still registered after buffered unregister replay")
	}
	if bad := m2.Scheduler().CheckInvariants(); len(bad) > 0 {
		t.Errorf("invariants violated: %v", bad)
	}
}

func TestMasterCheckpointOnlyOnJobBoundaries(t *testing.T) {
	h := newMasterHarness(t, Config{ProcessName: "fm-1"})
	h.registerApp(t)
	w := h.ckpt.Writes
	// The scheduling fast path — demand, grants, returns — must not touch
	// the checkpoint store (paper §4.3.1's light-weighted checkpoint).
	for i := 0; i < 10; i++ {
		h.send(&protocol.DemandUpdate{App: "app1",
			Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 1}),
			Seq:    h.seq.Next()})
	}
	if h.ckpt.Writes != w {
		t.Errorf("fast path wrote %d checkpoints", h.ckpt.Writes-w)
	}
	h.send(&protocol.UnregisterApp{App: "app1", Seq: h.seq.Next()})
	if h.ckpt.Writes == w {
		t.Error("job stop did not checkpoint")
	}
}

func TestMasterBatchWindowMergesDemand(t *testing.T) {
	cfg := Config{ProcessName: "fm-1"}
	cfg.BatchWindow = 50 * sim.Millisecond
	h := newMasterHarness(t, cfg)
	h.registerApp(t)
	// A burst of 20 single-container updates inside one window.
	for i := 0; i < 20; i++ {
		h.net.SendID(h.net.Endpoint("app1"), h.net.Endpoint(protocol.MasterEndpoint), &protocol.DemandUpdate{
			App:    "app1",
			Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 1}),
			Seq:    h.seq.Next(),
		})
	}
	h.eng.Run(h.eng.Now() + sim.Second)
	// One merged scheduling pass, all 20 granted.
	if calls, total, peak := h.m1.SchedStats(); calls != 1 || peak != total {
		t.Errorf("scheduler invocations = %d (total %d ns, largest %d ns), want 1 (merged)", calls, total, peak)
	}
	if held := h.m1.Scheduler().Held("app1", 1); held != 20 {
		t.Errorf("held = %d, want 20", held)
	}
}

// TestMasterBatchWindowCoalescesReturns pins the batched-round shape: a
// burst of coalesced returns inside one window is applied as one release
// batch, the freed capacity reaches queued demand through a single wide
// sweep, and the whole round costs one scheduler invocation.
func TestMasterBatchWindowCoalescesReturns(t *testing.T) {
	cfg := Config{ProcessName: "fm-1"}
	cfg.BatchWindow = 50 * sim.Millisecond
	h := newMasterHarness(t, cfg)
	var seq2 protocol.Sequencer
	h.net.Register("app2", func(transport.EndpointID, transport.Message) {})
	// app1 takes the whole cluster (2×2 machines × 12 containers of
	// 1000/4096 each = 48); app2 queues behind it.
	h.send(&protocol.RegisterApp{App: "app1", Units: []resource.ScheduleUnit{
		{ID: 1, Priority: 100, MaxCount: 100, Size: resource.New(1000, 4096)},
	}, Seq: h.seq.Next()})
	h.net.SendID(h.net.Endpoint("app2"), h.net.Endpoint(protocol.MasterEndpoint), &protocol.RegisterApp{
		App: "app2", Units: []resource.ScheduleUnit{
			{ID: 1, Priority: 100, MaxCount: 100, Size: resource.New(1000, 4096)},
		}, Seq: seq2.Next()})
	h.send(&protocol.DemandUpdate{App: "app1",
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 48}),
		Seq:    h.seq.Next()})
	h.eng.Run(h.eng.Now() + sim.Second)
	if held := h.m1.Scheduler().Held("app1", 1); held != 48 {
		t.Fatalf("app1 held = %d, want 48 (saturated)", held)
	}
	h.net.SendID(h.net.Endpoint("app2"), h.net.Endpoint(protocol.MasterEndpoint), &protocol.DemandUpdate{
		App:    "app2",
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 20}),
		Seq:    seq2.Next()})
	h.eng.Run(h.eng.Now() + sim.Second)
	if waiting := h.m1.Scheduler().Waiting("app2", 1); waiting != 20 {
		t.Fatalf("app2 waiting = %d, want 20", waiting)
	}
	before, _, _ := h.m1.SchedStats()

	// One update returns 5 containers on each of 4 machines.
	granted := h.m1.Scheduler().Granted("app1", 1)
	batch := &protocol.DemandUpdate{App: "app1", Seq: h.seq.Next()}
	machines := make([]string, 0, len(granted))
	for mc := range granted {
		machines = append(machines, mc)
	}
	sort.Strings(machines)
	for _, mc := range machines {
		batch.Returns = append(batch.Returns, protocol.ReturnEntry{UnitID: 1, Machine: h.top.MachineID(mc), Count: 5})
	}
	h.send(batch)
	h.eng.Run(h.eng.Now() + sim.Second)

	if held := h.m1.Scheduler().Held("app1", 1); held != 28 {
		t.Errorf("app1 held = %d after returns, want 28", held)
	}
	if held := h.m1.Scheduler().Held("app2", 1); held != 20 {
		t.Errorf("app2 held = %d after round, want 20 (freed capacity reassigned)", held)
	}
	if calls, _, _ := h.m1.SchedStats(); calls-before != 1 {
		t.Errorf("scheduler invocations = %d, want 1 (one round)", calls-before)
	}
}

func TestMasterBatchMergesCancellations(t *testing.T) {
	cfg := Config{ProcessName: "fm-1"}
	cfg.BatchWindow = 50 * sim.Millisecond
	h := newMasterHarness(t, cfg)
	h.registerApp(t)
	// +5 then -5 inside one window: nothing should be scheduled.
	for _, d := range []int{5, -5} {
		h.net.SendID(h.net.Endpoint("app1"), h.net.Endpoint(protocol.MasterEndpoint), &protocol.DemandUpdate{
			App:    "app1",
			Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: d}),
			Seq:    h.seq.Next(),
		})
	}
	h.eng.Run(h.eng.Now() + sim.Second)
	if held := h.m1.Scheduler().Held("app1", 1); held != 0 {
		t.Errorf("held = %d, want 0 (cancelled in batch)", held)
	}
}

func TestMasterCapacityQueryAnswersFullTable(t *testing.T) {
	h := newMasterHarness(t, Config{ProcessName: "fm-1"})
	h.registerApp(t)
	h.send(&protocol.DemandUpdate{App: "app1",
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 8}),
		Seq:    h.seq.Next()})

	var sync *protocol.CapacitySync
	machine := ""
	for m, n := range h.m1.Scheduler().Granted("app1", 1) {
		if n > 0 {
			machine = m
			break
		}
	}
	if machine == "" {
		t.Fatal("nothing granted")
	}
	h.net.Register(protocol.AgentEndpoint(machine), func(_ transport.EndpointID, msg transport.Message) {
		if s, ok := msg.(protocol.CapacitySync); ok {
			sync = &s
		}
	})
	h.net.SendID(h.net.Endpoint(protocol.AgentEndpoint(machine)), h.net.Endpoint(protocol.MasterEndpoint),
		protocol.CapacityQuery{Machine: h.top.MachineID(machine), Seq: 1})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if sync == nil {
		t.Fatal("no CapacitySync reply")
	}
	want := h.m1.Scheduler().Granted("app1", 1)[machine]
	found := false
	for _, e := range sync.Entries {
		if e.App == int32(h.net.Endpoint("app1")) && e.UnitID == 1 && e.Count == want {
			found = true
		}
	}
	if !found {
		t.Errorf("sync entries = %+v, want app1/1 count %d", sync.Entries, want)
	}
}

func TestMasterDuplicateDemandIgnored(t *testing.T) {
	h := newMasterHarness(t, Config{ProcessName: "fm-1"})
	h.registerApp(t)
	// A replay is a second message carrying the same Seq: the network clears
	// each one it delivers.
	seq := h.seq.Next()
	demand := func() *protocol.DemandUpdate {
		return &protocol.DemandUpdate{App: "app1",
			Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 3}), Seq: seq}
	}
	h.send(demand())
	h.send(demand()) // replay
	if held := h.m1.Scheduler().Held("app1", 1); held != 3 {
		t.Errorf("held = %d after replay, want 3", held)
	}
}

func TestMasterDuplicateReturnIgnored(t *testing.T) {
	h := newMasterHarness(t, Config{ProcessName: "fm-1"})
	h.registerApp(t)
	h.send(&protocol.DemandUpdate{App: "app1",
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 4}),
		Seq:    h.seq.Next()})
	var machine string
	for m := range h.m1.Scheduler().Granted("app1", 1) {
		machine = m
		break
	}
	seq := h.seq.Next()
	ret := func() *protocol.DemandUpdate {
		return &protocol.DemandUpdate{App: "app1", Seq: seq,
			Returns: []protocol.ReturnEntry{{UnitID: 1, Machine: h.top.MachineID(machine), Count: 1}}}
	}
	h.send(ret())
	h.send(ret()) // replayed by the network
	if held := h.m1.Scheduler().Held("app1", 1); held != 3 {
		t.Errorf("held = %d after replayed return, want 3", held)
	}
}

// TestMasterBlacklistCapBoundsList reports every machine of a cluster one
// larger than the cap bad from two applications: the blacklist stops at the
// cap.
func TestMasterBlacklistCapBoundsList(t *testing.T) {
	h := newMasterHarnessOn(t, Config{ProcessName: "fm-1"}, testTop(t, 3, (blacklistCap+3)/3))
	if h.top.Size() <= blacklistCap {
		t.Fatalf("setup: %d machines, want more than the cap of %d", h.top.Size(), blacklistCap)
	}
	var seqs [2]protocol.Sequencer
	for i, app := range []string{"app1", "app2"} {
		for id := int32(0); id < int32(h.top.Size()); id++ {
			h.sendFrom(app, protocol.BadMachineReport{App: app, Machine: id, Seq: seqs[i].Next()})
		}
	}
	count := 0
	for _, m := range h.top.Machines() {
		if h.m1.Scheduler().Blacklisted(m) {
			count++
		}
	}
	if count != blacklistCap {
		t.Errorf("blacklisted = %d of %d, want capped at %d", count, h.top.Size(), blacklistCap)
	}
}

// TestBadReportCountsOnlyFromItsApp pins that a bad-machine vote is taken
// only from the endpoint named after the app it names: one application
// master naming a second app is one vote, not the two distinct
// applications the cluster blacklist waits for.
func TestBadReportCountsOnlyFromItsApp(t *testing.T) {
	h := newMasterHarness(t, Config{ProcessName: "fm-1"})
	mc := h.top.MachineID("r000m000")
	h.send(protocol.BadMachineReport{App: "app1", Machine: mc, Seq: h.seq.Next()})
	h.send(protocol.BadMachineReport{App: "someone-else", Machine: mc, Seq: h.seq.Next()})
	if h.m1.Scheduler().Blacklisted("r000m000") {
		t.Fatal("one endpoint naming two apps blacklisted the machine")
	}
	var seq protocol.Sequencer
	h.sendFrom("someone-else", protocol.BadMachineReport{App: "someone-else", Machine: mc, Seq: seq.Next()})
	if !h.m1.Scheduler().Blacklisted("r000m000") {
		t.Fatal("votes from two apps' own endpoints did not blacklist the machine")
	}
}

func TestMasterDemotesWhenLeaseLost(t *testing.T) {
	cfg := Config{ProcessName: "fm-1"}
	h := newMasterHarness(t, cfg)
	if !h.m1.IsPrimary() {
		t.Fatal("not primary at start")
	}
	// Steal the lock out from under it (models a lease lapse during a long
	// pause); the next renewal must demote the master.
	h.lock.Release(lockName, cfg.ProcessName)
	h.lock.TryAcquire(lockName, "intruder", sim.Hour)
	h.eng.Run(h.eng.Now() + 2*renewEvery)
	if h.m1.IsPrimary() {
		t.Error("master still primary after losing its lease")
	}
}

func TestMasterCrashAndRestartRejoinsElection(t *testing.T) {
	cfg := Config{ProcessName: "fm-1"}
	h := newMasterHarness(t, cfg)
	h.m1.Crash()
	if h.m1.IsPrimary() {
		t.Fatal("crashed master still primary")
	}
	h.eng.Run(h.eng.Now() + 2*LockTTL)
	h.m1.Restart()
	h.eng.Run(h.eng.Now() + 2*LockTTL)
	if !h.m1.IsPrimary() {
		t.Error("restarted master did not re-win the vacant election")
	}
}
