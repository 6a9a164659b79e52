package appmaster

import (
	"slices"
	"testing"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

type harness struct {
	eng      *sim.Engine
	net      *transport.Net
	top      *topology.Topology
	am       *AM
	toMaster []transport.Message
	toAgent  map[string][]transport.Message
	grants   []string
	levels   []resource.LocalityType // GrantLevel, read inside each OnGrant
	waits    []sim.Time              // GrantWait, read inside each OnGrant; -1 untimed
	revokes  []string
	statuses []protocol.WorkerStatus
}

func newHarness(t *testing.T, fullSync sim.Time) *harness {
	t.Helper()
	eng := sim.NewEngine(5)
	net := transport.NewNet(eng)
	top, err := topology.Build(topology.Spec{
		Racks: 2, MachinesPerRack: 2, MachineCapacity: resource.New(12000, 96*1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{eng: eng, net: net, top: top, toAgent: map[string][]transport.Message{}}
	net.Register(protocol.MasterEndpoint, func(_ transport.EndpointID, m transport.Message) {
		h.toMaster = append(h.toMaster, protocol.Keep(m)) // pooled messages end with the handler
	})
	for _, name := range top.Machines() {
		name := name
		net.Register(protocol.AgentEndpoint(name), func(_ transport.EndpointID, m transport.Message) {
			h.toAgent[name] = append(h.toAgent[name], protocol.Keep(m))
		})
	}
	h.am = New(Config{
		App:              "app1",
		Units:            []resource.ScheduleUnit{{ID: 1, Priority: 100, MaxCount: 20, Size: resource.New(1000, 2048)}},
		FullSyncInterval: fullSync,
	}, eng, net, top, cbFuncs{
		Grant: func(u int, m int32, c int) {
			h.grants = append(h.grants, top.MachineName(m))
			h.levels = append(h.levels, h.am.GrantLevel())
			w, ok := h.am.GrantWait()
			if !ok {
				w = -1
			}
			h.waits = append(h.waits, w)
		},
		Revoke: func(u int, m int32, c int) { h.revokes = append(h.revokes, top.MachineName(m)) },
		Worker: func(s protocol.WorkerStatus) { h.statuses = append(h.statuses, s) },
	})
	return h
}

func (h *harness) grant(machine string, delta int, seq uint64) {
	h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint("app1"), &protocol.GrantUpdate{
		App:     "app1",
		Changes: []protocol.UnitDelta{{UnitID: 1, Machine: h.top.MachineID(machine), Delta: delta}},
		Seq:     seq,
	})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
}

func TestRegistersOnStart(t *testing.T) {
	h := newHarness(t, 0)
	h.eng.Run(10 * sim.Millisecond)
	if len(h.toMaster) != 1 {
		t.Fatalf("messages = %d", len(h.toMaster))
	}
	reg, ok := h.toMaster[0].(protocol.RegisterApp)
	if !ok || reg.App != "app1" || len(reg.Units) != 1 {
		t.Errorf("register = %+v", h.toMaster[0])
	}
}

func TestRequestSendsIncrementalDelta(t *testing.T) {
	h := newHarness(t, 0)
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 10})
	h.eng.Run(10 * sim.Millisecond)
	var dem *protocol.DemandUpdate
	for _, m := range h.toMaster {
		if d, ok := m.(protocol.DemandUpdate); ok {
			dem = &d
		}
	}
	if dem == nil || dem.Deltas[0].Count != 10 {
		t.Fatalf("demand = %+v", dem)
	}
	if h.am.Outstanding(1) != 10 {
		t.Errorf("outstanding = %d", h.am.Outstanding(1))
	}
}

func TestWithdrawClampsAtZero(t *testing.T) {
	h := newHarness(t, 0)
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 5})
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: -8})
	if h.am.Outstanding(1) != 0 {
		t.Errorf("outstanding = %d, want 0", h.am.Outstanding(1))
	}
}

func TestGrantUpdatesLedgerAndOutstanding(t *testing.T) {
	h := newHarness(t, 0)
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 10})
	h.grant("r000m000", 4, 1)
	if h.am.Held(1, h.top.MachineID("r000m000")) != 4 {
		t.Errorf("held = %d", h.am.Held(1, h.top.MachineID("r000m000")))
	}
	if h.am.Outstanding(1) != 6 {
		t.Errorf("outstanding = %d, want 6", h.am.Outstanding(1))
	}
	if len(h.grants) != 1 {
		t.Errorf("grant callbacks = %d", len(h.grants))
	}
}

func TestGrantConsumesMachineDemandFirst(t *testing.T) {
	h := newHarness(t, 0)
	h.am.Request(1,
		resource.LocalityHint{Type: resource.LocalityMachine, Node: 0, Count: 2}, // r000m000
		resource.LocalityHint{Type: resource.LocalityRack, Node: 1, Count: 1},    // r001
		resource.LocalityHint{Type: resource.LocalityCluster, Count: 3})
	h.grant("r000m000", 2, 1)
	// Machine-level demand must be consumed before cluster-level.
	if h.am.Outstanding(1) != 4 {
		t.Errorf("outstanding = %d, want 4 (rack and cluster remainder)", h.am.Outstanding(1))
	}
	h.grant("r001m000", 1, 2)
	h.grant("r001m001", 1, 3)
	h.grant("r000m001", 3, 4) // two past the demand left
	if h.am.Outstanding(1) != 0 {
		t.Errorf("outstanding = %d, want 0", h.am.Outstanding(1))
	}
	// GrantLevel names the narrowest level each grant consumed demand at.
	want := []resource.LocalityType{resource.LocalityMachine, resource.LocalityRack, resource.LocalityCluster, resource.LocalityCluster}
	if !slices.Equal(h.levels, want) {
		t.Errorf("grant levels %v, want %v", h.levels, want)
	}
}

// TestGrantWaitClock pins the demand-to-grant clock: it starts at a unit's
// first positive request, a withdrawal neither restarts it nor survives
// emptying the demand, and the next grant reports the wait and clears it.
func TestGrantWaitClock(t *testing.T) {
	h := newHarness(t, 0)
	lat := h.net.Latency
	h.eng.Run(10 * sim.Millisecond)
	asked := h.eng.Now()
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 4})
	h.eng.Run(30 * sim.Millisecond)
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: -1})
	sent := h.eng.Now()
	h.grant("r000m000", 2, 1) // answers the first request: timed from asked
	h.grant("r000m001", 1, 2) // the request was answered already: untimed
	// A request withdrawn whole stops the clock; the next one restarts it.
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 2})
	h.eng.Run(h.eng.Now() + 5*sim.Millisecond)
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: -2})
	h.eng.Run(h.eng.Now() + 5*sim.Millisecond)
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 1})
	h.grant("r001m000", 1, 3)
	want := []sim.Time{sent + lat - asked, -1, lat}
	if !slices.Equal(h.waits, want) {
		t.Errorf("grant waits %v, want %v", h.waits, want)
	}
}

func TestRevocationCallbackAndClamp(t *testing.T) {
	h := newHarness(t, 0)
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 4})
	h.grant("r000m000", 4, 1)
	h.grant("r000m000", -2, 2)
	if h.am.Held(1, h.top.MachineID("r000m000")) != 2 {
		t.Errorf("held = %d", h.am.Held(1, h.top.MachineID("r000m000")))
	}
	if len(h.revokes) != 1 {
		t.Errorf("revoke callbacks = %d", len(h.revokes))
	}
	// Over-revocation clamps instead of going negative.
	h.grant("r000m000", -99, 3)
	if h.am.Held(1, h.top.MachineID("r000m000")) != 0 {
		t.Errorf("held = %d, want 0", h.am.Held(1, h.top.MachineID("r000m000")))
	}
}

func TestDuplicateGrantIgnored(t *testing.T) {
	h := newHarness(t, 0)
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 10})
	h.grant("r000m000", 4, 7)
	h.grant("r000m000", 4, 7) // replay
	if h.am.Held(1, h.top.MachineID("r000m000")) != 4 {
		t.Errorf("held = %d after replay, want 4", h.am.Held(1, h.top.MachineID("r000m000")))
	}
}

// TestRequestClampsCumulativeWithdrawal pins the withdrawal-clamp rule
// against repeated targets in one Request: two -3 hints against 4
// outstanding must withdraw exactly 4, never driving the local view (or the
// wire deltas) below zero.
func TestRequestClampsCumulativeWithdrawal(t *testing.T) {
	h := newHarness(t, 0)
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 4})
	h.am.Request(1,
		resource.LocalityHint{Type: resource.LocalityCluster, Count: -3},
		resource.LocalityHint{Type: resource.LocalityCluster, Count: -3})
	if got := h.am.Outstanding(1); got != 0 {
		t.Errorf("outstanding = %d, want 0 (cumulative withdrawal clamped)", got)
	}
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	total := 0
	for _, m := range h.toMaster {
		if d, ok := m.(protocol.DemandUpdate); ok {
			for _, hint := range d.Deltas {
				total += hint.Count
			}
		}
	}
	if total != 0 {
		t.Errorf("net demand on the wire = %d, want 0 (+4 then clamped -4)", total)
	}
}

func TestReturnContainersSendsAndDecrements(t *testing.T) {
	h := newHarness(t, 0)
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 5})
	h.grant("r000m000", 5, 1)
	h.am.ReturnContainers(1, h.top.MachineID("r000m000"), 2)
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if h.am.Held(1, h.top.MachineID("r000m000")) != 3 {
		t.Errorf("held = %d", h.am.Held(1, h.top.MachineID("r000m000")))
	}
	found := false
	for _, m := range h.toMaster {
		if u, ok := m.(protocol.DemandUpdate); ok {
			for _, r := range u.Returns {
				if r.UnitID == 1 && r.Machine == h.top.MachineID("r000m000") && r.Count == 2 {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("no DemandUpdate carrying the return sent")
	}
	// Over-return is refused locally.
	h.am.ReturnContainers(1, h.top.MachineID("r000m000"), 99)
	if h.am.Held(1, h.top.MachineID("r000m000")) != 3 {
		t.Error("over-return changed ledger")
	}
}

func TestStartStopWorkerMessages(t *testing.T) {
	h := newHarness(t, 0)
	h.am.StartWorker(1, h.top.MachineID("r000m000"), 1)
	h.eng.Run(10 * sim.Millisecond)
	msgs := h.toAgent["r000m000"]
	if len(msgs) != 1 {
		t.Fatalf("agent messages = %d", len(msgs))
	}
	if wp, ok := msgs[0].(protocol.WorkPlan); !ok || wp.Worker != 1 {
		t.Errorf("plan = %+v", msgs[0])
	}
	if h.am.Worker(1) == nil {
		t.Fatal("worker not tracked")
	}
	h.am.StopWorker(1)
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if h.am.Worker(1) != nil {
		t.Error("worker still tracked after stop")
	}
	if _, ok := h.toAgent["r000m000"][1].(protocol.StopWorker); !ok {
		t.Error("no StopWorker sent")
	}
}

func TestWorkerStatusTracksOverhead(t *testing.T) {
	h := newHarness(t, 0)
	h.am.StartWorker(1, h.top.MachineID("r000m000"), 1)
	h.eng.Run(5 * sim.Second)
	h.net.SendID(h.net.Endpoint(protocol.AgentEndpoint("r000m000")), h.net.Endpoint("app1"), protocol.WorkerStatus{
		Machine: h.top.MachineID("r000m000"), Worker: 1, State: protocol.WorkerRunning, Seq: 1,
	})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	w := h.am.Worker(1)
	if w == nil || w.State != protocol.WorkerRunning {
		t.Fatalf("worker = %+v", w)
	}
	if w.RunningAt <= w.PlannedAt {
		t.Error("start overhead not measurable")
	}
	if len(h.statuses) != 1 {
		t.Errorf("status callbacks = %d", len(h.statuses))
	}
}

func TestMasterHelloTriggersReRegisterAndFullSync(t *testing.T) {
	h := newHarness(t, 0)
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 10})
	h.grant("r000m000", 4, 1)
	h.toMaster = nil
	h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint("app1"), protocol.MasterHello{Epoch: 2, Seq: 99})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	var sawReg, sawSync bool
	for _, m := range h.toMaster {
		switch s := m.(type) {
		case protocol.RegisterApp:
			sawReg = true
		case protocol.FullDemandSync:
			sawSync = true
			if syncHeld(s, 1, h.top.MachineID("r000m000")) != 4 {
				t.Errorf("sync held = %v", s.Held)
			}
			total := 0
			for _, hnt := range s.Demand {
				if hnt.UnitID == 1 {
					total += hnt.Count
				}
			}
			if total != 6 {
				t.Errorf("sync demand = %d, want 6", total)
			}
		}
	}
	if !sawReg || !sawSync {
		t.Errorf("reg=%v sync=%v", sawReg, sawSync)
	}
}

func TestPeriodicFullSync(t *testing.T) {
	h := newHarness(t, sim.Second)
	h.eng.Run(3500 * sim.Millisecond)
	syncs := 0
	for _, m := range h.toMaster {
		if _, ok := m.(protocol.FullDemandSync); ok {
			syncs++
		}
	}
	if syncs < 3 {
		t.Errorf("full syncs = %d, want >= 3", syncs)
	}
}

func TestWorkerListRequestReplied(t *testing.T) {
	h := newHarness(t, 0)
	h.am.StartWorker(1, h.top.MachineID("r000m000"), 1)
	h.am.StartWorker(1, h.top.MachineID("r000m000"), 2)
	h.am.StartWorker(1, h.top.MachineID("r000m001"), 3)
	h.net.SendID(h.net.Endpoint(protocol.AgentEndpoint("r000m000")), h.net.Endpoint("app1"), protocol.WorkerListRequest{Machine: h.top.MachineID("r000m000"), Seq: 1})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	var reply *protocol.WorkerListReply
	for _, m := range h.toAgent["r000m000"] {
		if r, ok := m.(protocol.WorkerListReply); ok {
			reply = &r
		}
	}
	if reply == nil {
		t.Fatal("no reply")
	}
	if len(reply.Workers) != 2 {
		t.Errorf("reply workers = %d, want 2 (only that machine's)", len(reply.Workers))
	}
}

func TestUnregisterStopsEverything(t *testing.T) {
	h := newHarness(t, sim.Second)
	h.am.Unregister()
	h.toMaster = nil
	h.eng.Run(5 * sim.Second)
	unregs := 0
	for _, m := range h.toMaster {
		if _, ok := m.(protocol.FullDemandSync); ok {
			t.Error("full sync after unregister")
		}
		if _, ok := m.(protocol.UnregisterApp); ok {
			unregs++
		}
	}
	// Unacknowledged: the app lingers, re-sending the unregister (a lost
	// one would strand its capacity at a failed-over master forever).
	if unregs < 2 {
		t.Errorf("unregister re-sent %d times without an ack, want >= 2", unregs)
	}
	if !h.net.Registered("app1") {
		t.Error("endpoint torn down before the unregister was acknowledged")
	}
	// The ack completes the teardown.
	h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint("app1"), &protocol.UnregisterAck{App: "app1", Seq: 1})
	h.eng.Run(h.eng.Now() + sim.Second)
	if h.net.Registered("app1") {
		t.Error("endpoint still registered after ack")
	}
}

// TestUnregisterRetryBounded pins termination without any master: the
// retry loop gives up after its budget instead of posting events forever.
func TestUnregisterRetryBounded(t *testing.T) {
	h := newHarness(t, 0)
	h.net.Unregister(protocol.MasterEndpoint)
	h.am.Unregister()
	h.eng.RunUntilIdle()
	if h.net.Registered("app1") {
		t.Error("endpoint still registered after the retry budget ran out")
	}
}

func TestObtainedTotal(t *testing.T) {
	h := newHarness(t, 0)
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 5})
	h.grant("r000m000", 3, 1)
	h.grant("r001m000", 2, 2)
	want := resource.New(1000, 2048).Scale(5)
	if !h.am.ObtainedTotal().Equal(want) {
		t.Errorf("obtained = %v, want %v", h.am.ObtainedTotal(), want)
	}
	ms := heldMachines(h.am, 1)
	if len(ms) != 2 || ms[0] != h.top.MachineID("r000m000") || ms[1] != h.top.MachineID("r001m000") {
		t.Errorf("machines = %v", ms)
	}
}

// heldMachines lists the machines HeldCells has rows for, in ledger order.
func heldMachines(am *AM, unitID int) []int32 {
	var out []int32
	for _, c := range am.HeldCells(unitID) {
		out = append(out, int32(c.Key))
	}
	return out
}
