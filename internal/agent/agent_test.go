package agent

import (
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

type harness struct {
	eng   *sim.Engine
	net   *transport.Net
	agent *Agent
	// captured messages by destination
	toMaster []transport.Message
	toApp    []transport.Message
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	eng := sim.NewEngine(3)
	net := transport.NewNet(eng)
	top, err := topology.Build(topology.Spec{
		Racks: 1, MachinesPerRack: 1,
		MachineCapacity: resource.New(12000, 96*1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{eng: eng, net: net}
	// Heartbeats are pooled (the network reuses each once its handler
	// returns); a capturing test keeps a copy.
	net.Register(protocol.MasterEndpoint, func(_ transport.EndpointID, m transport.Message) {
		h.toMaster = append(h.toMaster, protocol.Keep(m))
	})
	net.Register("app1", func(_ transport.EndpointID, m transport.Message) { h.toApp = append(h.toApp, m) })
	h.agent = New(Config{}, eng, net, top.Machine(top.Machines()[0]))
	return h
}

// ep returns the wire identity of an application: its endpoint ID.
func (h *harness) ep(app string) int32 { return int32(h.net.Endpoint(app)) }

func (h *harness) grantCapacity(app string, unitID, count int, size resource.Vector) {
	h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)), &protocol.CapacityDelta{
		Entries: []protocol.CapacityEntry{{App: h.ep(app), UnitID: unitID, Size: size, Count: count}},
		Seq:     uint64(h.eng.Fired() + 1e6),
	})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
}

func (h *harness) sendPlan(app string, unitID int, worker uint32, size resource.Vector, seq uint64) {
	h.net.SendID(h.net.Endpoint(app), h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)), protocol.WorkPlan{
		UnitID: unitID, Worker: worker, Size: size, Seq: seq,
	})
}

// proc returns app's process of worker (nil when absent).
func (h *harness) proc(app string, worker uint32) *Proc {
	return h.agent.Proc(h.net.Lookup(app), worker)
}

func (h *harness) lastAppStatus(t *testing.T) protocol.WorkerStatus {
	t.Helper()
	for i := len(h.toApp) - 1; i >= 0; i-- {
		if s, ok := h.toApp[i].(protocol.WorkerStatus); ok {
			return s
		}
	}
	t.Fatal("no WorkerStatus received")
	return protocol.WorkerStatus{}
}

var size = resource.New(1000, 2048)

func TestHeartbeatsFlow(t *testing.T) {
	h := newHarness(t)
	h.eng.Run(5 * sim.Second)
	beats := 0
	for _, m := range h.toMaster {
		if _, ok := m.(protocol.AgentHeartbeat); ok {
			beats++
		}
	}
	if beats < 4 {
		t.Errorf("heartbeats = %d, want >= 4", beats)
	}
}

// TestHeartbeatCarriesAllocations: the next anchor carries a grant, and the
// beats between anchors carry no allocations at all.
func TestHeartbeatCarriesAllocations(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 3, size)
	h.toMaster = nil
	h.eng.Run(h.eng.Now() + AnchorEvery*sim.Second)
	found, bare := false, 0
	for _, m := range h.toMaster {
		hb, ok := m.(protocol.AgentHeartbeat)
		if !ok {
			continue
		}
		if !hb.Full {
			if len(hb.Allocations) != 0 {
				t.Errorf("bare beat %d carries allocations %+v", hb.Seq, hb.Allocations)
			}
			bare++
			continue
		}
		for _, d := range hb.Allocations {
			if d.App == h.ep("app1") && d.UnitID == 1 && d.Count == 3 {
				found = true
			}
		}
	}
	if !found || bare == 0 {
		t.Errorf("anchor found %v, %d bare beats: want the anchor to carry the grant", found, bare)
	}
}

func TestWorkerStartWithinCapacity(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 2, size)
	h.sendPlan("app1", 1, 1, size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	s := h.lastAppStatus(t)
	if s.Worker != 1 || s.State != protocol.WorkerRunning {
		t.Errorf("status = %+v", s)
	}
	if h.proc("app1", 1) == nil || h.proc("app1", 1).State != protocol.WorkerRunning {
		t.Error("proc not running")
	}
}

func TestWorkerRefusedWithoutCapacity(t *testing.T) {
	h := newHarness(t)
	h.sendPlan("app1", 1, 1, size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	s := h.lastAppStatus(t)
	if s.State != protocol.WorkerFailed || !strings.Contains(s.FailureDetail, "no capacity") {
		t.Errorf("status = %+v", s)
	}
}

func TestWorkerRefusedBeyondCapacity(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, 1, size, 1)
	h.sendPlan("app1", 1, 2, size, 2)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	if h.proc("app1", 1) == nil {
		t.Error("first worker missing")
	}
	if h.proc("app1", 2) != nil {
		t.Error("second worker started beyond capacity")
	}
}

func TestStopWorker(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, 1, size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.net.SendID(h.net.Endpoint("app1"), h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)), protocol.StopWorker{Worker: 1, Seq: 2})
	h.eng.Run(h.eng.Now() + sim.Second)
	if h.proc("app1", 1) != nil {
		t.Error("proc still present after stop")
	}
	if s := h.lastAppStatus(t); s.State != protocol.WorkerFinished {
		t.Errorf("status = %+v", s)
	}
}

func TestCapacityEnsuranceKillsExcess(t *testing.T) {
	// Paper §2.2: "when the resource capacity decreases and application
	// master does not choose one process to stop, FuxiAgent will kill one
	// process of this application compulsorily".
	h := newHarness(t)
	h.grantCapacity("app1", 1, 2, size)
	h.sendPlan("app1", 1, 1, size, 1)
	h.sendPlan("app1", 1, 2, size, 2)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.grantCapacity("app1", 1, -1, size) // revoke one container
	h.eng.Run(h.eng.Now() + sim.Second)
	alive := 0
	for _, p := range h.agent.Procs() {
		if p.key.app() == h.net.Lookup("app1") {
			alive++
		}
	}
	if alive != 1 {
		t.Errorf("alive = %d, want 1", alive)
	}
	if h.agent.KilledForCapacity != 1 {
		t.Errorf("KilledForCapacity = %d", h.agent.KilledForCapacity)
	}
	// Most recent worker dies first.
	if h.proc("app1", 1) == nil || h.proc("app1", 2) != nil {
		t.Error("wrong victim")
	}
}

func TestOverloadKillsWorstOffender(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 2, size)
	h.sendPlan("app1", 1, 1, size, 1)
	h.sendPlan("app1", 1, 2, size, 2)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	// w2's real usage explodes beyond machine capacity.
	h.proc("app1", 2).Usage = resource.New(1000, 100*1024)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	if h.proc("app1", 2) != nil {
		t.Error("over-user survived")
	}
	if h.proc("app1", 1) == nil {
		t.Error("well-behaved worker killed")
	}
	if h.agent.KilledForOverload != 1 {
		t.Errorf("KilledForOverload = %d", h.agent.KilledForOverload)
	}
	if s := h.lastAppStatus(t); !strings.Contains(s.FailureDetail, "overload") {
		t.Errorf("detail = %q", s.FailureDetail)
	}
}

func TestOverloadIgnoresVirtualDimensions(t *testing.T) {
	// Virtual resources are scheduler-side tokens; a worker sized with a
	// virtual dimension the machine's physical capacity vector lacks must
	// not trip the overload killer.
	h := newHarness(t)
	vsize := resource.New(1000, 2048).With("FrontendSlot", 1)
	h.grantCapacity("app1", 1, 1, vsize)
	h.sendPlan("app1", 1, 1, vsize, 1)
	h.eng.Run(h.eng.Now() + 3*sim.Second)
	if h.proc("app1", 1) == nil {
		t.Fatal("worker with virtual-dim size was killed")
	}
	if h.agent.KilledForOverload != 0 {
		t.Errorf("KilledForOverload = %d", h.agent.KilledForOverload)
	}
}

func TestCrashWorkerAutoRestarts(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, 1, size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.toApp = nil
	h.agent.CrashWorker(h.proc("app1", 1), "segfault")
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	// Failure was reported AND the process is running again.
	sawFail := false
	for _, m := range h.toApp {
		if s, ok := m.(protocol.WorkerStatus); ok && s.State == protocol.WorkerFailed {
			sawFail = true
		}
	}
	if !sawFail {
		t.Error("crash not reported")
	}
	p := h.proc("app1", 1)
	if p == nil || p.State != protocol.WorkerRunning {
		t.Error("worker not restarted")
	}
}

func TestDaemonCrashKeepsProcesses(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, 1, size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.agent.CrashDaemon()
	if h.agent.Up() {
		t.Fatal("agent still up")
	}
	// Paper §4.3.1: processes survive the daemon.
	if h.proc("app1", 1) == nil {
		t.Fatal("process killed by daemon crash")
	}
	h.toMaster = nil
	h.eng.Run(h.eng.Now() + 3*sim.Second)
	if len(h.toMaster) != 0 {
		t.Error("heartbeats continued while daemon down")
	}
}

func TestDaemonRestartAdoptsAndResyncs(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, 1, size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.agent.CrashDaemon()
	h.eng.Run(h.eng.Now() + sim.Second)

	h.toMaster, h.toApp = nil, nil
	h.agent.RestartDaemon()
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)

	// It must query the master for capacity and the app for worker lists.
	sawQuery := false
	for _, m := range h.toMaster {
		if _, ok := m.(protocol.CapacityQuery); ok {
			sawQuery = true
		}
	}
	if !sawQuery {
		t.Error("no CapacityQuery after restart")
	}
	sawListReq := false
	for _, m := range h.toApp {
		if _, ok := m.(protocol.WorkerListRequest); ok {
			sawListReq = true
		}
	}
	if !sawListReq {
		t.Error("no WorkerListRequest after restart")
	}

	// Master replies with the capacity table; app replies with its list;
	// the process is adopted, not killed.
	h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)), protocol.CapacitySync{
		Machine: h.agent.ID(),
		Entries: []protocol.CapacityEntry{{App: h.ep("app1"), UnitID: 1, Size: size, Count: 1}},
		Seq:     999,
	})
	h.net.SendID(h.net.Endpoint("app1"), h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)), protocol.WorkerListReply{
		Workers: []protocol.WorkPlan{{UnitID: 1, Worker: 1, Size: size}},
		Seq:     1000,
	})
	h.eng.Run(h.eng.Now() + sim.Second)
	p := h.proc("app1", 1)
	if p == nil || p.State != protocol.WorkerRunning {
		t.Error("worker not adopted after daemon restart")
	}
	if h.agent.Capacity("app1", 1) != 1 {
		t.Errorf("capacity = %d, want 1", h.agent.Capacity("app1", 1))
	}
}

// TestRestartAddressesFinishedAppByID: a daemon that restarts while a
// finished application's worker still runs (its capacity release in flight)
// asks that application for its worker list at the retired endpoint ID the
// worker was planned from, and the network drops the request. Sent by name, it
// would intern the retired name again, on a fresh slot nothing ever retires.
// The application that took the retired slot over replies with a list of its
// own: the reply speaks for its sender's full ID, so it reports the sender's
// missing worker to the sender and leaves the finished application's process
// alone.
func TestRestartAddressesFinishedAppByID(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, 1, size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	app1 := h.net.Lookup("app1")
	if h.agent.Proc(app1, 1) == nil {
		t.Fatal("app1's worker did not start")
	}
	h.net.Retire(app1)
	var got []protocol.WorkerStatus
	app2 := h.net.Register("app2", func(_ transport.EndpointID, m transport.Message) {
		if s, ok := m.(protocol.WorkerStatus); ok {
			got = append(got, s)
		}
	})
	if app2.Slot() != app1.Slot() {
		t.Fatalf("app2 got slot %d, app1 had %d: the test needs the slot reused", app2.Slot(), app1.Slot())
	}
	h.agent.CrashDaemon()
	slots, live := h.net.Footprint()
	h.agent.RestartDaemon()
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	h.net.SendID(app2, h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)), protocol.WorkerListReply{
		Workers: []protocol.WorkPlan{{UnitID: 1, Worker: 9, Size: size}},
		Seq:     1000,
	})
	h.eng.Run(h.eng.Now() + sim.Second)
	if s, l := h.net.Footprint(); s != slots || l != live || h.net.Lookup("app1") != transport.None {
		t.Fatalf("%d slots, %d live, Lookup(app1) = %d; want %d, %d and None: a retired name was interned again",
			s, l, h.net.Lookup("app1"), slots, live)
	}
	if len(got) != 1 || got[0].Worker != 9 || got[0].State != protocol.WorkerFailed {
		t.Errorf("app2 heard %+v, want worker 9 reported failed", got)
	}
	if h.agent.Proc(app1, 1) == nil {
		t.Error("app2's reply killed the finished application's worker")
	}
}

func TestAdoptKillsUnknownProcs(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 2, size)
	h.sendPlan("app1", 1, 1, size, 1)
	h.sendPlan("app1", 1, 2, size, 2)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.agent.CrashDaemon()
	h.agent.RestartDaemon()
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	// App only acknowledges w1.
	h.net.SendID(h.net.Endpoint("app1"), h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)), protocol.WorkerListReply{
		Workers: []protocol.WorkPlan{{UnitID: 1, Worker: 1, Size: size}},
		Seq:     1000,
	})
	h.eng.Run(h.eng.Now() + sim.Second)
	if h.proc("app1", 2) != nil {
		t.Error("unacknowledged process survived adoption")
	}
	if h.proc("app1", 1) == nil {
		t.Error("acknowledged process killed")
	}
}

func TestMachineCrashKillsEverything(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, 1, size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.toApp = nil
	h.agent.CrashMachine()
	h.eng.Run(h.eng.Now() + 3*sim.Second)
	if len(h.agent.Procs()) != 0 {
		t.Error("processes survived machine crash")
	}
	// A dead machine reports nothing.
	for _, m := range h.toApp {
		if _, ok := m.(protocol.WorkerStatus); ok {
			t.Error("status escaped a dead machine")
		}
	}
	// Reboot: fresh table, heartbeats resume.
	h.toMaster = nil
	h.agent.RestartMachine()
	h.eng.Run(h.eng.Now() + 3*sim.Second)
	beats := 0
	for _, m := range h.toMaster {
		if _, ok := m.(protocol.AgentHeartbeat); ok {
			beats++
		}
	}
	if beats == 0 {
		t.Error("no heartbeats after machine restart")
	}
}

func TestHealthScoreInHeartbeat(t *testing.T) {
	h := newHarness(t)
	h.agent.SetHealth(12)
	h.eng.Run(2 * sim.Second)
	found := false
	for _, m := range h.toMaster {
		if hb, ok := m.(protocol.AgentHeartbeat); ok && hb.HealthScore == 12 {
			found = true
		}
	}
	if !found {
		t.Error("health score not propagated")
	}
}

func TestDuplicateWorkPlanIgnored(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 2, size)
	h.sendPlan("app1", 1, 1, size, 7)
	h.sendPlan("app1", 1, 1, size, 7) // duplicate delivery
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	if len(h.agent.Procs()) != 1 {
		t.Errorf("procs = %d, want 1", len(h.agent.Procs()))
	}
}

// TestAnotherApplicationCannotTouchWorkers: a work plan, a stop and a
// worker-list reply act for their sender's endpoint, and only for it. While
// these messages named their application, the agent believed the name: app2
// could stop app1's worker, start a process charged to app1's capacity, and
// kill app1's workers with an empty list reply.
func TestAnotherApplicationCannotTouchWorkers(t *testing.T) {
	for _, forged := range []struct {
		name string
		msg  transport.Message
	}{
		{"stop", protocol.StopWorker{Worker: 1, Seq: 1}},
		{"plan", protocol.WorkPlan{UnitID: 1, Worker: 2, Size: size, Seq: 1}},
		{"list reply", protocol.WorkerListReply{Seq: 1}},
	} {
		t.Run(forged.name, func(t *testing.T) {
			h := newHarness(t)
			var toApp2 []protocol.WorkerStatus
			app2 := h.net.Register("app2", func(_ transport.EndpointID, m transport.Message) {
				if s, ok := m.(protocol.WorkerStatus); ok {
					toApp2 = append(toApp2, s)
				}
			})
			h.grantCapacity("app1", 1, 2, size)
			h.sendPlan("app1", 1, 1, size, 1)
			h.eng.Run(h.eng.Now() + 2*sim.Second)
			h.toApp = nil
			h.net.SendID(app2, h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)), forged.msg)
			h.eng.Run(h.eng.Now() + 2*sim.Second)
			if p := h.proc("app1", 1); p == nil || p.State != protocol.WorkerRunning {
				t.Fatalf("app1's worker is %+v after app2's %s", p, forged.name)
			}
			if len(h.toApp) != 0 {
				t.Fatalf("app1 heard %v after app2's %s", h.toApp, forged.name)
			}
			for _, p := range h.agent.Procs() {
				if p.key.app() != h.net.Lookup("app1") || p.key.worker() != 1 {
					t.Fatalf("a process of app %d worker %d runs after app2's %s", p.key.app(), p.key.worker(), forged.name)
				}
			}
			if forged.name == "plan" && (len(toApp2) != 1 || !strings.Contains(toApp2[0].FailureDetail, "no capacity")) {
				t.Fatalf("app2 heard %+v, want its plan refused: it holds no capacity", toApp2)
			}
			// app1's second container is still its own.
			h.sendPlan("app1", 1, 2, size, 2)
			h.eng.Run(h.eng.Now() + 2*sim.Second)
			if p := h.proc("app1", 2); p == nil || p.State != protocol.WorkerRunning {
				t.Fatalf("app1's second worker did not start in its second container")
			}
		})
	}
}

// TestPlanForUnitWiderThanTheWireIsDropped: the ledger keys a capacity row by
// the low 32 bits of its unit ID, so a plan naming a unit wider than that read
// the row of the small unit it aliases and started a process there, each
// alias with its own running count: past the small unit's capacity. The plan
// is dropped whole now, and its worker's mark is not taken.
func TestPlanForUnitWiderThanTheWireIsDropped(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1<<32|1, 1, size, 1)
	h.sendPlan("app1", 2<<32|1, 2, size, 2)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	if n := len(h.agent.Procs()); n != 0 || len(h.toApp) != 0 {
		t.Fatalf("%d processes and %d statuses after plans for units wider than the wire", n, len(h.toApp))
	}
	h.sendPlan("app1", 1, 1, size, 3)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	if p := h.proc("app1", 1); p == nil || p.State != protocol.WorkerRunning {
		t.Fatal("worker 1 did not start in unit 1's container")
	}
}

// TestDuplicatePlanFromRetiredAppStartsNothing: a duplicate of a work plan,
// delayed past its application's retirement and past the anchor that reaps
// the plan's mark, lands from a retired endpoint and starts nothing — though
// the capacity it was planned in is still on the ledger. The network's
// generation fence, not the mark, refuses it.
func TestDuplicatePlanFromRetiredAppStartsNothing(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	app, agentEP := h.net.Endpoint("app1"), h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine))
	h.sendPlan("app1", 1, 1, size, 1)
	h.net.SetLinkRule("app1", protocol.AgentEndpoint(h.agent.Machine), transport.LinkRule{Delay: 2 * AnchorEvery * sim.Second})
	h.sendPlan("app1", 1, 1, size, 1)
	h.net.SetLinkRule("app1", protocol.AgentEndpoint(h.agent.Machine), transport.LinkRule{})
	h.eng.Run(h.eng.Now() + sim.Second)
	if h.agent.Proc(app, 1) == nil {
		t.Fatal("the plan started no worker")
	}
	h.net.SendID(app, agentEP, protocol.StopWorker{Worker: 1, Seq: 2})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if h.agent.Proc(app, 1) != nil || h.agent.PlanMarks() != 1 {
		t.Fatalf("after the stop: worker %v, %d plan marks; want none, 1", h.agent.Proc(app, 1), h.agent.PlanMarks())
	}
	h.net.Retire(app)
	h.eng.Run(h.eng.Now() + AnchorEvery*sim.Second)
	if h.agent.PlanMarks() != 0 {
		t.Fatalf("%d plan marks after the retirement and an anchor, want 0", h.agent.PlanMarks())
	}
	dropped := h.net.Stats().Dropped
	h.eng.Run(h.eng.Now() + 2*AnchorEvery*sim.Second)
	if h.net.Stats().Dropped == dropped {
		t.Fatal("the delayed duplicate never landed")
	}
	if len(h.agent.Procs()) != 0 {
		t.Fatalf("the duplicate started %+v", h.agent.Procs())
	}
	if n := h.agent.capacity.count(makeCapKey(app, 1)); n != 1 {
		t.Fatalf("the retired app's ledger row reads %d, want its grant of 1 still there", n)
	}
}
