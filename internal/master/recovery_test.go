package master

import (
	"testing"

	"repro/internal/lockservice"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

// recoveryWorld is a hot-standby pair over scripted agents and one scripted
// application master that answer a successor's MasterHello the way the real
// ones do — an anchor beat, a RegisterApp plus a FullDemandSync — unless told
// to stay silent.
type recoveryWorld struct {
	eng                   *sim.Engine
	net                   *transport.Net
	promotedAt, recovered sim.Time
	recoveries            int
}

func newRecoveryWorld(t *testing.T, silentMachine int32, silentApp bool) *recoveryWorld {
	t.Helper()
	eng := sim.NewEngine(3)
	w := &recoveryWorld{eng: eng, net: transport.NewNet(eng)}
	lock, ckpt := lockservice.New(eng), NewCheckpointStore()
	top := testTop(t, 1, 3)
	cfg := func(name string) Config {
		c := Config{ProcessName: name}
		c.OnRecovered = func(int, int) { w.recoveries, w.recovered = w.recoveries+1, eng.Now() }
		return c
	}
	primary := NewMaster(cfg("fm-1"), eng, w.net, lock, top, ckpt)
	NewMaster(cfg("fm-2"), eng, w.net, lock, top, ckpt)
	for id := int32(0); id < int32(top.Size()); id++ {
		var seq protocol.Sequencer
		ep := protocol.AgentEndpoint(top.MachineName(id))
		w.net.Register(ep, func(_ tr, msg transport.Message) {
			hello, ok := msg.(protocol.MasterHello)
			if ok && hello.Epoch == 2 && w.promotedAt == 0 {
				w.promotedAt = eng.Now() - w.net.Latency // the successor says hello as it promotes
			}
			if ok && id != silentMachine {
				w.net.SendID(w.net.Endpoint(ep), w.net.Endpoint(protocol.MasterEndpoint), &protocol.AgentHeartbeat{
					Machine: id, Full: true, HealthScore: 100, Seq: seq.Next(),
				})
			}
		})
	}
	var appSeq protocol.Sequencer
	units := []resource.ScheduleUnit{unit(1, 100, 8, 1000, 2048)}
	w.net.Register("app1", func(_ tr, msg transport.Message) {
		if _, ok := msg.(protocol.MasterHello); ok && !silentApp {
			w.net.SendID(w.net.Endpoint("app1"), w.net.Endpoint(protocol.MasterEndpoint), &protocol.RegisterApp{App: "app1", Units: units, Seq: appSeq.Next()})
			w.net.SendID(w.net.Endpoint("app1"), w.net.Endpoint(protocol.MasterEndpoint), &protocol.FullDemandSync{App: "app1", Units: units, Seq: appSeq.Next()})
		}
	})
	eng.Run(10 * sim.Millisecond)
	w.net.SendID(w.net.Endpoint("app1"), w.net.Endpoint(protocol.MasterEndpoint), &protocol.RegisterApp{App: "app1", Units: units, Seq: appSeq.Next()})
	eng.Run(eng.Now() + 10*sim.Millisecond)
	primary.Crash()
	for w.promotedAt == 0 {
		if eng.Now() > 10*sim.Second {
			t.Fatal("standby never promoted")
		}
		eng.Run(eng.Now() + 100*sim.Microsecond)
	}
	eng.Run(w.promotedAt + 2*RecoveryWindow)
	return w
}

// TestRecoveryEndsWhenEveryPartyReported: with every machine's anchor and
// the checkpointed app's sync in, the successor resumes scheduling one round
// trip after its hello, not at the end of RecoveryWindow, and only once.
func TestRecoveryEndsWhenEveryPartyReported(t *testing.T) {
	w := newRecoveryWorld(t, -1, false)
	if w.recoveries != 1 {
		t.Fatalf("OnRecovered fired %d times, want 1", w.recoveries)
	}
	if took, rtt := w.recovered-w.promotedAt, 2*w.net.Latency; took != rtt {
		t.Errorf("recovery took %v, want one round trip (%v)", took, rtt)
	}
}

// TestSilentMachineHoldsRecoveryToItsDeadline: a machine that never anchors
// keeps the successor collecting until RecoveryWindow runs out.
func TestSilentMachineHoldsRecoveryToItsDeadline(t *testing.T) {
	w := newRecoveryWorld(t, 1, false)
	if w.recoveries != 1 {
		t.Fatalf("OnRecovered fired %d times, want 1", w.recoveries)
	}
	if took, want := w.recovered-w.promotedAt, RecoveryWindow; took != want {
		t.Errorf("recovery took %v, want the whole window %v", took, want)
	}
}

// TestSilentAppHoldsRecoveryToItsDeadline: a checkpointed app that neither
// syncs nor unregisters keeps the successor collecting until RecoveryWindow
// runs out, though every machine has anchored.
func TestSilentAppHoldsRecoveryToItsDeadline(t *testing.T) {
	w := newRecoveryWorld(t, -1, true)
	if w.recoveries != 1 {
		t.Fatalf("OnRecovered fired %d times, want 1", w.recoveries)
	}
	if took, want := w.recovered-w.promotedAt, RecoveryWindow; took != want {
		t.Errorf("recovery took %v, want the whole window %v", took, want)
	}
}

// TestHeldRoundSurvivesRePromotion: a primary with 20 ms rounds loses its
// lease with a round buffered — one update returning a container on machine
// 0 and asking for two more there — and later wins the lease back. The
// agents report their allocations in anchor beats and the app re-sends its
// demand in a full sync. The round's demand counts once, as the sync
// already carries it, and its return is released when recovery ends,
// without waiting for later demand to arm a round.
func TestHeldRoundSurvivesRePromotion(t *testing.T) {
	eng := sim.NewEngine(5)
	net := transport.NewNet(eng)
	top := testTop(t, 2, 2)
	reach := true
	cfg := Config{ProcessName: "fm-1"}
	cfg.BatchWindow = 20 * sim.Millisecond
	cfg.LockReachable = func() bool { return reach }
	var m *Master
	heldAtRecovery := -1
	cfg.OnRecovered = func(int, int) { heldAtRecovery = m.sched.Held("app1", 1) }
	m = NewMaster(cfg, eng, net, lockservice.New(eng), top, NewCheckpointStore())

	app := net.Endpoint("app1")
	ledger := make([]int, top.Size()) // app1's containers by machine, as its agents count them
	for id := int32(0); id < int32(top.Size()); id++ {
		var seq protocol.Sequencer
		ep := protocol.AgentEndpoint(top.MachineName(id))
		net.Register(ep, func(_ tr, msg transport.Message) {
			switch t := msg.(type) {
			case *protocol.CapacityDelta:
				for _, e := range t.Entries {
					ledger[id] += e.Count
				}
			case protocol.MasterHello:
				var allocs []protocol.AllocDelta
				if ledger[id] > 0 {
					allocs = []protocol.AllocDelta{{App: int32(app), UnitID: 1, Count: ledger[id]}}
				}
				net.SendID(net.Endpoint(ep), net.Endpoint(protocol.MasterEndpoint), &protocol.AgentHeartbeat{
					Machine: id, Full: true, Allocations: allocs, HealthScore: 100, Seq: seq.Next(),
				})
			}
		})
	}
	var appSeq protocol.Sequencer
	units := []resource.ScheduleUnit{unit(1, 100, 20, 1000, 2048)}
	on0 := func(n int) []protocol.UnitHint {
		return unitHints(1, resource.LocalityHint{Type: resource.LocalityMachine, Node: 0, Count: n})
	}
	net.Register("app1", func(_ tr, msg transport.Message) {
		if _, ok := msg.(protocol.MasterHello); ok {
			// The app holds three containers on machine 0 and still wants the
			// two it asked for in the lost round.
			net.SendID(net.Endpoint("app1"), net.Endpoint(protocol.MasterEndpoint), &protocol.RegisterApp{App: "app1", Units: units, Seq: appSeq.Next()})
			net.SendID(net.Endpoint("app1"), net.Endpoint(protocol.MasterEndpoint), &protocol.FullDemandSync{App: "app1", Units: units, Seq: appSeq.Next(),
				Demand: on0(2), Held: []protocol.SyncHeld{{UnitID: 1, Machine: 0, Count: 3}}})
		}
	})
	eng.Run(10 * sim.Millisecond)
	net.SendID(net.Endpoint("app1"), net.Endpoint(protocol.MasterEndpoint), &protocol.RegisterApp{App: "app1", Units: units, Seq: appSeq.Next()})
	net.SendID(net.Endpoint("app1"), net.Endpoint(protocol.MasterEndpoint), &protocol.DemandUpdate{App: "app1", Deltas: on0(4), Seq: appSeq.Next()})
	eng.Run(eng.Now() + 100*sim.Millisecond)
	if got := m.sched.Held("app1", 1); got != 4 || ledger[0] != 4 {
		t.Fatalf("setup: app1 holds %d, machine 0's agent counts %d; want 4, 4", got, ledger[0])
	}

	// Cut the lock service off, and send the round so that its flush falls
	// after the lease deadline: the process is deposed with the round
	// buffered.
	reach = false
	eng.Run(eng.Now() + renewEvery)
	eng.Run(m.leaseDeadline - 5*sim.Millisecond)
	net.SendID(net.Endpoint("app1"), net.Endpoint(protocol.MasterEndpoint), &protocol.DemandUpdate{App: "app1", Seq: appSeq.Next(),
		Returns: []protocol.ReturnEntry{{UnitID: 1, Machine: 0, Count: 1}}, Deltas: on0(2)})
	eng.Run(eng.Now() + cfg.BatchWindow + sim.Millisecond)
	if m.IsPrimary() || len(m.pendDem) != 1 || len(m.pendRet) != 1 {
		t.Fatalf("deposal: primary %v, %d buffered updates and %d returns; want false, 1, 1",
			m.IsPrimary(), len(m.pendDem), len(m.pendRet))
	}

	reach = true
	eng.Run(eng.Now() + 2*renewEvery)
	if !m.IsPrimary() || m.Epoch() != 2 || heldAtRecovery < 0 {
		t.Fatalf("re-promotion: primary %v at epoch %d, recovered %v; want true, 2, true",
			m.IsPrimary(), m.Epoch(), heldAtRecovery >= 0)
	}
	if heldAtRecovery != 5 {
		t.Errorf("app1 holds %d when recovery ends, want 5 (4 - 1 returned + 2 asked once)", heldAtRecovery)
	}
	if got, waiting := m.sched.Held("app1", 1), m.sched.Waiting("app1", 1); got != 5 || waiting != 0 {
		t.Errorf("app1 holds %d with %d waiting, want 5 and 0", got, waiting)
	}
	if ledger[0] != 5 {
		t.Errorf("machine 0's agent counts %d of app1's containers, want 5", ledger[0])
	}
}
