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
		c := DefaultConfig(name)
		c.OnPromote = func(epoch int) {
			if epoch == 2 {
				w.promotedAt = eng.Now()
			}
		}
		c.OnRecovered = func(int, int) { w.recoveries, w.recovered = w.recoveries+1, eng.Now() }
		return c
	}
	primary := NewMaster(cfg("fm-1"), eng, w.net, lock, top, ckpt)
	NewMaster(cfg("fm-2"), eng, w.net, lock, top, ckpt)
	for id := int32(0); id < int32(top.Size()); id++ {
		var seq protocol.Sequencer
		ep := protocol.AgentEndpoint(top.MachineName(id))
		w.net.Register(ep, func(_ tr, msg transport.Message) {
			if _, ok := msg.(protocol.MasterHello); ok && id != silentMachine {
				w.net.Send(ep, protocol.MasterEndpoint, protocol.AgentHeartbeat{
					Machine: id, Full: true, HealthScore: 100, Seq: seq.Next(),
				})
			}
		})
	}
	var appSeq protocol.Sequencer
	units := []resource.ScheduleUnit{unit(1, 100, 8, 1000, 2048)}
	w.net.Register("app1", func(_ tr, msg transport.Message) {
		if _, ok := msg.(protocol.MasterHello); ok && !silentApp {
			w.net.Send("app1", protocol.MasterEndpoint, protocol.RegisterApp{App: "app1", Units: units, Seq: appSeq.Next()})
			w.net.Send("app1", protocol.MasterEndpoint, protocol.FullDemandSync{App: "app1", Units: units, Seq: appSeq.Next()})
		}
	})
	eng.Run(10 * sim.Millisecond)
	w.net.Send("app1", protocol.MasterEndpoint, protocol.RegisterApp{App: "app1", Units: units, Seq: appSeq.Next()})
	eng.Run(eng.Now() + 10*sim.Millisecond)
	primary.Crash()
	for w.promotedAt == 0 {
		if eng.Now() > 10*sim.Second {
			t.Fatal("standby never promoted")
		}
		eng.Run(eng.Now() + 100*sim.Microsecond)
	}
	eng.Run(w.promotedAt + 2*DefaultConfig("").RecoveryWindow)
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
	if took, want := w.recovered-w.promotedAt, DefaultConfig("").RecoveryWindow; took != want {
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
	if took, want := w.recovered-w.promotedAt, DefaultConfig("").RecoveryWindow; took != want {
		t.Errorf("recovery took %v, want the whole window %v", took, want)
	}
}
