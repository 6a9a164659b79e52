package master

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The tests below watch the application states a term built and require
// them collectable once nothing that is still running needs them — while the
// Master or Scheduler that built them stays referenced. A process that no
// longer leads, an application that left, and the pooled scratch of a step
// must keep nothing of an application alive.

// watch arms a finalizer on a wide app's unit array and returns a channel
// closed once the array is collected. The array is what the app's state
// alone owns and nothing in it points back out (the tree's entries point
// into it), so it can be collected — unlike the state itself, which its own
// entries point back at — and it cannot be while the state is reachable.
func watch(st *appState) <-chan struct{} {
	done := make(chan struct{})
	runtime.SetFinalizer(&st.unitArr[0], func(*unitState) { close(done) })
	return done
}

// pinned collects until every watched array is gone or a deadline passes, and
// returns how many are still reachable.
func pinned(ws []<-chan struct{}) int {
	n := len(ws)
	for try := 0; try < 20 && n > 0; try++ {
		runtime.GC()
		n = 0
		for _, w := range ws {
			select {
			case <-w:
			case <-time.After(5 * time.Millisecond): // finalizers run on their own goroutine
				n++
			}
		}
	}
	return n
}

// busyMaster is a primary with three registered apps whose demand exceeds
// the cluster: each holds grants, each has entries still queued in the
// locality tree, and each has been the target of a dispatch.
func busyMaster(t *testing.T) (*masterHarness, []<-chan struct{}) {
	t.Helper()
	h := newMasterHarness(t, Config{ProcessName: "fm-1"})
	var ws []<-chan struct{}
	for i := 1; i <= 3; i++ {
		app := fmt.Sprintf("wide-%d", i)
		h.net.Register(app, func(transport.EndpointID, transport.Message) {})
		h.net.SendID(h.net.Endpoint(app), h.net.Endpoint(protocol.MasterEndpoint), &protocol.RegisterApp{
			App: app, Units: []resource.ScheduleUnit{unit(1, 1, 40, 1000, 2048), unit(2, 2, 40, 1000, 2048)}, Seq: 1,
		})
		h.net.SendID(h.net.Endpoint(app), h.net.Endpoint(protocol.MasterEndpoint), &protocol.DemandUpdate{
			App: app, Deltas: append(unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 20}),
				unitHints(2, resource.LocalityHint{Type: resource.LocalityRack, Node: 0, Count: 20})...),
			Seq: 2,
		})
		h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
		ws = append(ws, watch(h.m1.sched.apps[app]))
	}
	s := h.m1.Scheduler()
	if s == nil || s.Waiting("wide-3", 1) == 0 || len(s.Granted("wide-1", 1)) == 0 {
		t.Fatal("setup: want grants and queued demand")
	}
	return h, ws
}

// TestCrashedMasterPinsNoAppState: a crashed process comes back as the
// standby and may stay one for the rest of the run; the term it lost must be
// garbage, not kept alive through its endpoint index or fan-out scratch
// until a promotion it may never win overwrites them.
func TestCrashedMasterPinsNoAppState(t *testing.T) {
	h, ws := busyMaster(t)
	m2 := NewMaster(Config{ProcessName: "fm-2"}, h.eng, h.net, h.lock, h.top, h.ckpt)
	h.m1.Crash()
	h.eng.Run(h.eng.Now() + 2*LockTTL)
	h.m1.Restart()
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if !m2.IsPrimary() || h.m1.IsPrimary() {
		t.Fatal("setup: want the crashed process back as the standby")
	}
	if n := pinned(ws); n != 0 {
		t.Errorf("%d of %d app states of the crashed term still reachable", n, len(ws))
	}
	runtime.KeepAlive(h.m1)
}

// TestDeposedMasterPinsNoAppState: a primary that loses its lease stands
// down to standby alive; its scheduler goes with the lease.
func TestDeposedMasterPinsNoAppState(t *testing.T) {
	h, ws := busyMaster(t)
	cfg := h.m1.cfg
	h.lock.Release(lockName, cfg.ProcessName)
	h.lock.TryAcquire(lockName, "intruder", sim.Hour)
	h.eng.Run(h.eng.Now() + 2*renewEvery)
	if h.m1.IsPrimary() {
		t.Fatal("setup: master still primary after losing its lease")
	}
	if n := pinned(ws); n != 0 {
		t.Errorf("%d of %d app states of the deposed term still reachable", n, len(ws))
	}
	runtime.KeepAlive(h.m1)
}

// TestUnregisteredAppPinsNothing: an app that leaves with demand still
// queued leaves tombstones in the tree's size classes until the next rebuild,
// and its last dispatch left it in the pooled fan-out accumulator; neither
// may keep its state — every unit and table — alive.
func TestUnregisteredAppPinsNothing(t *testing.T) {
	h, ws := busyMaster(t)
	for i := 1; i <= 2; i++ {
		app := fmt.Sprintf("wide-%d", i)
		h.net.SendID(h.net.Endpoint(app), h.net.Endpoint(protocol.MasterEndpoint), &protocol.UnregisterApp{App: app, Seq: 3})
		h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	}
	if n := pinned(ws[:2]); n != 0 {
		t.Errorf("%d of 2 unregistered app states still reachable", n)
	}
	select {
	case <-ws[2]:
		t.Error("the registered app's state was collected")
	default:
	}
	runtime.KeepAlive(h.m1)
}

// TestTombstonesPinNoAppState is the scheduler half of the above, with no
// master around it: the tombstones stay queued (far below the rebuild
// threshold) and must not reach the app's state.
func TestTombstonesPinNoAppState(t *testing.T) {
	s := NewScheduler(testTop(t, 1, 1), Options{})
	for _, app := range []string{"a", "b"} {
		if err := s.RegisterApp(app, "", []resource.ScheduleUnit{unit(1, 1, 100, 1000, 2048), unit(2, 1, 100, 1000, 2048)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.UpdateDemand(app, 1, []resource.LocalityHint{{Type: resource.LocalityCluster, Count: 30}}); err != nil {
			t.Fatal(err)
		}
	}
	w := []<-chan struct{}{watch(s.apps["b"])}
	s.UnregisterApp("b")
	if s.tree.(*localityTree).cq.slots[0].b.classes[0].tomb == 0 {
		t.Fatal("setup: want b's tombstone still queued")
	}
	if pinned(w) != 0 {
		t.Error("an unregistered app's state is reachable through its queued tombstone")
	}
	runtime.KeepAlive(s)
}

// TestFanOutScratchPinsNoApp: one round's dispatch fills a pooled
// accumulator per app it tells; a later step that tells fewer apps — here the
// unregister, which frees capacity nobody waits for — leaves the rest of the
// pool as it was. Those rows must not keep a departed app's state.
func TestFanOutScratchPinsNoApp(t *testing.T) {
	cfg := Config{ProcessName: "fm-1"}
	cfg.BatchWindow = 5 * sim.Millisecond
	h := newMasterHarness(t, cfg)
	var ws []<-chan struct{}
	for _, app := range []string{"a", "b"} {
		h.net.Register(app, func(transport.EndpointID, transport.Message) {})
		h.net.SendID(h.net.Endpoint(app), h.net.Endpoint(protocol.MasterEndpoint), &protocol.RegisterApp{
			App: app, Units: []resource.ScheduleUnit{unit(1, 1, 4, 1000, 2048), unit(2, 1, 4, 1000, 2048)}, Seq: 1,
		})
	}
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	for _, app := range []string{"a", "b"} {
		h.net.SendID(h.net.Endpoint(app), h.net.Endpoint(protocol.MasterEndpoint), &protocol.DemandUpdate{
			App: app, Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 2}), Seq: 2,
		})
		ws = append(ws, watch(h.m1.sched.apps[app]))
	}
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if len(h.m1.Scheduler().Granted("b", 1)) == 0 {
		t.Fatal("setup: b was granted nothing")
	}
	h.net.SendID(h.net.Endpoint("b"), h.net.Endpoint(protocol.MasterEndpoint), &protocol.UnregisterApp{App: "b", Seq: 3})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if pinned(ws[1:]) != 0 {
		t.Error("an unregistered app's state is reachable through the fan-out scratch")
	}
	runtime.KeepAlive(h.m1)
}
