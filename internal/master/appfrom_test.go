package master

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/lockservice"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestScriptedSenderResolvesByName covers the one fallback of appFrom: a
// sender that is not named after the app it speaks for (a scripted client)
// is resolved by the app's name. It registers an app, demands for it, syncs
// it and unregisters it from an endpoint called "client"; every step must
// land on the app, grants must go to the app's own endpoint, acks to the
// client, and the checkpoint must gain and lose the app's record. A sync
// from the client for an app the master does not know registers it, by name
// as well.
func TestScriptedSenderResolvesByName(t *testing.T) {
	h := newMasterHarness(t, DefaultConfig("fm-1"))
	var toClient []transport.Message
	h.net.Register("client", func(_ transport.EndpointID, m transport.Message) {
		toClient = append(toClient, protocol.Keep(m))
	})
	var seq protocol.Sequencer
	send := func(msg transport.Message) {
		h.net.Send("client", protocol.MasterEndpoint, msg)
		h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	}
	units := []resource.ScheduleUnit{{ID: 1, Priority: 100, MaxCount: 8, Size: resource.New(1000, 2048)}}
	saved := func(name string) bool {
		for _, a := range h.ckpt.Load().Apps {
			if a.Name == name {
				return true
			}
		}
		return false
	}

	send(protocol.RegisterApp{App: "app1", Units: units, Seq: seq.Next()})
	s := h.m1.Scheduler()
	if !s.Registered("app1") || !saved("app1") {
		t.Fatalf("register from the client: registered %v, checkpointed %v", s.Registered("app1"), saved("app1"))
	}
	if ep := s.apps["app1"].ep; ep != h.net.Lookup("app1") {
		t.Fatalf("app bound to endpoint %v, want the app's own %v", ep, h.net.Lookup("app1"))
	}
	writes := h.ckpt.Writes
	send(protocol.RegisterApp{App: "app1", Units: units, Seq: seq.Next()})
	if h.ckpt.Writes != writes {
		t.Fatal("a re-registration from the client was taken for a new app")
	}

	send(protocol.DemandUpdate{App: "app1",
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 3}), Seq: seq.Next()})
	if held := s.Held("app1", 1); held != 3 {
		t.Fatalf("demand from the client: held %d, want 3", held)
	}
	grants := 0
	for _, m := range h.toApp {
		if gu, ok := m.(protocol.GrantUpdate); ok && gu.App == "app1" {
			grants++
		}
	}
	if grants == 0 {
		t.Fatal("no grant reached the app's own endpoint")
	}

	// A sync that reports nothing held, past the fence window of the last
	// grant: the master's ledger wins, so it re-announces the holdings.
	h.eng.Run(h.eng.Now() + 2*syncFenceWindow)
	h.toApp = nil
	send(protocol.FullDemandSync{App: "app1", Units: units, Seq: seq.Next()})
	if h.ckpt.Writes != writes {
		t.Fatal("a sync from the client was taken for a new app")
	}
	if len(h.toApp) == 0 {
		t.Fatal("the sync was not reconciled against the app's ledger")
	}

	send(protocol.UnregisterApp{App: "app1", Seq: seq.Next()})
	if s.Registered("app1") || saved("app1") {
		t.Fatalf("unregister from the client: registered %v, checkpointed %v", s.Registered("app1"), saved("app1"))
	}
	acked := false
	for _, m := range toClient {
		if a, ok := m.(protocol.UnregisterAck); ok && a.App == "app1" {
			acked = true
		}
	}
	if !acked {
		t.Fatal("the unregister was not acknowledged to the client")
	}

	h.net.Register("app2", func(transport.EndpointID, transport.Message) {})
	send(protocol.FullDemandSync{App: "app2", Units: units, Seq: seq.Next()})
	if !s.Registered("app2") || !saved("app2") || s.apps["app2"].ep != h.net.Lookup("app2") {
		t.Fatalf("sync from the client for an unknown app: registered %v, checkpointed %v", s.Registered("app2"), saved("app2"))
	}
	if bad := s.CheckAllInvariants(); len(bad) > 0 {
		t.Fatalf("invariants: %v", bad)
	}
}

// TestAppIDsMatchInternTable is the differential for the scheduler's app
// IDs: ident.Table, the ID source the scheduler had when it interned app
// names, runs beside a scheduler on one seeded stream of registrations and
// unregistrations, and every registered app's ID must be the one the table
// gives its name. A registration the scheduler refuses takes no ID, so the
// table sees only the ones it accepts.
func TestAppIDsMatchInternTable(t *testing.T) {
	s := NewScheduler(testTop(t, 2, 2), Options{})
	var tbl ident.Table
	rng := rand.New(rand.NewSource(3))
	units := []resource.ScheduleUnit{{ID: 1, Priority: 1, MaxCount: 4, Size: resource.New(100, 128)}}
	bad := []resource.ScheduleUnit{{ID: 1, Priority: 1, MaxCount: -1, Size: resource.New(100, 128)}}
	live := map[string]bool{}
	for i := 0; i < 5000; i++ {
		name := "app-" + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
		switch {
		case live[name]:
			st := s.apps[name]
			s.UnregisterApp(name)
			tbl.Release(st.id)
			delete(live, name)
		case rng.Intn(8) == 0:
			if s.RegisterApp(name, "", bad) == nil {
				t.Fatal("an invalid unit was accepted")
			}
		default:
			if err := s.RegisterApp(name, "", units); err != nil {
				t.Fatal(err)
			}
			live[name] = true
			if got, want := s.apps[name].id, tbl.Intern(name); got != want {
				t.Fatalf("step %d: %s got app ID %d, the intern table gives %d", i, name, got, want)
			}
		}
	}
	if s.appIDs.Len() != tbl.Len() {
		t.Fatalf("the scheduler handed out %d IDs, the table %d", s.appIDs.Len(), tbl.Len())
	}
}

// TestRefusedAppsLeaveTheCheckpoint: the checkpoint keeps the record of an
// app the scheduler refuses (a checkpointed app whose quota group this
// master does not have, a full sync naming one) unkeyed. The app's
// unregister must still remove it, and a later registration that the
// scheduler accepts must replace it in place, though no scheduler state
// carried its endpoint. The durable bytes must be the name-keyed oracle
// store's, driven by the same writes by name.
func TestRefusedAppsLeaveTheCheckpoint(t *testing.T) {
	eng := sim.NewEngine(9)
	net := transport.NewNet(eng)
	ckpt := NewCheckpointStore()
	oracle := newOracleStore()
	// An anchor after every write: the writer's view itself is compared.
	ckpt.CompactEvery, oracle.CompactEvery = 1, 1
	units := []resource.ScheduleUnit{{ID: 1, Priority: 1, MaxCount: 4, Size: resource.New(100, 128)}}
	for _, a := range []AppConfig{{Name: "ghost", Group: "no-such-group", Units: units}, {Name: "app1", Units: units},
		{Name: "ghost3", Group: "no-such-group", Units: units}} {
		ckpt.SaveApp(a)
		oracle.SaveApp(a)
	}
	for _, name := range []string{"ghost", "app1", "ghost3", "client"} {
		net.Register(name, func(transport.EndpointID, transport.Message) {})
	}
	m := NewMaster(DefaultConfig("fm-1"), eng, net, lockservice.New(eng), testTop(t, 2, 2), ckpt)
	oracle.BumpEpoch()
	if !m.IsPrimary() || m.Scheduler().Registered("ghost") || !m.Scheduler().Registered("app1") {
		t.Fatal("setup: the master should promote with app1 registered and ghost refused")
	}
	send := func(from string, msg transport.Message) {
		net.Send(from, protocol.MasterEndpoint, msg)
		eng.Run(eng.Now() + 10*sim.Millisecond)
	}
	same := func(step string) {
		t.Helper()
		if !bytes.Equal(ckpt.anchor, oracle.anchor) || !bytes.Equal(ckpt.log, oracle.log) {
			t.Fatalf("%s: checkpoint bytes diverged from the name-keyed oracle's", step)
		}
	}
	same("promotion")

	send("ghost3", protocol.UnregisterApp{App: "ghost3", Seq: 1})
	oracle.RemoveApp("ghost3")
	same("unregister of a refused checkpointed app")

	send("ghost", protocol.RegisterApp{App: "ghost", Units: units, Seq: 1})
	oracle.SaveApp(AppConfig{Name: "ghost", Units: units})
	same("registration of a refused checkpointed app")
	send("ghost", protocol.UnregisterApp{App: "ghost", Seq: 2})
	oracle.RemoveApp("ghost")
	same("unregister of it")

	send("client", protocol.FullDemandSync{App: "ghost2", QuotaGroup: "no-such-group", Units: units, Seq: 1})
	oracle.SaveApp(AppConfig{Name: "ghost2", Group: "no-such-group", Units: units})
	same("sync of a refused app")
	send("client", protocol.UnregisterApp{App: "ghost2", Seq: 2})
	oracle.RemoveApp("ghost2")
	same("unregister of a refused synced app")

	send("app1", protocol.UnregisterApp{App: "app1", Seq: 1})
	oracle.RemoveApp("app1")
	same("unregister of a registered app")
	if got := ckpt.Load().Apps; len(got) != 0 {
		t.Fatalf("%d apps left in the checkpoint", len(got))
	}
}
