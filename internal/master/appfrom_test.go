package master

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/lockservice"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestAppMessagesFromAnotherEndpointAreDropped: FuxiMaster takes the
// messages that introduce, sync or end an application only from the endpoint
// named after it, where its grants and acks go. From any other endpoint a
// RegisterApp, a FullDemandSync or an UnregisterApp is dropped whole, for an
// app the master does not know as for one it does: it registers nothing,
// unregisters nothing, reconciles nothing, writes no checkpoint record, moves
// no dedup mark of the sender's and is not acknowledged.
func TestAppMessagesFromAnotherEndpointAreDropped(t *testing.T) {
	units := []resource.ScheduleUnit{{ID: 1, Priority: 100, MaxCount: 8, Size: resource.New(1000, 2048)}}
	for _, msg := range []struct {
		name string
		make func() transport.Message
	}{
		{"register", func() transport.Message { return &protocol.RegisterApp{App: "app1", Units: units, Seq: 1} }},
		{"sync", func() transport.Message { return &protocol.FullDemandSync{App: "app1", Units: units, Seq: 1} }},
		{"unregister", func() transport.Message { return &protocol.UnregisterApp{App: "app1", Seq: 1} }},
	} {
		for _, known := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/registered=%v", msg.name, known), func(t *testing.T) {
				h := newMasterHarness(t, Config{ProcessName: "fm-1"})
				var toClient []transport.Message
				client := h.net.Register("client", func(_ transport.EndpointID, m transport.Message) {
					toClient = append(toClient, protocol.Keep(m))
				})
				s := h.m1.Scheduler()
				if known {
					h.registerApp(t)
					h.send(&protocol.DemandUpdate{App: "app1", Seq: h.seq.Next(),
						Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 3})})
					// Past the fence window of the last grant, a sync from the
					// app itself reporting nothing held would be reconciled:
					// the master would re-announce the holdings.
					h.eng.Run(h.eng.Now() + 2*syncFenceWindow)
					h.toApp = nil
				}
				writes := h.ckpt.Writes
				h.net.SendID(client, h.net.Endpoint(protocol.MasterEndpoint), msg.make())
				h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
				if s.Registered("app1") != known || h.ckpt.Writes != writes {
					t.Fatalf("app1 registered %v, %d checkpoint writes; want %v, %d", s.Registered("app1"), h.ckpt.Writes, known, writes)
				}
				if known && s.Held("app1", 1) != 3 {
					t.Fatalf("app1 holds %d, want 3", s.Held("app1", 1))
				}
				for ch := protocol.Chan(0); ch <= protocol.ChanGrant; ch++ {
					if seq := h.m1.dedup.LastCh(int32(client), ch); seq != 0 {
						t.Fatalf("the client's mark on channel %d moved to %d", ch, seq)
					}
				}
				if len(toClient) != 0 || len(h.toApp) != 0 {
					t.Fatalf("the client heard %v, the app %v; want nothing", toClient, h.toApp)
				}
			})
		}
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
	ckpt.compactEvery, oracle.CompactEvery = 1, 1
	units := []resource.ScheduleUnit{{ID: 1, Priority: 1, MaxCount: 4, Size: resource.New(100, 128)}}
	for _, a := range []AppConfig{{Name: "ghost", Group: "no-such-group", Units: units}, {Name: "app1", Units: units},
		{Name: "ghost3", Group: "no-such-group", Units: units}} {
		ckpt.SaveApp(a)
		oracle.SaveApp(a)
	}
	for _, name := range []string{"ghost", "app1", "ghost3", "ghost2"} {
		net.Register(name, func(transport.EndpointID, transport.Message) {})
	}
	m := NewMaster(Config{ProcessName: "fm-1"}, eng, net, lockservice.New(eng), testTop(t, 2, 2), ckpt)
	oracle.BumpEpoch()
	if !m.IsPrimary() || m.Scheduler().Registered("ghost") || !m.Scheduler().Registered("app1") {
		t.Fatal("setup: the master should promote with app1 registered and ghost refused")
	}
	send := func(from string, msg transport.Message) {
		net.SendID(net.Endpoint(from), net.Endpoint(protocol.MasterEndpoint), msg)
		eng.Run(eng.Now() + 10*sim.Millisecond)
	}
	same := func(step string) {
		t.Helper()
		if !bytes.Equal(ckpt.anchor, oracle.anchor) || !bytes.Equal(ckpt.log, oracle.log) {
			t.Fatalf("%s: checkpoint bytes diverged from the name-keyed oracle's", step)
		}
	}
	same("promotion")

	send("ghost3", &protocol.UnregisterApp{App: "ghost3", Seq: 1})
	oracle.RemoveApp("ghost3")
	same("unregister of a refused checkpointed app")

	send("ghost", &protocol.RegisterApp{App: "ghost", Units: units, Seq: 1})
	oracle.SaveApp(AppConfig{Name: "ghost", Units: units})
	same("registration of a refused checkpointed app")
	send("ghost", &protocol.UnregisterApp{App: "ghost", Seq: 2})
	oracle.RemoveApp("ghost")
	same("unregister of it")

	send("ghost2", &protocol.FullDemandSync{App: "ghost2", QuotaGroup: "no-such-group", Units: units, Seq: 1})
	oracle.SaveApp(AppConfig{Name: "ghost2", Group: "no-such-group", Units: units})
	same("sync of a refused app")
	send("ghost2", &protocol.UnregisterApp{App: "ghost2", Seq: 2})
	oracle.RemoveApp("ghost2")
	same("unregister of a refused synced app")

	send("app1", &protocol.UnregisterApp{App: "app1", Seq: 1})
	oracle.RemoveApp("app1")
	same("unregister of a registered app")
	if got := ckpt.Load().Apps; len(got) != 0 {
		t.Fatalf("%d apps left in the checkpoint", len(got))
	}
}
