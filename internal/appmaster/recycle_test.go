package appmaster

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestLateMessageToRecycledSlotIsDropped: application master A finishes — the
// master acks its unregister and A retires its endpoint — while a grant update
// and a second ack for A are still on the wire. Application master B starts,
// takes A's endpoint slot, and the late messages land on that slot. B must
// see neither: A's grant would book containers B never asked for, and A's ack
// would end B's own unregister before the master confirmed it (stranding B's
// capacity if that unregister is then lost). Without the network's generation
// fence in Net.land both reach B's handler.
func TestLateMessageToRecycledSlotIsDropped(t *testing.T) {
	h := newHarness(t, 0)
	machine := h.top.Machines()[0]
	h.eng.Run(h.eng.Now() + sim.Millisecond)
	a := h.am
	aID := h.net.Lookup("app1")
	a.Unregister()
	h.eng.Run(h.eng.Now() + sim.Millisecond)

	// The master acks A at once and, over a link slowed down, sends the
	// late pair.
	master := h.net.Lookup(protocol.MasterEndpoint)
	h.net.SendID(master, aID, &protocol.UnregisterAck{App: "app1", Epoch: 1, Seq: 1})
	h.net.SetLinkRule(protocol.MasterEndpoint, "app1", transport.LinkRule{Delay: 5 * sim.Millisecond})
	h.net.SendID(master, aID, &protocol.GrantUpdate{
		App: "app1", Epoch: 1, Seq: 1,
		Changes: []protocol.UnitDelta{{UnitID: 1, Machine: h.top.MachineID(machine), Delta: 2}},
	})
	h.net.SetLinkRule(protocol.MasterEndpoint, "app1", transport.LinkRule{Delay: 8 * sim.Millisecond})
	h.net.SendID(master, aID, &protocol.UnregisterAck{App: "app1", Epoch: 1, Seq: 2})
	h.eng.Run(h.eng.Now() + sim.Millisecond)
	if h.net.Registered("app1") || h.net.Lookup("app1") != transport.None {
		t.Fatal("A's endpoint is still live after its unregister ack")
	}

	var grants int
	b := New(Config{App: "app2", Units: a.cfg.Units}, h.eng, h.net, h.top, cbFuncs{
		Grant: func(int, int32, int) { grants++ },
	})
	bID := h.net.Lookup("app2")
	if bID.Slot() != aID.Slot() || bID == aID {
		t.Fatalf("B has ID %d (slot %d), A had %d (slot %d): the test needs A's slot under a new generation",
			bID, bID.Slot(), aID, aID.Slot())
	}
	h.eng.Run(h.eng.Now() + 5*sim.Millisecond) // A's late grant lands
	if grants != 0 || b.Held(1, h.top.MachineID(machine)) != 0 {
		t.Fatalf("B was handed A's late grant: %d callbacks, %d held", grants, b.Held(1, h.top.MachineID(machine)))
	}
	b.Unregister()
	h.eng.Run(h.eng.Now() + 5*sim.Millisecond) // A's late ack lands
	if !h.net.Registered("app2") {
		t.Fatal("A's late ack ended B's unregister: B retired before the master acknowledged it")
	}
	if s := h.net.Stats(); s.Dropped < 2 {
		t.Fatalf("stats %v: the two late messages must be counted as dropped", s)
	}
}
