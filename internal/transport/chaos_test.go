package transport

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// collect registers an endpoint that appends every payload string it
// receives.
func collect(net *Net, name string) *[]string {
	var got []string
	net.Register(name, func(from EndpointID, msg Message) {
		got = append(got, msg.(string))
	})
	return &got
}

func TestPartitionCutsBothDirections(t *testing.T) {
	eng, net := newNet(t)
	ga := collect(net, "a")
	gb := collect(net, "b")
	gc := collect(net, "c")

	net.Partition([]string{"a"}, []string{"b"})
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "a->b")
	net.SendID(net.Endpoint("b"), net.Endpoint("a"), "b->a")
	// c is in neither group: it reaches both sides and both reach it.
	net.SendID(net.Endpoint("a"), net.Endpoint("c"), "a->c")
	net.SendID(net.Endpoint("b"), net.Endpoint("c"), "b->c")
	net.SendID(net.Endpoint("c"), net.Endpoint("a"), "c->a")
	net.SendID(net.Endpoint("c"), net.Endpoint("b"), "c->b")
	eng.RunUntilIdle()

	if len(*ga) != 1 || (*ga)[0] != "c->a" {
		t.Errorf("a got %v, want only c->a", *ga)
	}
	if len(*gb) != 1 || (*gb)[0] != "c->b" {
		t.Errorf("b got %v, want only c->b", *gb)
	}
	if len(*gc) != 2 {
		t.Errorf("c got %v, want both sides", *gc)
	}
	if d := net.Stats().Dropped; d != 2 {
		t.Errorf("dropped = %d, want 2", d)
	}

	net.Heal()
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "after-heal")
	eng.RunUntilIdle()
	if len(*gb) != 2 || (*gb)[1] != "after-heal" {
		t.Errorf("after heal b got %v", *gb)
	}
}

func TestPartitionDropsInFlightMessages(t *testing.T) {
	eng, net := newNet(t)
	gb := collect(net, "b")
	net.Endpoint("a")

	// Queue a message, then cut the link before its delivery event fires:
	// the in-flight message must be lost at arrival.
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "doomed")
	net.Partition([]string{"a"}, []string{"b"})
	eng.RunUntilIdle()
	if len(*gb) != 0 {
		t.Errorf("b got %v, want nothing (message crossed a forming partition)", *gb)
	}
	if d := net.Stats().Dropped; d != 1 {
		t.Errorf("dropped = %d, want 1", d)
	}
}

func TestIsolateCutsGroupFromRest(t *testing.T) {
	eng, net := newNet(t)
	g1 := collect(net, "m1")
	g2 := collect(net, "m2")
	gout := collect(net, "out")

	net.Isolate([]string{"m1", "m2"})
	net.SendID(net.Endpoint("m1"), net.Endpoint("m2"), "intra") // within the group: stays up
	net.SendID(net.Endpoint("m1"), net.Endpoint("out"), "leak")
	net.SendID(net.Endpoint("out"), net.Endpoint("m1"), "in")
	net.SendID(net.Endpoint("out"), net.Endpoint("m2"), "in2")
	eng.RunUntilIdle()

	if len(*g2) != 1 || (*g2)[0] != "intra" {
		t.Errorf("m2 got %v, want only intra", *g2)
	}
	if len(*g1) != 0 || len(*gout) != 0 {
		t.Errorf("leaked across isolation: m1=%v out=%v", *g1, *gout)
	}
}

func TestLinkFlapIndependentOfSetDown(t *testing.T) {
	eng, net := newNet(t)
	gb := collect(net, "b")

	net.SetLinkDown("b", true)
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "x")
	eng.RunUntilIdle()
	if len(*gb) != 0 {
		t.Fatalf("b got %v through a flapped link", *gb)
	}
	// A flap must not register as the machine being down, and restoring the
	// flap must not clear a real SetDown.
	if net.IsDown("b") {
		t.Error("SetLinkDown leaked into IsDown")
	}
	net.SetDown("b", true)
	net.SetLinkDown("b", false)
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "y")
	eng.RunUntilIdle()
	if len(*gb) != 0 {
		t.Errorf("b got %v while SetDown", *gb)
	}
	net.SetDown("b", false)
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "z")
	eng.RunUntilIdle()
	if len(*gb) != 1 || (*gb)[0] != "z" {
		t.Errorf("after clearing both, b got %v", *gb)
	}
}

func TestDelaySpikeStretchesLatency(t *testing.T) {
	eng, net := newNet(t)
	var at sim.Time = -1
	net.Register("b", func(EndpointID, Message) { at = eng.Now() })

	net.SetLinkDelay("b", 5*sim.Millisecond)
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "x")
	eng.RunUntilIdle()
	want := net.Latency + 5*sim.Millisecond
	if at != want {
		t.Errorf("delivered at %d, want %d", at, want)
	}

	net.SetLinkDelay("b", 0)
	at = -1
	base := eng.Now()
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "y")
	eng.RunUntilIdle()
	if at != base+net.Latency {
		t.Errorf("after clearing spike delivered at %d, want %d", at, base+net.Latency)
	}
}

func TestLinkRuleDropAndDup(t *testing.T) {
	eng, net := newNet(t)
	gb := collect(net, "b")
	gc := collect(net, "c")

	net.SetLinkRule("a", "b", LinkRule{Drop: 1})
	net.SetLinkRule("a", "c", LinkRule{Dup: 1})
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "x")
	net.SendID(net.Endpoint("a"), net.Endpoint("c"), "y")
	eng.RunUntilIdle()
	if len(*gb) != 0 {
		t.Errorf("b got %v through Drop:1 rule", *gb)
	}
	if len(*gc) != 2 {
		t.Errorf("c got %v, want duplicated pair", *gc)
	}
	// Clearing with the zero rule restores the link.
	net.SetLinkRule("a", "b", LinkRule{})
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "x2")
	eng.RunUntilIdle()
	if len(*gb) != 1 {
		t.Errorf("after clearing rule b got %v", *gb)
	}
}

func TestLinkStatsAttributeLoss(t *testing.T) {
	eng, net := newNet(t)
	collect(net, "b")
	collect(net, "c")
	net.EnableLinkStats()

	net.Isolate([]string{"c"})
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "ok")
	net.SendID(net.Endpoint("a"), net.Endpoint("c"), "lost")
	net.SetLinkDelay("b", sim.Millisecond)
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "late")
	eng.RunUntilIdle()

	ls := net.LinkStats()
	byPair := map[string]LinkStat{}
	for _, s := range ls {
		byPair[s.From+">"+s.To] = s
	}
	ab := byPair["a>b"]
	if ab.Sent != 2 || ab.Delivered != 2 || ab.Dropped != 0 || ab.Delayed != 1 {
		t.Errorf("a>b = %+v", ab)
	}
	ac := byPair["a>c"]
	if ac.Sent != 1 || ac.Dropped != 1 || ac.Delivered != 0 {
		t.Errorf("a>c = %+v", ac)
	}

	// The ID form reads the same counters without materializing the sorted
	// name view — and without allocating (it sits on the obs record path).
	a, c := net.Endpoint("a"), net.Endpoint("c")
	sent, delivered, dropped, _ := net.LinkCountsID(a, c)
	if sent != 1 || dropped != 1 || delivered != 0 {
		t.Errorf("LinkCountsID(a,c) = %d/%d/%d, want 1/0/1", sent, delivered, dropped)
	}
	if s2, _, _, _ := net.LinkCountsID(c, a); s2 != 0 {
		t.Errorf("untrafficked link reported sent=%d", s2)
	}
	if avg := testing.AllocsPerRun(100, func() { net.LinkCountsID(a, c) }); avg != 0 {
		t.Errorf("LinkCountsID allocates %.2f/read, want 0", avg)
	}
}

// TestOrderingContract pins the transport's documented ordering semantics:
// separate Send calls on one link MAY reorder under jitter (each draws its
// own delay), while a SendBatchID is a single wire unit whose messages always
// arrive in order.
func TestOrderingContract(t *testing.T) {
	// Part 1: find a seed where two separate Sends reorder. If jitter could
	// not reorder separate sends, no seed would exhibit it and the contract
	// documentation would be wrong.
	reordered := false
	for seed := int64(0); seed < 64 && !reordered; seed++ {
		eng := sim.NewEngine(seed)
		net := NewNet(eng)
		net.Jitter = 10 * sim.Millisecond
		got := collect(net, "b")
		net.SendID(net.Endpoint("a"), net.Endpoint("b"), "first")
		net.SendID(net.Endpoint("a"), net.Endpoint("b"), "second")
		eng.RunUntilIdle()
		if len(*got) != 2 {
			t.Fatalf("seed %d: got %v", seed, *got)
		}
		if (*got)[0] == "second" {
			reordered = true
		}
	}
	if !reordered {
		t.Error("no seed reordered two separate Sends under jitter; the documented reordering contract no longer holds")
	}

	// Part 2: batches never reorder internally, whatever the jitter does.
	eng := sim.NewEngine(3)
	net := NewNet(eng)
	net.Jitter = 10 * sim.Millisecond
	var got []string
	net.Register("b", func(from EndpointID, msg Message) { got = append(got, msg.(string)) })
	for round := 0; round < 50; round++ {
		batch := make([]Message, 8)
		for i := range batch {
			batch[i] = fmt.Sprintf("r%d-%d", round, i)
		}
		net.SendBatchID(net.Endpoint("a"), net.Endpoint("b"), batch)
		eng.RunUntilIdle()
		for i := 0; i < 8; i++ {
			want := fmt.Sprintf("r%d-%d", round, i)
			if got[i] != want {
				t.Fatalf("round %d: batch delivered out of order: %v", round, got)
			}
		}
		got = got[:0]
	}
}
