package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
)

// note is the tests' pooled message, shaped like the protocol's: a header, a
// payload it owns, WireSize on the value receiver so *note and note report
// the same size. A note value is an ordinary message; only *note recycles.
type note struct {
	ID   int
	Body []int
}

func (*note) Pool() int { return 2 } // not zero: the free-list table must grow to it

func (m *note) Clear() {
	clear(m.Body)
	*m = note{Body: m.Body[:0]}
}

func (m note) WireSize() int { return 8 + 8*len(m.Body) }

func newNote(n *Net, id int, body ...int) *note {
	m := Acquire[note](n)
	m.ID = id
	m.Body = append(m.Body, body...)
	return m
}

func freeNotes(n *Net) []Recycled {
	if id := (*note)(nil).Pool(); id < len(n.free) {
		return n.free[id]
	}
	return nil
}

// TestWarmPooledSendAllocatesNothing is the alloc gate of the message path: a
// pooled message acquired, filled, sent and delivered — alone or as a batch of
// eight — costs a warm network nothing.
func TestWarmPooledSendAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	net := NewNet(eng)
	net.Latency = sim.Millisecond
	got := 0
	from := net.Register("a", func(EndpointID, Message) {})
	to := net.Register("b", func(_ EndpointID, m Message) { got += m.(*note).ID })
	batch := make([]Message, 8)
	single := func() {
		net.SendID(from, to, newNote(net, 1, 7, 8, 9))
		eng.Run(eng.Now() + sim.Millisecond)
	}
	batched := func() {
		for i := range batch {
			batch[i] = newNote(net, 1, 7, 8, 9)
		}
		net.SendBatchID(from, to, batch)
		eng.Run(eng.Now() + sim.Millisecond)
	}
	for i := 0; i < 9000; i++ { // one lap of the event ring: every slot has its group table
		single()
	}
	batched()
	if avg := testing.AllocsPerRun(200, single); avg != 0 {
		t.Errorf("warm pooled SendID + delivery: %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, batched); avg != 0 {
		t.Errorf("warm pooled SendBatchID of 8 + delivery: %.2f allocs/op, want 0", avg)
	}
	if got == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestKeptMessageReadsZero pins the poisoning half of the lifetime contract:
// a handler that keeps the pointer or a payload slice past its return reads
// zeros at once, and the storage is what the next Acquire hands out.
func TestKeptMessageReadsZero(t *testing.T) {
	eng, net := newNet(t)
	var kept *note
	var keptBody []int
	net.Register("b", func(_ EndpointID, m Message) {
		kept = m.(*note)
		keptBody = kept.Body
		if kept.ID != 42 || !reflect.DeepEqual(kept.Body, []int{1, 2, 3}) {
			t.Errorf("delivered %+v, want the message as sent", *kept)
		}
	})
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), newNote(net, 42, 1, 2, 3))
	eng.RunUntilIdle()
	if kept.ID != 0 || len(kept.Body) != 0 {
		t.Errorf("kept message reads %+v after its handler returned, want a zero header and an empty payload", *kept)
	}
	if !reflect.DeepEqual(keptBody, []int{0, 0, 0}) {
		t.Errorf("kept payload reads %v, want zeros", keptBody)
	}
	next := Acquire[note](net)
	if next != kept || cap(next.Body) < 3 {
		t.Errorf("Acquire returned %p (payload cap %d), want the recycled %p with its buffer", next, cap(next.Body), kept)
	}
	if fresh := Acquire[note](net); fresh == kept {
		t.Error("one release served two Acquires")
	}
}

// TestSharedOrQueuedMessagesAreNotRecycled walks every way a send can end
// other than one clean delivery. A message with two deliveries is never
// recycled (both handlers read it whole); one lost on arrival is released
// once, and only then; one refused at send time is released once, at once,
// and comes back cleared.
func TestSharedOrQueuedMessagesAreNotRecycled(t *testing.T) {
	cases := []struct {
		name      string
		before    func(n *Net) // conditions in force at send time
		inFlight  func(n *Net) // conditions raised while the message is queued
		delivered int
		released  int
		refused   bool // released by the send itself
	}{
		{name: "clean", delivered: 1, released: 1},
		{name: "dup rule", before: func(n *Net) { n.SetLinkRule("a", "b", LinkRule{Dup: 1}) }, delivered: 2},
		{name: "global dup rate", before: func(n *Net) { n.DupRate = 0.999999 }, delivered: 2},
		{name: "cut at arrival", inFlight: func(n *Net) { n.Partition([]string{"a"}, []string{"b"}) }, released: 1},
		{name: "flapped at arrival", inFlight: func(n *Net) { n.SetLinkDown("b", true) }, released: 1},
		{name: "down at arrival", inFlight: func(n *Net) { n.SetDown("b", true) }, released: 1},
		{name: "unregistered at arrival", inFlight: func(n *Net) { n.Unregister("b") }, released: 1},
		{name: "down at send", before: func(n *Net) { n.SetDown("b", true) }, released: 1, refused: true},
		{name: "cut at send", before: func(n *Net) { n.Partition([]string{"a"}, []string{"b"}) }, released: 1, refused: true},
		{name: "lost at send", before: func(n *Net) { n.DropRate = 0.999999 }, released: 1, refused: true},
		{name: "dup rule then cut at arrival", before: func(n *Net) { n.SetLinkRule("a", "b", LinkRule{Dup: 1}) },
			inFlight: func(n *Net) { n.SetLinkDown("a", true) }},
	}
	for _, c := range cases {
		for _, batch := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batch=%v", c.name, batch), func(t *testing.T) {
				eng, net := newNet(t)
				delivered := 0
				net.Register("b", func(_ EndpointID, m Message) {
					delivered++
					if n := m.(*note); n.ID < 1 || len(n.Body) != 2 || n.Body[1] != n.ID {
						t.Errorf("delivery %d reads %+v: recycled under a reader", delivered, *n)
					}
				})
				if c.before != nil {
					c.before(net)
				}
				perSend := 1
				if batch {
					perSend = 3
					net.SendBatchID(net.Endpoint("a"), net.Endpoint("b"), []Message{newNote(net, 1, 0, 1), newNote(net, 2, 0, 2), newNote(net, 3, 0, 3)})
				} else {
					net.SendID(net.Endpoint("a"), net.Endpoint("b"), newNote(net, 1, 0, 1))
				}
				if c.refused {
					free := freeNotes(net)
					if len(free) != perSend {
						t.Fatalf("%d messages on the free list after their send was refused, want %d", len(free), perSend)
					}
					for _, m := range free {
						if n := m.(*note); n.ID != 0 || len(n.Body) != 0 {
							t.Errorf("refused message back on the free list uncleared: %+v", *n)
						}
					}
				} else if len(freeNotes(net)) != 0 {
					t.Fatalf("%d messages on the free list while their send is still queued", len(freeNotes(net)))
				}
				if c.inFlight != nil {
					c.inFlight(net)
				}
				eng.RunUntilIdle()
				if delivered != c.delivered*perSend {
					t.Errorf("delivered %d, want %d", delivered, c.delivered*perSend)
				}
				free := freeNotes(net)
				if len(free) != c.released*perSend {
					t.Errorf("%d messages released, want %d", len(free), c.released*perSend)
				}
				seen := map[Recycled]bool{}
				for _, m := range free {
					if seen[m] {
						t.Errorf("message %p released twice", m)
					}
					seen[m] = true
				}
			})
		}
	}
}

// TestHeartbeatLifetime holds the agents' pooled heartbeat to the same
// contract as the test note: a beat a link rule duplicates reaches the master
// whole twice and is never recycled, and a handler that keeps a delivered
// beat reads zeros once it returns while its protocol.Keep copy stays whole.
func TestHeartbeatLifetime(t *testing.T) {
	pool := (*protocol.AgentHeartbeat)(nil).Pool()
	freeBeats := func(n *Net) int {
		if pool < len(n.free) {
			return len(n.free[pool])
		}
		return 0
	}
	beat := func(n *Net) *protocol.AgentHeartbeat {
		hb := Acquire[protocol.AgentHeartbeat](n)
		hb.Machine, hb.Full, hb.HealthScore, hb.Seq = 7, true, 90, 3
		hb.Allocations = append(hb.Allocations, protocol.AllocDelta{App: 2, UnitID: 1, Count: 4}, protocol.AllocDelta{App: 5, UnitID: 3, Count: 1})
		return hb
	}
	whole := func(hb *protocol.AgentHeartbeat) bool {
		return hb.Machine == 7 && hb.Full && hb.Seq == 3 && len(hb.Allocations) == 2 && hb.Allocations[1].App == 5
	}

	t.Run("duplicated", func(t *testing.T) {
		eng, net := newNet(t)
		delivered := 0
		net.Register("b", func(_ EndpointID, m Message) {
			delivered++
			if hb := m.(*protocol.AgentHeartbeat); !whole(hb) {
				t.Errorf("delivery %d reads %+v: recycled under a reader", delivered, *hb)
			}
		})
		net.SetLinkRule("a", "b", LinkRule{Dup: 1})
		net.SendID(net.Endpoint("a"), net.Endpoint("b"), beat(net))
		eng.RunUntilIdle()
		if delivered != 2 || freeBeats(net) != 0 {
			t.Errorf("delivered %d, released %d; want 2 deliveries and no release", delivered, freeBeats(net))
		}
	})

	t.Run("kept", func(t *testing.T) {
		eng, net := newNet(t)
		var kept *protocol.AgentHeartbeat
		var keptAllocs []protocol.AllocDelta
		var copied protocol.AgentHeartbeat
		net.Register("b", func(_ EndpointID, m Message) {
			kept = m.(*protocol.AgentHeartbeat)
			keptAllocs = kept.Allocations
			copied = protocol.Keep(m).(protocol.AgentHeartbeat)
		})
		net.SendID(net.Endpoint("a"), net.Endpoint("b"), beat(net))
		eng.RunUntilIdle()
		if kept.Machine != 0 || kept.Full || kept.Seq != 0 || kept.HealthScore != 0 || len(kept.Allocations) != 0 {
			t.Errorf("kept beat reads %+v after its handler returned, want zeros", *kept)
		}
		if !reflect.DeepEqual(keptAllocs, []protocol.AllocDelta{{}, {}}) {
			t.Errorf("kept allocation table reads %v, want zeros", keptAllocs)
		}
		if !whole(&copied) {
			t.Errorf("protocol.Keep copy reads %+v, want the beat as sent", copied)
		}
		if next := Acquire[protocol.AgentHeartbeat](net); next != kept || cap(next.Allocations) < 2 {
			t.Errorf("Acquire returned %p (table cap %d), want the recycled %p with its buffer", next, cap(next.Allocations), kept)
		}
	})
}

// TestPooledSendsDeliverWhatValueSendsDo drives one seeded script of sends,
// batches, partitions, flaps, link rules, crashes and re-registrations through
// two networks — one sending note values, as every sender did before
// messages were pooled, one sending recycled *note — and wants the same
// (time, from, to, contents) delivery sequence and the same traffic counters.
func TestPooledSendsDeliverWhatValueSendsDo(t *testing.T) {
	names := []string{"m", "a1", "a2", "a3", "g"}
	run := func(seed int64, pooled bool) ([]string, Stats) {
		eng := sim.NewEngine(seed)
		net := NewNet(eng)
		net.Jitter = 50 * sim.Microsecond
		var log []string
		ids := make([]EndpointID, len(names))
		handler := func(to string) Handler {
			return func(from EndpointID, msg Message) {
				var n note
				switch m := msg.(type) {
				case note:
					n = m
				case *note:
					n = *m
				}
				log = append(log, fmt.Sprintf("%d %s>%s #%d %v", eng.Now(), net.Name(from), to, n.ID, n.Body))
			}
		}
		for i, name := range names {
			ids[i] = net.Register(name, handler(name))
		}
		rng := rand.New(rand.NewSource(seed))
		next := 0
		msg := func() Message {
			next++
			body := []int{next, rng.Intn(100), rng.Intn(100)}[:1+rng.Intn(3)]
			if pooled {
				return newNote(net, next, body...)
			}
			return note{ID: next, Body: body}
		}
		var batch []Message
		for op := 0; op < 4000; op++ {
			a, b := rng.Intn(len(names)), rng.Intn(len(names))
			switch k := rng.Intn(100); {
			case k < 60:
				net.SendID(ids[a], ids[b], msg())
			case k < 74:
				batch = batch[:0]
				for i := 2 + rng.Intn(5); i > 0; i-- {
					batch = append(batch, msg())
				}
				net.SendBatchID(ids[a], ids[b], batch)
			case k < 75:
				net.Partition([]string{names[a]}, []string{names[b]})
			case k < 78:
				net.Heal()
			case k < 81:
				net.SetLinkDown(names[a], k == 78)
			case k < 83:
				net.SetLinkRule(names[a], names[b], LinkRule{Dup: 0.5, Drop: 0.2, Jitter: sim.Time(rng.Intn(300))})
			case k < 84:
				net.SetLinkRule(names[a], names[b], LinkRule{})
			case k < 87:
				net.SetDown(names[a], k == 84)
			case k < 88:
				net.Unregister(names[a])
			case k < 91:
				net.Register(names[a], handler(names[a]))
			case k < 92:
				net.ClearConditions()
			default:
				eng.Run(eng.Now() + sim.Time(rng.Intn(400)))
			}
		}
		eng.RunUntilIdle()
		return log, net.Stats()
	}
	for seed := int64(1); seed <= 5; seed++ {
		want, wantStats := run(seed, false)
		got, gotStats := run(seed, true)
		if len(want) < 1000 || wantStats.Duplicated == 0 || wantStats.Dropped == 0 || wantStats.Batches == 0 {
			t.Fatalf("seed %d: the script delivered %d messages with stats %v: a case is missing", seed, len(want), wantStats)
		}
		if gotStats != wantStats {
			t.Errorf("seed %d: stats %v with pooled messages, %v with values", seed, gotStats, wantStats)
		}
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				g := "<end of log>"
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d delivery %d of %d: pooled %q, value %q", seed, i, len(want), g, want[i])
			}
		}
		if len(got) != len(want) {
			t.Errorf("seed %d: %d deliveries with pooled messages, %d with values", seed, len(got), len(want))
		}
	}
}

// BenchmarkSendDeliver measures one message sent and delivered on a warm
// network: as a value, boxed into the Message interface per send as every
// protocol message was, and as a pooled pointer that owns its payload; alone
// and in batches of eight.
func BenchmarkSendDeliver(b *testing.B) {
	body := []int{7, 8, 9}
	for _, pooled := range []bool{false, true} {
		for _, group := range []int{1, 8} {
			kind := "value"
			if pooled {
				kind = "pooled"
			}
			b.Run(fmt.Sprintf("%s/batch=%d", kind, group), func(b *testing.B) {
				eng := sim.NewEngine(1)
				net := NewNet(eng)
				from := net.Register("a", func(EndpointID, Message) {})
				to := net.Register("b", func(EndpointID, Message) {})
				batch := make([]Message, group)
				b.ReportAllocs()
				for i := 0; i < b.N; i += group {
					for j := range batch {
						if pooled {
							batch[j] = newNote(net, i, body...)
						} else {
							batch[j] = note{ID: i, Body: body}
						}
					}
					net.SendBatchID(from, to, batch) // a batch of one is a SendID
					eng.Run(eng.Now() + net.Latency)
				}
			})
		}
	}
}

// TestReleaseRecyclesUnsent: a message drawn and never sent goes back to the
// free list through Release, cleared, and the next Acquire draws it.
func TestReleaseRecyclesUnsent(t *testing.T) {
	net := NewNet(sim.NewEngine(1))
	m := newNote(net, 7, 1, 2, 3)
	body := m.Body[:3]
	net.Release(m)
	if m.ID != 0 || len(m.Body) != 0 || body[0] != 0 {
		t.Fatalf("released note still carries %+v (body %v)", *m, body)
	}
	if got := Acquire[note](net); got != m || cap(got.Body) < 3 {
		t.Fatalf("Acquire after Release drew %p (cap %d), want the released %p", got, cap(got.Body), m)
	}
}
