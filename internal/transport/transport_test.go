package transport

import (
	"testing"

	"repro/internal/sim"
)

func newNet(t *testing.T) (*sim.Engine, *Net) {
	t.Helper()
	eng := sim.NewEngine(7)
	return eng, NewNet(eng)
}

func TestDelivery(t *testing.T) {
	eng, net := newNet(t)
	var got []string
	net.Register("b", func(from EndpointID, msg Message) {
		got = append(got, net.Name(from)+":"+msg.(string))
	})
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "hello")
	eng.RunUntilIdle()
	if len(got) != 1 || got[0] != "a:hello" {
		t.Errorf("got %v", got)
	}
}

func TestLatencyApplied(t *testing.T) {
	eng, net := newNet(t)
	net.Latency = 500 * sim.Microsecond
	var at sim.Time = -1
	net.Register("b", func(EndpointID, Message) { at = eng.Now() })
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "x")
	eng.RunUntilIdle()
	if at != 500 {
		t.Errorf("delivered at %d, want 500", at)
	}
}

func TestUnregisteredDropped(t *testing.T) {
	eng, net := newNet(t)
	net.SendID(net.Endpoint("a"), net.Endpoint("nobody"), "x")
	eng.RunUntilIdle()
	if s := net.Stats(); s.Delivered != 0 || s.Dropped != 1 {
		t.Errorf("stats = %v", s)
	}
}

func TestDownEndpointDropsBothDirections(t *testing.T) {
	eng, net := newNet(t)
	delivered := 0
	net.Register("b", func(EndpointID, Message) { delivered++ })
	net.Register("a", func(EndpointID, Message) { delivered++ })

	net.SetDown("b", true)
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "to-down")
	net.SendID(net.Endpoint("b"), net.Endpoint("a"), "from-down")
	eng.RunUntilIdle()
	if delivered != 0 {
		t.Errorf("delivered = %d, want 0", delivered)
	}
	if !net.IsDown("b") {
		t.Error("IsDown false")
	}

	net.SetDown("b", false)
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "up-again")
	eng.RunUntilIdle()
	if delivered != 1 {
		t.Errorf("delivered after recovery = %d, want 1", delivered)
	}
}

func TestDownAtArrivalDrops(t *testing.T) {
	// Message sent while up, endpoint goes down before delivery: dropped,
	// like a machine crashing with packets in flight.
	eng, net := newNet(t)
	net.Latency = 1000
	delivered := 0
	net.Register("b", func(EndpointID, Message) { delivered++ })
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "x")
	eng.At(500, func() { net.SetDown("b", true) })
	eng.RunUntilIdle()
	if delivered != 0 {
		t.Errorf("delivered = %d, want 0", delivered)
	}
}

func TestDropRate(t *testing.T) {
	eng, net := newNet(t)
	net.DropRate = 0.5
	delivered := 0
	net.Register("b", func(EndpointID, Message) { delivered++ })
	const n = 2000
	for i := 0; i < n; i++ {
		net.SendID(net.Endpoint("a"), net.Endpoint("b"), i)
	}
	eng.RunUntilIdle()
	if delivered < n/3 || delivered > 2*n/3 {
		t.Errorf("delivered = %d of %d with 50%% drop", delivered, n)
	}
	s := net.Stats()
	if s.Dropped+uint64(delivered) != n {
		t.Errorf("dropped(%d)+delivered(%d) != sent(%d)", s.Dropped, delivered, n)
	}
}

func TestDupRate(t *testing.T) {
	eng, net := newNet(t)
	net.DupRate = 1.0 // every message duplicated
	delivered := 0
	net.Register("b", func(EndpointID, Message) { delivered++ })
	for i := 0; i < 10; i++ {
		net.SendID(net.Endpoint("a"), net.Endpoint("b"), i)
	}
	eng.RunUntilIdle()
	if delivered != 20 {
		t.Errorf("delivered = %d, want 20 (all duplicated)", delivered)
	}
}

type sized struct{ n int }

func (s sized) WireSize() int { return s.n }

func TestByteAccounting(t *testing.T) {
	eng, net := newNet(t)
	net.Register("b", func(EndpointID, Message) {})
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), sized{n: 100})
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "unsized")
	eng.RunUntilIdle()
	if got := net.Stats().Bytes; got != 164 {
		t.Errorf("bytes = %d, want 164", got)
	}
	net.ResetStats()
	if net.Stats().Sent != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestReRegisterReplacesHandler(t *testing.T) {
	eng, net := newNet(t)
	var got string
	net.Register("b", func(EndpointID, Message) { got = "old" })
	net.Register("b", func(EndpointID, Message) { got = "new" })
	net.SendID(net.Endpoint("a"), net.Endpoint("b"), "x")
	eng.RunUntilIdle()
	if got != "new" {
		t.Errorf("handler = %q, want new", got)
	}
	net.Unregister("b")
	if net.Registered("b") {
		t.Error("still registered after Unregister")
	}
}

func TestEmptyEndpointPanics(t *testing.T) {
	_, net := newNet(t)
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	net.Register("", func(EndpointID, Message) {})
}

func TestJitterStaysOrderedPerStats(t *testing.T) {
	eng, net := newNet(t)
	net.Jitter = 100
	count := 0
	net.Register("b", func(EndpointID, Message) { count++ })
	for i := 0; i < 50; i++ {
		net.SendID(net.Endpoint("a"), net.Endpoint("b"), i)
	}
	eng.RunUntilIdle()
	if count != 50 {
		t.Errorf("delivered = %d, want 50", count)
	}
}
