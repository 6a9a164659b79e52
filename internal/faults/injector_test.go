package faults_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

// linkProbe sends one message from machine's agent endpoint to a listener
// and reports whether it arrived and how long it took.
type linkProbe struct {
	c    *core.Cluster
	sent sim.Time
	took sim.Time
	got  bool
}

func newLinkProbe(c *core.Cluster) *linkProbe {
	p := &linkProbe{c: c}
	c.Net.Register("probe", func(transport.EndpointID, transport.Message) {
		p.got, p.took = true, c.Now()-p.sent
	})
	return p
}

func (p *linkProbe) send(machine string) (arrived bool, took sim.Time) {
	p.got, p.sent = false, p.c.Now()
	p.c.Net.SendID(p.c.Net.Endpoint(protocol.AgentEndpoint(machine)), p.c.Net.Endpoint("probe"), "ping")
	p.c.Run(100 * sim.Millisecond)
	return p.got, p.took
}

// TestInjectorTable fires each Kind at a four-machine cluster with a standby
// master and checks what the cluster looks like once the window is open and
// once it has closed, the per-kind counts, the hook, and how many simulator
// events the fault cost (its arming event, its closing event, a flap's cycle
// edges) — pinned, because every lane's golden row counts events.
func TestInjectorTable(t *testing.T) {
	const m = "r000m001" // machine 1
	type state struct {
		up, broken, partitioned, arrives bool
		slow                             float64
		latency                          sim.Time
		primary                          int // index of the primary master, -1 for none
		lock                             [2]bool
	}
	healthy := state{up: true, arrives: true, slow: 1, latency: 200, primary: 0, lock: [2]bool{true, true}}
	with := func(edit func(*state)) state { s := healthy; edit(&s); return s }

	cases := []struct {
		name     string
		fault    faults.Fault
		machines int
		events   uint64
		open     state
		closed   state
	}{
		{"NodeDown", faults.Fault{Kind: faults.NodeDown, Targets: []int32{1}, For: 10 * sim.Second}, 1, 2,
			with(func(s *state) { s.up, s.arrives = false, false }), healthy},
		{"NodeDown for good", faults.Fault{Kind: faults.NodeDown, Targets: []int32{1}}, 1, 1,
			with(func(s *state) { s.up, s.arrives = false, false }),
			with(func(s *state) { s.up, s.arrives = false, false })},
		{"PartialWorkerFailure", faults.Fault{Kind: faults.PartialWorkerFailure, Targets: []int32{1}, For: 10 * sim.Second}, 1, 2,
			with(func(s *state) { s.broken = true }), healthy},
		{"SlowMachine", faults.Fault{Kind: faults.SlowMachine, Targets: []int32{1}, Factor: 4, For: 10 * sim.Second}, 1, 2,
			with(func(s *state) { s.slow = 4 }), healthy},
		{"FuxiMasterFailure", faults.Fault{Kind: faults.FuxiMasterFailure, For: 10 * sim.Second}, 0, 2,
			with(func(s *state) { s.primary = -1 }),
			// The standby took the lease; the crashed process is back as standby.
			with(func(s *state) { s.primary = 1 })},
		{"NetworkPartition", faults.Fault{Kind: faults.NetworkPartition, Targets: []int32{1, 2}, For: 10 * sim.Second}, 2, 2,
			with(func(s *state) { s.partitioned, s.arrives = true, false }), healthy},
		{"LinkFlap", faults.Fault{Kind: faults.LinkFlap, Targets: []int32{1}, Down: 2 * sim.Second, Up: sim.Second, Cycles: 3}, 1, 7,
			with(func(s *state) { s.arrives = false }), healthy},
		{"LinkFlap without an up phase", faults.Fault{Kind: faults.LinkFlap, Targets: []int32{1}, Down: 2 * sim.Second, Cycles: 1}, 1, 2,
			with(func(s *state) { s.arrives = false }), healthy},
		{"DelaySpike", faults.Fault{Kind: faults.DelaySpike, Targets: []int32{1}, Delay: 5 * sim.Millisecond, For: 10 * sim.Second}, 1, 2,
			with(func(s *state) { s.latency = 5200 }), healthy},
		{"LockPartition", faults.Fault{Kind: faults.LockPartition, For: 10 * sim.Second}, 0, 2,
			with(func(s *state) { s.lock[0] = false }),
			// The lease expired server-side, the standby promoted, and the
			// deposed primary fenced itself.
			with(func(s *state) { s.primary = 1 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 2, 2, 1)
			probe := newLinkProbe(c)
			in := c.Faults
			var edges []bool
			in.Hook = func(f faults.Fault, open bool) {
				if f.Kind != tc.fault.Kind {
					t.Errorf("hook saw a %v", f.Kind)
				}
				edges = append(edges, open)
			}
			observe := func() state {
				s := state{
					up: c.Agent(m).Up(), broken: in.Broken(1), slow: c.Slowdown(1),
					partitioned: c.Net.Partitioned(), primary: -1,
					lock: [2]bool{in.LockReachable(0), in.LockReachable(1)},
				}
				for i, ms := range c.Masters {
					if ms.IsPrimary() {
						s.primary = i
					}
				}
				s.arrives, s.latency = probe.send(m)
				if !s.arrives {
					s.latency = healthy.latency
				}
				return s
			}
			c.Run(sim.Second)
			if got := observe(); got != healthy {
				t.Fatalf("before the fault: %+v", got)
			}
			f := tc.fault
			f.At = c.Now() + sim.Second
			in.Apply(faults.Schedule{f})
			c.Run(2 * sim.Second) // 1 s into the window (a flap's first down phase)
			if got := observe(); got != tc.open {
				t.Errorf("window open:\n got  %+v\n want %+v", got, tc.open)
			}
			if in.Fired(f.Kind) != 1 || in.Machines(f.Kind) != tc.machines {
				t.Errorf("counts fired=%d machines=%d, want 1 and %d", in.Fired(f.Kind), in.Machines(f.Kind), tc.machines)
			}
			if (in.OpenPartitions() == 1) != tc.open.partitioned {
				t.Errorf("open partitions = %d", in.OpenPartitions())
			}
			c.Run(20 * sim.Second)
			if got := observe(); got != tc.closed {
				t.Errorf("window closed:\n got  %+v\n want %+v", got, tc.closed)
			}
			wantEdges := "[true false]"
			if tc.open == tc.closed {
				wantEdges = "[true]" // never lifted
			}
			if fmt.Sprint(edges) != wantEdges {
				t.Errorf("hook edges %v, want %v", edges, wantEdges)
			}
			if in.OpenPartitions() != 0 {
				t.Errorf("partition still open after its window")
			}

			// Event cost: the same fault through an injector whose timers live
			// on an engine of their own, so nothing else is counted.
			timers := sim.NewEngine(1)
			solo := faults.NewInjector(timers, c.Net, c.Top.Size())
			solo.Agents, solo.Masters = in.Agents, in.Masters
			solo.Apply(faults.Schedule{f})
			if n := timers.RunUntilIdle(); n != tc.events {
				t.Errorf("%v cost %d simulator events, want %d", f.Kind, n, tc.events)
			}
		})
	}
}

// A fault that cannot open yet — a master crash during an interregnum, a
// partition while another is open — retries every 500 ms until it can.
func TestInjectorRetriesUntilItCanOpen(t *testing.T) {
	c := newCluster(t, 1, 3, 2)
	c.Run(sim.Second)
	in := c.Faults
	in.Fire(faults.Fault{Kind: faults.NetworkPartition, Targets: []int32{0}, For: 2 * sim.Second})
	in.Fire(faults.Fault{Kind: faults.NetworkPartition, Targets: []int32{1}, For: 2 * sim.Second})
	if in.Fired(faults.NetworkPartition) != 1 || in.OpenPartitions() != 1 {
		t.Fatalf("second partition opened over the first: fired %d, open %d", in.Fired(faults.NetworkPartition), in.OpenPartitions())
	}
	c.Run(2200 * sim.Millisecond) // first healed at 2 s; the retries at 0.5 … 2.0 s
	if in.Fired(faults.NetworkPartition) != 2 || in.OpenPartitions() != 1 || in.Machines(faults.NetworkPartition) != 2 {
		t.Fatalf("after the first heal: fired %d, open %d", in.Fired(faults.NetworkPartition), in.OpenPartitions())
	}
	c.Run(3 * sim.Second)
	if c.Net.Partitioned() || in.OpenPartitions() != 0 {
		t.Error("second partition never healed")
	}

	// The second crash finds no primary (the standby has not promoted yet)
	// and waits for one.
	in.Fire(faults.Fault{Kind: faults.FuxiMasterFailure, For: 30 * sim.Second})
	in.Fire(faults.Fault{Kind: faults.FuxiMasterFailure, For: 30 * sim.Second})
	if in.Fired(faults.FuxiMasterFailure) != 1 || c.Primary() != nil {
		t.Fatalf("master crashes fired %d, primary %v", in.Fired(faults.FuxiMasterFailure), c.Primary())
	}
	c.Run(20 * sim.Second)
	if in.Fired(faults.FuxiMasterFailure) != 2 || c.Primary() != nil {
		t.Fatalf("the promoted standby was not crashed on retry: fired %d", in.Fired(faults.FuxiMasterFailure))
	}
	c.Run(40 * sim.Second)
	if c.Primary() == nil {
		t.Error("no primary after both processes restarted")
	}
}

// Two overlapping windows on one machine: the effect must hold until the
// second closes. The code this replaced cleared the machine outright at the
// first window's end (rp.broken[id] = false, rp.slow[id] = 1).
func TestOverlappingWindowsHoldUntilTheLastCloses(t *testing.T) {
	c := newCluster(t, 1, 2, 3)
	in := c.Faults
	one := []int32{1}
	in.Apply(faults.Schedule{
		{Kind: faults.SlowMachine, At: 1 * sim.Second, For: 10 * sim.Second, Targets: one, Factor: 4},
		{Kind: faults.SlowMachine, At: 5 * sim.Second, For: 10 * sim.Second, Targets: one, Factor: 4},
		{Kind: faults.PartialWorkerFailure, At: 1 * sim.Second, For: 10 * sim.Second, Targets: one},
		{Kind: faults.PartialWorkerFailure, At: 5 * sim.Second, For: 10 * sim.Second, Targets: one},
	})
	c.Run(12 * sim.Second) // first windows closed at 11 s, second still open until 15 s
	if got := in.Slowdown(1); got != 4 {
		t.Errorf("slowdown %v inside the second window, want 4", got)
	}
	if !in.Broken(1) {
		t.Error("machine repaired inside the second window")
	}
	c.Run(4 * sim.Second)
	if in.Slowdown(1) != 1 || in.Broken(1) {
		t.Errorf("effects outlive their last window: slowdown %v, broken %v", in.Slowdown(1), in.Broken(1))
	}
	if in.Fired(faults.SlowMachine) != 2 || in.Fired(faults.PartialWorkerFailure) != 2 {
		t.Errorf("fired slow=%d broken=%d, want 2/2", in.Fired(faults.SlowMachine), in.Fired(faults.PartialWorkerFailure))
	}
}
