package appmaster

import (
	"fmt"
	"testing"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// amScript turns fuzz bytes into hostile FuxiMaster traffic for one
// application master: a cursor that reads zeros once the bytes run out.
type amScript struct{ b []byte }

func (s *amScript) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// scriptUnits are the fuzzed application's units, one not at position ID-1.
var scriptUnits = []resource.ScheduleUnit{
	{ID: 1, Priority: 100, MaxCount: 50, Size: resource.New(1000, 2048)},
	{ID: 2, Priority: 100, MaxCount: 50, Size: resource.New(500, 1024)},
	{ID: 7, Priority: 50, MaxCount: 50, Size: resource.New(250, 512)},
}

// unit picks one of the application's units or (one time in eight) an ID it
// never defined.
func (s *amScript) unit() int {
	c := s.next()
	if c&7 == 7 {
		return []int{0, -1, 3, 1 << 40}[c>>3&3]
	}
	return scriptUnits[int(c>>3)%len(scriptUnits)].ID
}

// machine picks a dense machine ID, in the topology or (one time in sixteen)
// outside it.
func (s *amScript) machine(n int) int32 {
	c := s.next()
	if c&15 == 15 {
		return []int32{-1, int32(n), 1 << 20, -(1 << 30)}[c>>4&3]
	}
	return int32(int(c) % n)
}

// delta is a small signed count — zero now and then, which makes the update
// malformed — or a huge one.
func (s *amScript) delta() int {
	switch c := s.next(); {
	case c >= 0xfc:
		return 1 << 40
	case c >= 0xf8:
		return -(1 << 40)
	default:
		return int(int8(c)) % 5
	}
}

// stamp picks the (epoch, seq) a grant update travels with: mostly the stream
// as sent, sometimes a duplicate, a gap, a deposed master's leftover or a
// promoted successor's first message.
func (s *amScript) stamp(epoch *int, seq *uint64) (int, uint64) {
	switch c := s.next(); c % 8 {
	case 0:
		return *epoch, *seq / 2
	case 1:
		*seq += 2 + uint64(c>>3)%4
		return *epoch, *seq
	case 2:
		return *epoch - 1, *seq + 1
	case 3:
		*epoch++
		*seq = 1
		return *epoch, *seq
	}
	*seq++
	return *epoch, *seq
}

// FuzzAMHandle drives one application master through a byte-scripted
// sequence of hostile FuxiMaster traffic — multi-unit grant updates whose
// units come back in later runs, with zero and huge deltas, units the job never defined and machines
// outside the topology, stamped in order, duplicated, past a gap, from a
// deposed epoch or a promoted one; master hellos; unregister acks, before and
// after the job unregistered; worker statuses and worker-list requests from
// the agent of the machine they name, another agent or the job's own worker
// endpoint, and the job's own worker calls, about machines in and outside the
// topology; grant updates and acks sent, through the
// network, to the finished job whose endpoint slot this one reuses, which the
// network must drop — interleaved with the job's own demand and returns and
// idle stretches for its syncs and retries. The map-based
// ledgers of the differential test (ledger_oracle_test.go) hear the same
// traffic. After every step the AM must not have panicked, hold no negative
// count, and hold the reference's containers and demand and have fired its
// callbacks; the network must keep the endpoint slots it had at the start,
// and a worker message about a machine outside the topology, or not from
// that machine's agent, must fire no callback and send no reply.
func FuzzAMHandle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 3, 4, 0, 1, 2, 8, 5, 2, 0, 0, 2, 0x10, 3, 1, 0x31, 2})
	f.Add([]byte{0, 4, 2, 0, 2, 0x10, 1, 3, 0xff, 0, 1, 1, 5, 9, 2, 1, 0, 3, 0})
	f.Add([]byte{4, 1, 9, 0, 4, 2, 0, 8, 1, 4, 3, 0, 7, 0xfc, 5, 0xff, 2, 1, 3, 1})
	f.Add([]byte{4, 0, 3, 0, 5, 1, 2, 0, 0, 3, 2, 0x0f, 0xfc, 1, 4, 2, 0, 0xf8, 3, 0})
	// Late traffic to the slot's previous owner: a grant update and an ack
	// for app0 land while app1 demands, app1 is granted one container and
	// unregisters, and the two land again.
	f.Add([]byte{4, 0, 8, 5, 0xfe, 0, 0, 0, 0, 5, 0xfe, 1, 0, 4, 0, 0, 0, 0, 1, 5, 0xff, 5, 0xfe, 0, 0, 0, 0, 5, 0xfe, 1, 5, 10})
	// Worker traffic: a worker started on machine 2, statuses and list
	// requests about it and about machines -1 and 12 (outside), a stop by ID
	// and by machine, before and after the job unregistered.
	f.Add([]byte{3, 0xf2, 2, 1, 3, 0xf4, 2, 1, 3, 0xf1, 2, 0, 3, 0xf0, 0x0f, 1, 3, 0xf1, 0x1f, 0, 3, 0xf3, 2, 1, 3, 0xf3, 0x2f, 2, 5, 0xff, 3, 0xf1, 2, 0, 3, 0xf0, 2, 1})
	// A worker started on machine 2; statuses and list requests about it
	// from another machine's agent and from the application's worker
	// endpoint, then from machine 2's own agent.
	f.Add([]byte{3, 0xf2, 2, 0, 3, 0xf4, 2, 0x08, 3, 0xf4, 2, 0x0c, 3, 0xf1, 2, 0x08, 3, 0xf1, 2, 0x0c, 3, 0xf1, 2, 0, 3, 0xf4, 2, 0})
	f.Fuzz(runAMScript)
}

// job1Worker is the endpoint name of the fuzzed application's worker 1.
const job1Worker = "wkr:app1:1"

// runAMScript is FuzzAMHandle's body: one fresh application master, one
// script.
func runAMScript(t *testing.T, data []byte) {
	s := &amScript{b: data}
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	top, err := topology.Build(topology.Spec{Racks: 3, MachinesPerRack: 4, MachineCapacity: resource.New(12000, 96*1024)})
	if err != nil {
		t.Fatal(err)
	}
	n := top.Size()
	master := net.Register(protocol.MasterEndpoint, func(transport.EndpointID, transport.Message) {})
	agents := make([]transport.EndpointID, n)
	for m := range agents {
		agents[m] = net.Register(protocol.AgentEndpoint(top.MachineName(int32(m))), func(transport.EndpointID, transport.Message) {})
	}
	// app0 finished before app1 started: its retired endpoint slot is app1's.
	net.Register("app0", func(transport.EndpointID, transport.Message) {})
	prev := net.Lookup("app0")
	net.Retire(net.Lookup("app0"))
	ref := &mapLedgers{app: "app1", units: scriptUnits, top: top}
	var events []string
	statuses := 0
	am := New(Config{App: "app1", Units: scriptUnits, FullSyncInterval: 2 * sim.Second}, eng, net, top, cbFuncs{
		Grant:  func(u int, m int32, c int) { events = append(events, fmt.Sprintf("grant u%d m%d x%d", u, m, c)) },
		Revoke: func(u int, m int32, c int) { events = append(events, fmt.Sprintf("revoke u%d m%d x%d", u, m, c)) },
		Worker: func(protocol.WorkerStatus) { statuses++ },
	})
	// The application's worker endpoint, which is no agent.
	worker := net.Register(job1Worker, func(transport.EndpointID, transport.Message) {})
	eng.Run(sim.Millisecond)
	slots, _ := net.Footprint()
	if net.Lookup("app1").Slot() != prev.Slot() {
		t.Fatalf("app1 on slot %d, app0 had %d", net.Lookup("app1").Slot(), prev.Slot())
	}
	// Each message reaches both sides at once: the reference as the old
	// handler took it, the AM as the network hands it over.
	deliver := func(msg transport.Message) {
		switch m := msg.(type) {
		case *protocol.GrantUpdate:
			if !am.Stopped() {
				ref.grantUpdate(eng.Now(), master, protocol.Keep(m).(protocol.GrantUpdate))
			}
		case protocol.MasterHello:
			if am.Stopped() {
				ref.gate.StaleCh(m.Epoch, &ref.dedup, int32(master), protocol.ChanGrant)
			} else {
				ref.hello(master, m)
			}
		}
		am.handle(master, msg)
	}

	epoch, seq := 1, uint64(0)
	step, what := 0, "start"
	for ; len(s.b) > 0 && step < 256; step++ {
		switch op := s.next() % 6; op {
		case 0, 1:
			what = "grant"
			e, q := s.stamp(&epoch, &seq)
			gu := &protocol.GrantUpdate{App: "app1", Epoch: e, Seq: q}
			for runs := 1 + s.next()%3; runs > 0; runs-- {
				u := s.unit()
				for k := 1 + s.next()%3; k > 0; k-- {
					gu.Changes = append(gu.Changes, protocol.UnitDelta{UnitID: u, Machine: s.machine(n), Delta: s.delta()})
				}
			}
			deliver(gu)
		case 2:
			what = "hello"
			e := epoch
			switch s.next() % 3 {
			case 1:
				epoch++
				seq = 0
				e = epoch
			case 2:
				e = epoch - 1
			}
			deliver(protocol.MasterHello{Epoch: e})
		case 3:
			c := s.next()
			if c < 0xf0 {
				what = "unregister ack"
				deliver(&protocol.UnregisterAck{App: "app1", Epoch: epoch})
				break
			}
			// Worker-plane traffic about a machine in or outside the topology
			// (a sub-choice of the ack's spare byte, so that the op bytes of
			// older inputs keep their meaning), sent by the machine's agent
			// (agent 0 for a machine outside) or, a sub-choice of the worker
			// byte, by another machine's agent or the application's worker
			// endpoint.
			mc, wb := s.machine(n), s.next()
			w := uint32(wb%4) + 1
			held := mc >= 0 && int(mc) < n
			from, forged := agents[0], wb>>3&1 == 1
			switch {
			case forged && wb>>2&1 == 1:
				from = worker
			case forged && held:
				from = agents[(int(mc)+1)%n]
			case held:
				from = agents[mc]
			}
			taken := held && !forged && !am.Stopped()
			sent, before := net.Stats().Sent, statuses
			switch c & 3 {
			case 0:
				what = "worker status"
				am.handle(from, protocol.WorkerStatus{Machine: mc, Worker: w, State: protocol.WorkerState(c >> 2 & 3)})
				if fired := statuses > before; fired != taken {
					t.Fatalf("step %d: status about machine %d from %d fired OnWorker %v", step, mc, from, fired)
				}
			case 1:
				what = "worker list request"
				am.handle(from, protocol.WorkerListRequest{Machine: mc})
				if replied := net.Stats().Sent > sent; replied != taken {
					t.Fatalf("step %d: request about machine %d from %d replied %v", step, mc, from, replied)
				}
			case 2:
				what = "start worker"
				am.StartWorker(scriptUnits[0].ID, mc, w)
			default:
				what = "stop worker"
				am.StopWorker(w) // the worker's own machine, if it is tracked
				sent = net.Stats().Sent
				am.StopWorkerOn(mc, w)
			}
			if !held && net.Stats().Sent != sent {
				t.Fatalf("step %d (%s): machine %d outside the topology sent a message", step, what, mc)
			}
		case 4:
			what = "job"
			u, c := s.unit(), s.next()
			if am.Stopped() {
				break
			}
			if c&1 == 0 {
				h := resource.LocalityHint{Type: resource.LocalityCluster, Count: int(c>>1)%7 - 2}
				if c&2 == 2 {
					h = resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(int(c>>2) % n), Count: 1}
				}
				am.Request(u, h)
				ref.request(u, h)
			} else {
				mc := s.machine(n)
				am.ReturnContainers(u, mc, int(c>>1)%3)
				ref.returnContainers(u, mc, int(c>>1)%3)
			}
		default:
			what = "time"
			c := s.next()
			switch {
			case c == 0xff && !am.Stopped():
				what = "unregister"
				am.Unregister()
			case c == 0xfe:
				// A late message for app0, through the network: it names a
				// retired generation and never reaches app1, so the reference
				// hears nothing. (A sub-choice of "time", so that the op bytes of
				// older inputs keep their meaning.)
				what = "late"
				if s.next()&1 == 0 {
					gu := transport.Acquire[protocol.GrantUpdate](net)
					gu.App, gu.Epoch, gu.Seq = "app0", epoch, seq+1
					gu.Changes = append(gu.Changes, protocol.UnitDelta{UnitID: s.unit(), Machine: s.machine(n), Delta: 1 + int(s.next()%3)})
					net.SendID(master, prev, gu)
				} else {
					net.SendID(master, prev, &protocol.UnregisterAck{App: "app0", Epoch: epoch})
				}
			}
			eng.Run(eng.Now() + sim.Time(c)*10*sim.Millisecond)
		}
		eng.Run(eng.Now() + sim.Millisecond)
		if am.unregDone {
			// The teardown (at the ack, or when the unregister retries run
			// out) frees the books: a finished job holds and wants nothing.
			ref.held, ref.outstanding = nil, nil
		}
		label := fmt.Sprintf("step %d (%s)", step, what)
		if now, _ := net.Footprint(); now != slots {
			t.Fatalf("%s: endpoint slots %d -> %d", label, slots, now)
		}
		if fmt.Sprint(events) != fmt.Sprint(ref.events) {
			t.Fatalf("%s: callbacks %v, reference %v", label, events, ref.events)
		}
		for _, u := range scriptUnits {
			for _, c := range am.HeldCells(u.ID) {
				if c.Val <= 0 {
					t.Fatalf("%s: unit %d holds %d on machine %d", label, u.ID, c.Val, c.Key)
				}
			}
			for mc := int32(0); int(mc) < n; mc++ {
				if got, want := am.Held(u.ID, mc), ref.held[makeHeldKey(u.ID, mc)]; got != want {
					t.Fatalf("%s: unit %d holds %d on machine %d, reference %d", label, u.ID, got, mc, want)
				}
			}
			out := 0
			for _, c := range ref.outstanding[u.ID] {
				out += c
			}
			if got := am.Outstanding(u.ID); got != out || got < 0 {
				t.Fatalf("%s: unit %d waits for %d, reference %d", label, u.ID, got, out)
			}
		}
	}
}
