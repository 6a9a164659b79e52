package agent

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

// agentScript turns fuzz bytes into hostile master and application traffic
// for one agent: a cursor that reads zeros once the bytes run out. apps holds
// each script application's current endpoint name and retired the endpoint
// IDs of the ones that finished, whose slots later names reuse.
type agentScript struct {
	b       []byte
	apps    []string
	retired []int32
}

func (s *agentScript) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// scriptApps are the applications the script speaks for, interned on the
// network in this order (neither their name order nor its reverse).
var scriptApps = []string{"job-m", "job-c", "job-x", "job-a"}

// app picks an application's endpoint ID: now and then an ID the network
// never handed out, or one of a finished application's, whose slot a later
// application may hold by now.
func (s *agentScript) app(net *transport.Net) int32 {
	c := s.next()
	switch {
	case c&7 == 7:
		return []int32{-1, 1 << 20, 1 << 30, -(1 << 30)}[c>>3&3]
	case c&7 == 6 && len(s.retired) > 0:
		return s.retired[int(c>>3)%len(s.retired)]
	}
	return int32(net.Endpoint(s.apps[int(c>>3)%len(s.apps)]))
}

// unit picks a unit ID: mostly 1–3, sometimes zero, negative, or wider than
// the wire's 32 bits (aliasing a small one in its low half).
func (s *agentScript) unit() int {
	c := s.next()
	if c&15 == 15 {
		return []int{0, -1, 1<<32 | 1, -(1 << 40)}[c>>4&3]
	}
	return 1 + int(c)%3
}

// count is a small count — signed for a delta, mostly non-negative for a
// sync — or now and then a huge one.
func (s *agentScript) count(signed bool) int {
	switch c := s.next(); {
	case c >= 0xf8:
		return 1 << 40
	case signed:
		return int(int8(c)) % 5
	case c >= 0xe0:
		return -1 - int(c&3)
	default:
		return int(c) % 4
	}
}

// stamp picks the (epoch, seq) a capacity message travels with: mostly the
// stream as sent, sometimes a duplicate, a gap, a deposed master's leftover
// or a promoted successor's first message.
func (s *agentScript) stamp(epoch *int, seq *uint64) (int, uint64) {
	switch c := s.next(); c % 8 {
	case 0:
		return *epoch, *seq / 2 // duplicate or late
	case 1:
		*seq += 2 + uint64(c>>3)%4 // lost messages before this one
		return *epoch, *seq
	case 2:
		return *epoch - 1, *seq + 1 // stale epoch (epoch 0 = unstamped: stale too once one is seen)
	case 3:
		*epoch++
		*seq = 1 // the successor's fresh sequencer
		return *epoch, *seq
	}
	*seq++
	return *epoch, *seq
}

func (s *agentScript) entries(net *transport.Net, signed bool) []protocol.CapacityEntry {
	es := make([]protocol.CapacityEntry, s.next()%5)
	for i := range es {
		es[i] = protocol.CapacityEntry{App: s.app(net), UnitID: s.unit(), Size: size, Count: s.count(signed)}
	}
	return es
}

// TestMixedSignDeltaEqualsTwoMessages: a CapacityDelta that releases one
// app's container and grants another's — or releases and regrants the same
// (app, unit) — leaves the agent exactly where two back-to-back messages,
// the release and then the grant, leave it, and clamps nothing.
func TestMixedSignDeltaEqualsTwoMessages(t *testing.T) {
	for _, other := range []string{"app1", "app2"} {
		t.Run(other, func(t *testing.T) {
			var ledgers [2]map[string]int
			for i := range ledgers {
				h := newHarness(t)
				h.net.Register("app2", func(transport.EndpointID, transport.Message) {})
				h.sendDelta(1, protocol.CapacityEntry{App: h.ep("app1"), UnitID: 1, Size: size, Count: 2})
				release := protocol.CapacityEntry{App: h.ep("app1"), UnitID: 1, Size: size, Count: -1}
				grant := protocol.CapacityEntry{App: h.ep(other), UnitID: 1, Size: size, Count: 1}
				if i == 0 {
					h.sendDelta(2, release, grant)
				} else {
					h.sendDelta(2, release)
					h.sendDelta(3, grant)
				}
				if h.agent.ClampedNegative != 0 {
					t.Fatalf("ClampedNegative = %d, want 0", h.agent.ClampedNegative)
				}
				ledgers[i] = map[string]int{}
				h.agent.ForEachAllocation(func(app string, unit, n int) { ledgers[i][fmt.Sprintf("%s/%d", app, unit)] = n })
			}
			if fmt.Sprint(ledgers[0]) != fmt.Sprint(ledgers[1]) {
				t.Fatalf("one message left %v, two messages %v", ledgers[0], ledgers[1])
			}
		})
	}
}

// TestCapacitySyncForAnotherMachineIsDropped: a CapacitySync carries one
// machine's whole table, and the agent used to install whichever table
// arrived — a sync misrouted from another machine's stream replaced the
// ledger with a stranger's. It is dropped whole now, before it consumes a
// sequence number.
func TestCapacitySyncForAnotherMachineIsDropped(t *testing.T) {
	h := newHarness(t)
	h.sendDelta(1, protocol.CapacityEntry{App: h.ep("app1"), UnitID: 1, Size: size, Count: 2})
	h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)), protocol.CapacitySync{
		Machine: h.agent.ID() + 1,
		Entries: []protocol.CapacityEntry{{App: h.ep("app1"), UnitID: 2, Size: size, Count: 5}},
		Seq:     2,
	})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if a, b := h.agent.Capacity("app1", 1), h.agent.Capacity("app1", 2); a != 2 || b != 0 {
		t.Fatalf("after another machine's sync: capacity (unit 1, unit 2) = (%d, %d), want (2, 0)", a, b)
	}
	h.sendDelta(2, protocol.CapacityEntry{App: h.ep("app1"), UnitID: 1, Size: size, Count: 1})
	if got := h.agent.Capacity("app1", 1); got != 3 {
		t.Errorf("the delta after the dropped sync: capacity = %d, want 3", got)
	}
	if n := len(h.repairQueries()); n != 0 {
		t.Errorf("%d repair queries: the dropped sync consumed a sequence number", n)
	}
}

// TestReleaseForRetiredAppIsApplied: an application master retires its
// endpoint at the unregister ack, and the master's release of its capacity can
// reach an agent after that, or after a later application took the slot over.
// The release names a generation the network has retired, and must still be
// applied: wellFormed's check is "the network handed this ID out", not "this ID
// is live". With Known meaning live, the delta is dropped whole and the
// finished job's capacity is stranded on the machine for good. The new
// owner's row, on the same slot, is not touched, and the finished job's
// worker still running there is killed with its capacity: enforcement finds
// it by endpoint ID, as the name is gone.
func TestReleaseForRetiredAppIsApplied(t *testing.T) {
	h := newHarness(t)
	old := h.ep("app1")
	h.sendDelta(1, protocol.CapacityEntry{App: old, UnitID: 1, Size: size, Count: 2})
	h.sendPlan("app1", 1, 1, size, 1)
	h.eng.Run(h.eng.Now() + sim.Second)
	if h.proc("app1", 1) == nil {
		t.Fatal("app1's worker did not start")
	}
	h.net.Retire(h.net.Lookup("app1"))
	h.net.Register("app2", func(transport.EndpointID, transport.Message) {})
	fresh := h.ep("app2")
	if transport.EndpointID(fresh).Slot() != transport.EndpointID(old).Slot() {
		t.Fatalf("app2 got slot %d, app1 had %d: the test needs the slot reused",
			transport.EndpointID(fresh).Slot(), transport.EndpointID(old).Slot())
	}
	h.sendDelta(2, protocol.CapacityEntry{App: fresh, UnitID: 1, Size: size, Count: 1})
	h.sendDelta(3, protocol.CapacityEntry{App: old, UnitID: 1, Size: size, Count: -2})
	rows := map[capKey]int{}
	for _, r := range h.agent.capacity.rows {
		if r.count > 0 {
			rows[r.key] = r.count
		}
	}
	want := map[capKey]int{makeCapKey(transport.EndpointID(fresh), 1): 1}
	if fmt.Sprint(rows) != fmt.Sprint(want) || h.agent.ClampedNegative != 0 {
		t.Fatalf("rows %v (clamped %d), want only app2's %v: the retired app's release was not applied",
			rows, h.agent.ClampedNegative, want)
	}
	if got := h.agent.Capacity("app2", 1); got != 1 {
		t.Fatalf("app2 holds %d, want 1", got)
	}
	if h.agent.Proc(transport.EndpointID(old), 1) != nil || h.agent.KilledForCapacity != 1 {
		t.Fatalf("app1's worker survived the release of its capacity (killed %d)", h.agent.KilledForCapacity)
	}
}

// TestMalformedCapacityEntriesAreDropped: the ledger keys a row by the
// entry's endpoint ID and the low 32 bits of its unit ID, and names the
// application when it enforces or reports. A delta naming an endpoint the
// network never handed out crashed the agent on its next enforcement (and
// the invariant checker on its next read); a unit ID wider than 32 bits
// silently landed on a small unit's row. Either message is dropped whole.
func TestMalformedCapacityEntriesAreDropped(t *testing.T) {
	for _, bad := range []struct {
		name  string
		entry func(h *harness) protocol.CapacityEntry
	}{
		{"unknown application", func(*harness) protocol.CapacityEntry {
			return protocol.CapacityEntry{App: 1 << 20, UnitID: 1, Size: size, Count: -1}
		}},
		{"negative endpoint", func(*harness) protocol.CapacityEntry {
			return protocol.CapacityEntry{App: -1, UnitID: 1, Size: size, Count: 1}
		}},
		{"unit wider than the wire", func(h *harness) protocol.CapacityEntry {
			return protocol.CapacityEntry{App: h.ep("app1"), UnitID: 1<<32 | 1, Size: size, Count: 4}
		}},
	} {
		t.Run(bad.name, func(t *testing.T) {
			h := newHarness(t)
			h.sendDelta(1, protocol.CapacityEntry{App: h.ep("app1"), UnitID: 1, Size: size, Count: 2})
			h.sendPlan("app1", 1, 1, size, 1)
			h.eng.Run(h.eng.Now() + sim.Second)
			// A well-formed entry rides beside the bad one: the message is
			// dropped whole, not entry by entry.
			h.sendDelta(2, protocol.CapacityEntry{App: h.ep("app1"), UnitID: 2, Size: size, Count: 1}, bad.entry(h))
			if got := h.agent.Capacity("app1", 1); got != 2 {
				t.Errorf("capacity (app1, 1) = %d, want 2", got)
			}
			if got := h.agent.Capacity("app1", 2); got != 0 {
				t.Errorf("capacity (app1, 2) = %d, want 0: the malformed delta was applied in part", got)
			}
			rows := 0
			h.agent.ForEachAllocation(func(string, int, int) { rows++ })
			if rows != 1 || h.proc("app1", 1) == nil {
				t.Errorf("%d rows and worker present %v, want 1 row and the worker running", rows, h.proc("app1", 1) != nil)
			}
		})
	}
}

// FuzzAgentHandle drives one agent through a byte-scripted sequence of
// hostile messages — capacity deltas and syncs with unknown applications,
// units wider than the wire, over-releases and huge counts; syncs naming
// another machine; master hellos; work plans, some beyond the granted
// capacity, stops and worker-list replies; plans, stops and empty list replies
// an application sends for another application's worker; applications that
// finish (their endpoints retire and later ones reuse the slots) and capacity
// entries that still name them; daemon restarts; and every capacity message
// stamped in order, duplicated, past a gap, from a deposed epoch or from a
// promoted one — with idle stretches for beats, anchors, worker starts, the
// overload killer and the reap. The map-based reference ledger and the
// name-keyed process table see the same messages, keyed by the name each
// endpoint had. After every message the agent must not have panicked, hold
// no negative row, have clamped exactly the releases the reference clamped,
// sent the repair queries the reference counts, hold the reference's ledger
// and processes, and have sent the reference's statuses and list requests in
// its order; every beat it sends must be the reference's. A message one
// application sends for another's worker must change none of the other's
// processes, capacity rows or statuses.
func FuzzAgentHandle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 2, 8, 1, 0x10, 9, 3, 1, 24, 2, 0, 2, 4, 3, 1, 8, 3, 1})
	f.Add([]byte{0, 2, 0, 0x3f, 1, 2, 1, 1, 2, 1, 8, 1, 3, 4, 3, 0, 1, 0, 4, 9})
	f.Add([]byte{3, 9, 0, 1, 3, 0, 0, 1, 8, 2, 2, 4, 7, 0, 1, 4, 30, 0, 1, 3, 0xff, 2})
	f.Add([]byte{1, 1, 4, 2, 8, 1, 2, 1, 0x10, 2, 0, 4, 20, 0, 3, 2, 8, 0xf8, 1, 4, 0, 0xe1})
	// Mixed-sign deltas, as a master that folds a step's releases and grants
	// into one message per agent sends them: a release and a grant of the
	// same (app, unit) in either order, across two apps, and both from an
	// empty row — none of them clamps.
	f.Add([]byte{0, 4, 1, 0, 0, 2, 0, 4, 2, 0, 0, 0xff, 0, 0, 1, 0, 4, 2, 0, 0, 1, 0, 0, 0xff, 0, 4, 2, 0, 1, 1, 0, 1, 0xff, 4, 50})
	f.Add([]byte{0, 4, 1, 0, 0, 1, 0, 4, 2, 0, 0, 0xff, 8, 0, 1, 0, 4, 2, 0, 0, 1, 8, 0, 0xff, 4, 50})
	// job-m is granted two containers and finishes; job-m.1 takes its slot
	// and is granted one; the release naming job-m's retired generation lands
	// after that, then a sync carries both generations' rows.
	f.Add([]byte{0, 4, 1, 0, 0, 2, 4, 0xfe, 0, 0, 4, 1, 0, 0, 1, 0, 4, 1, 6, 0, 0xf4, 1, 0, 4, 2, 0, 0, 1, 6, 0, 2, 4, 50})
	// Two applications, each running a worker, finish in turn; one delta
	// releases both old generations' capacity (killing the workers), and the
	// new generation of the first is granted a container and plans a worker.
	f.Add([]byte{0, 4, 2, 0, 0, 2, 8, 0, 1, 3, 0, 0, 0, 0, 4, 0xfe, 0, 3, 1, 0, 0, 0, 4, 0xfe, 1,
		0, 4, 2, 6, 0, 0xf4, 14, 0, 0xf5, 0, 4, 1, 0, 0, 1, 3, 0, 0, 0, 0, 4, 50})
	// job-m and job-c each run a worker; job-c sends a plan, a stop and an
	// empty list reply for job-m's worker, which the agent takes as job-c's
	// own (starting, stopping and killing job-c's workers); job-m stops its
	// worker and then lists one it has no process for.
	f.Add([]byte{0, 4, 2, 0, 0, 2, 8, 0, 2, 3, 0, 0, 0, 0, 3, 1, 0, 0, 0, 4, 60,
		3, 1, 0x03, 0, 0, 3, 1, 0x13, 0, 0, 3, 1, 0x23, 0, 0, 4, 60,
		4, 0xfd, 0, 0, 4, 0xfc, 0, 0x80, 4, 60})
	// Two applications run two workers each through a daemon restart: the
	// restart asks both for their lists, job-m's reply names one of its two,
	// and a sync that leaves job-c no capacity kills its orphans.
	f.Add([]byte{0, 4, 2, 0, 0, 2, 8, 0, 2, 3, 0, 0, 0, 0, 3, 0, 0, 0, 0, 3, 1, 0, 0, 0, 3, 1, 0, 0, 0, 4, 60,
		4, 0xfb, 4, 0xfc, 0, 0x01, 1, 0, 4, 1, 0, 0, 2, 4, 60})
	f.Fuzz(runAgentScript)
}

// procsOf returns the agent's processes of the application at app, in worker
// order.
func procsOf(a *Agent, app transport.EndpointID) []*Proc {
	var out []*Proc
	for _, p := range a.Procs() {
		if p.key.app() == app {
			out = append(out, p)
		}
	}
	return out
}

// appState prints everything of the application at app that another
// application's message must not touch: its processes, its capacity rows and
// the number of statuses the agent sent it.
func appState(a *Agent, ref *mapLedger, app transport.EndpointID) string {
	var st string
	for _, p := range procsOf(a, app) {
		st += fmt.Sprintf("%d/%d %v ", p.key.worker(), p.UnitID, p.State)
	}
	for _, r := range a.capacity.rows {
		if r.key.app() == app {
			st += fmt.Sprintf(" %d=%d", r.key.unitID(), r.count)
		}
	}
	prefix := fmt.Sprintf("status to %q:", a.net.Name(app))
	n := 0
	for _, line := range ref.procs.got {
		if strings.HasPrefix(line, prefix) {
			n++
		}
	}
	return fmt.Sprintf("%s; %d statuses", st, n)
}

// runAgentScript is FuzzAgentHandle's body: one fresh agent, one script.
func runAgentScript(t *testing.T, data []byte) {
	s := &agentScript{b: data, apps: append([]string(nil), scriptApps...)}
	h := newHarness(t)
	a := h.agent
	name := appName(h.net)
	register := func(app string) {
		name(int32(h.net.Register(app, func(transport.EndpointID, transport.Message) {})))
	}
	for _, app := range s.apps {
		register(app)
	}
	ref := newMapLedger(AnchorEvery, a.id)
	procs := newNameProcs(a, ref)
	step, what := 0, "start"
	label := func() string { return fmt.Sprintf("step %d (%s)", step, what) }
	checkBeats(t, h, ref, label, name)
	master := h.net.Endpoint(protocol.MasterEndpoint)
	// Each message is handed to both sides at once; deliver then gives the
	// agent's replies a millisecond to land.
	hand := func(from transport.EndpointID, msg transport.Message) {
		ref.handle(h.eng.Now(), from, msg, name)
		a.handle(from, msg)
	}
	deliver := func(from transport.EndpointID, msg transport.Message) {
		hand(from, msg)
		h.eng.Run(h.eng.Now() + sim.Millisecond)
	}

	epoch, seq, workers := 1, uint64(0), 0
	var planSeq protocol.Sequencer
	for ; len(s.b) > 0 && step < 256; step++ {
		switch op := s.next() % 5; op {
		case 0:
			what = "delta"
			e, q := s.stamp(&epoch, &seq)
			deliver(master, &protocol.CapacityDelta{Entries: s.entries(h.net, true), Epoch: e, Seq: q})
		case 1:
			what = "sync"
			c := s.next()
			e, q := s.stamp(&epoch, &seq)
			if c&3 == 3 {
				q = 0 // unsequenced: at or behind every mark, so dropped
			}
			mc := a.id
			if c&12 == 12 {
				mc = a.id + 1 + int32(c>>4) // a sync misrouted from another machine's stream
			}
			deliver(master, protocol.CapacitySync{Machine: mc, Entries: s.entries(h.net, false), Epoch: e, Seq: q})
		case 2:
			what = "hello"
			e := epoch
			switch c := s.next() % 3; c {
			case 1:
				epoch++
				seq = 0
				e = epoch
			case 2:
				e = epoch - 1
			}
			deliver(master, protocol.MasterHello{Epoch: e})
		case 3:
			from := s.apps[int(s.next())%len(s.apps)]
			victim := from
			c := s.next()
			if c&3 == 3 {
				victim = s.apps[int(c>>2)%len(s.apps)]
			}
			plan := protocol.WorkPlan{Worker: uint32(workers) + 1, Size: size}
			if c := s.next(); c&1 == 0 {
				workers++
			}
			plan.UnitID = s.unit()
			if victim == from {
				what = "plan"
				plan.Seq = planSeq.Next()
				deliver(h.net.Endpoint(from), plan)
				break
			}
			// The message names one of victim's workers, one it runs if it
			// runs any; the agent takes it as from's own.
			vep := h.net.Lookup(victim)
			if mine := procsOf(a, vep); len(mine) > 0 {
				plan.Worker = mine[0].key.worker()
			}
			var msg transport.Message
			switch kind := (c >> 4) % 3; kind {
			case 0:
				what = "plan for another application's worker"
				plan.Seq = planSeq.Next()
				msg = plan
			case 1:
				what = "stop for another application's worker"
				msg = protocol.StopWorker{Worker: plan.Worker, Seq: planSeq.Next()}
			default:
				what = "empty list reply from another application"
				msg = protocol.WorkerListReply{Seq: planSeq.Next()}
			}
			before := appState(a, ref, vep)
			hand(h.net.Endpoint(from), msg)
			if after := appState(a, ref, vep); after != before {
				t.Fatalf("%s: %s's state went from %s to %s", label(), victim, before, after)
			}
			h.eng.Run(h.eng.Now() + sim.Millisecond)
		default:
			what = "time"
			switch c := s.next(); c {
			case 0xfe:
				// An application finishes: a sub-choice of "time", so that the
				// op bytes of older inputs keep their meaning; so are the
				// three below.
				what = "finish"
				k := int(s.next()) % len(s.apps)
				s.retired = append(s.retired, int32(h.net.Lookup(s.apps[k])))
				h.net.Retire(h.net.Lookup(s.apps[k]))
				s.apps[k] = fmt.Sprintf("%s.%d", scriptApps[k], len(s.retired))
				register(s.apps[k])
			case 0xfd:
				what = "stop"
				from := h.net.Endpoint(s.apps[int(s.next())%len(s.apps)])
				worker := uint32(s.next())
				if mine := procsOf(a, from); len(mine) > 0 {
					worker = mine[int(worker)%len(mine)].key.worker()
				}
				deliver(from, protocol.StopWorker{Worker: worker, Seq: planSeq.Next()})
			case 0xfc:
				// A list reply naming the processes the mask picks, now and
				// then one twice, and now and then a worker that has none.
				what = "list reply"
				from := h.net.Endpoint(s.apps[int(s.next())%len(s.apps)])
				mask := s.next()
				var ws []protocol.WorkPlan
				for i, p := range procsOf(a, from) {
					if mask>>(i%6)&1 == 1 {
						ws = append(ws, protocol.WorkPlan{UnitID: p.UnitID, Worker: p.key.worker(), Size: p.Size})
					}
				}
				if mask&0x40 != 0 && len(ws) > 0 {
					ws = append(ws, ws[0])
				}
				if mask&0x80 != 0 {
					ws = append(ws, protocol.WorkPlan{UnitID: 1, Worker: uint32(workers) + 1, Size: size})
				}
				deliver(from, protocol.WorkerListReply{Workers: ws, Seq: planSeq.Next()})
			case 0xfb:
				what = "daemon restart"
				a.CrashDaemon()
				ref.crashDaemon()
				procs.crashDaemon()
				a.RestartDaemon()
				ref.restartDaemon()
				procs.restartDaemon()
				h.eng.Run(h.eng.Now() + sim.Millisecond)
			default:
				h.eng.Run(h.eng.Now() + sim.Time(c)*10*sim.Millisecond)
			}
		}
		checkLedger(t, label(), a, ref, name)
		checkProcs(t, label(), a, procs, name)
		if got := len(h.repairQueries()); got != ref.repairQueries {
			t.Fatalf("%s: %d repair queries sent, reference %d", label(), got, ref.repairQueries)
		}
	}
	what = "settle"
	h.eng.Run(h.eng.Now() + 3*sim.Second)
	checkLedger(t, label(), a, ref, name)
	checkProcs(t, label(), a, procs, name)
}

// checkProcs holds the agent's process table, kill counts and worker-plane
// messages to the name-keyed reference's.
func checkProcs(t *testing.T, label string, a *Agent, ref *nameProcs, name func(int32) string) {
	t.Helper()
	if got, want := procTable(a, name), ref.table(); !slices.Equal(got, want) {
		t.Fatalf("%s: processes %v, reference %v", label, got, want)
	}
	if a.KilledForCapacity != ref.killedForCapacity || a.KilledForOverload != ref.killedForOverload {
		t.Fatalf("%s: killed %d for capacity and %d for overload, reference %d and %d", label,
			a.KilledForCapacity, a.KilledForOverload, ref.killedForCapacity, ref.killedForOverload)
	}
	if !slices.Equal(ref.got, ref.sent) {
		t.Fatalf("%s: the agent sent\n  %s\nthe reference\n  %s", label,
			strings.Join(ref.got, "\n  "), strings.Join(ref.sent, "\n  "))
	}
}

// checkLedger holds the agent's ledger to the reference: no negative row, the
// reference's clamp count, and the same positive count for every (app, unit),
// the app named as name names it (a retired endpoint by the name it had).
func checkLedger(t *testing.T, label string, a *Agent, ref *mapLedger, name func(int32) string) {
	t.Helper()
	for i, r := range a.capacity.rows {
		if r.count < 0 {
			t.Fatalf("%s: row %d (%v) holds %d", label, i, r.key, r.count)
		}
	}
	if a.ClampedNegative != ref.clamped {
		t.Fatalf("%s: ClampedNegative = %d, reference clamped %d", label, a.ClampedNegative, ref.clamped)
	}
	got := map[string]int{}
	for _, r := range a.capacity.rows {
		if r.count > 0 {
			got[fmt.Sprintf("%s/%d", name(int32(r.key.app())), r.key.unitID())] = r.count
		}
	}
	want := map[string]int{}
	for k, e := range ref.capacity {
		if e.count > 0 {
			want[fmt.Sprintf("%s/%d", ref.appTbl.Name(k.app), k.unitID)] = e.count
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: ledger %v, reference %v", label, got, want)
	}
}
