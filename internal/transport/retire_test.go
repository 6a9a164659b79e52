package transport

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ident"
	"repro/internal/sim"
)

// netScript turns fuzz bytes into network operations: a cursor that reads
// zeros once the bytes run out.
type netScript struct{ b []byte }

func (s *netScript) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// scriptNames is how many endpoint names a script plays with at once. Name k
// is "e<k>.<incarnation>": retiring it moves k to its next incarnation, so a
// retired name never comes back, which is Retire's contract.
const scriptNames = 5

// mintedID is one endpoint the script interned: its name and the ID each
// network gave it.
type mintedID struct {
	name    string
	o, n    EndpointID
	retired bool
}

// runNetScript drives a Net and the never-reusing oracleNet through one
// byte-scripted sequence of Register, Unregister, Retire, Endpoint, SendID,
// SendBatchID, SetDown, SetLinkDown, Partition/Isolate/Heal, SetLinkRule,
// SetLinkDelay and run calls, on engines of one seed. Sends pick any ID the
// script was ever handed,
// retired ones included, so late traffic to and from recycled slots is
// common. After every step the two must have made the same handler calls —
// (sender name, receiver name, message, instant) — and kept the same
// traffic counters, and Known, Name and Lookup must agree on every ID handed out:
// a retired ID stays known, its name reads "" (never its slot's later
// owner's) and its name looks up nothing.
func runNetScript(t *testing.T, data []byte) {
	s := &netScript{b: data}
	oe, ne := sim.NewEngine(11), sim.NewEngine(11)
	o, n := newOracleNet(oe), NewNet(ne)
	knobs := s.next()
	if knobs&1 != 0 {
		o.Jitter, n.Jitter = 300*sim.Microsecond, 300*sim.Microsecond
	}
	if knobs&2 != 0 {
		o.DropRate, n.DropRate = 0.2, 0.2
	}
	if knobs&4 != 0 {
		o.DupRate, n.DupRate = 0.2, 0.2
	}

	var incarnation [scriptNames]int
	name := func(k byte) string {
		k %= scriptNames
		return fmt.Sprintf("e%d.%d", k, incarnation[k])
	}
	var ids []mintedID
	byName := map[string]int{}
	intern := func(nm string) {
		oid, nid := o.Endpoint(nm), n.Endpoint(nm)
		if i, ok := byName[nm]; ok {
			if ids[i].o != oid || ids[i].n != nid {
				t.Fatalf("%s re-interned as %d/%d, was %d/%d", nm, oid, nid, ids[i].o, ids[i].n)
			}
			return
		}
		byName[nm] = len(ids)
		ids = append(ids, mintedID{name: nm, o: oid, n: nid})
	}
	var oCalls, nCalls []string
	record := func(calls *[]string, eng *sim.Engine, name func(EndpointID) string, to string) Handler {
		return func(from EndpointID, msg Message) {
			*calls = append(*calls, fmt.Sprintf("%s>%s:%v@%d", name(from), to, msg, eng.Now()))
		}
	}
	pick := func() mintedID { return ids[int(s.next())%len(ids)] }

	for step := 0; len(s.b) > 0 && step < 200; step++ {
		op := s.next() % 12
		switch op {
		case 0:
			nm := name(s.next())
			o.Register(nm, record(&oCalls, oe, o.Name, nm))
			n.Register(nm, record(&nCalls, ne, n.Name, nm))
			intern(nm)
		case 1:
			nm := name(s.next())
			o.Unregister(nm)
			n.Unregister(nm)
		case 2:
			k := s.next() % scriptNames
			nm := name(k)
			o.Retire(nm)
			n.Retire(n.Lookup(nm))
			if i, ok := byName[nm]; ok {
				ids[i].retired = true
			}
			incarnation[k]++
		case 3:
			intern(name(s.next()))
		case 4, 5:
			if len(ids) == 0 {
				continue
			}
			from, to := pick(), pick()
			if op == 4 {
				o.SendID(from.o, to.o, step)
				n.SendID(from.n, to.n, step)
			} else {
				batch := []Message{step, -step, step + 1000}[:2+int(s.next()%2)]
				o.SendBatchID(from.o, to.o, batch)
				n.SendBatchID(from.n, to.n, batch)
			}
		case 6:
			d := sim.Time(s.next()) * 20 * sim.Microsecond
			oe.Run(oe.Now() + d)
			ne.Run(ne.Now() + d)
		case 7, 8:
			nm, down := name(s.next()), s.next()%2 == 0
			if op == 7 {
				o.SetDown(nm, down)
				n.SetDown(nm, down)
			} else {
				o.SetLinkDown(nm, down)
				n.SetLinkDown(nm, down)
			}
			intern(nm)
		case 9:
			switch a, b := name(s.next()), name(s.next()); s.next() % 3 {
			case 0:
				o.Heal()
				n.Heal()
			case 1:
				o.Isolate([]string{a, b})
				n.Isolate([]string{a, b})
				intern(a)
				intern(b)
			default:
				o.Partition([]string{a}, []string{b})
				n.Partition([]string{a}, []string{b})
				intern(a)
				intern(b)
			}
		case 10:
			a, b := name(s.next()), name(s.next())
			r := []LinkRule{{}, {Drop: 0.5}, {Dup: 0.5, Jitter: 100 * sim.Microsecond}, {Cut: true}}[s.next()%4]
			o.SetLinkRule(a, b, r)
			n.SetLinkRule(a, b, r)
			intern(a)
			intern(b)
		case 11:
			nm, d := name(s.next()), sim.Time(s.next()%3)*250*sim.Microsecond
			o.SetLinkDelay(nm, d)
			n.SetLinkDelay(nm, d)
			intern(nm)
		}
		compareNets(t, step, o, n, ids, oCalls, nCalls)
	}
	oe.RunUntilIdle()
	ne.RunUntilIdle()
	compareNets(t, -1, o, n, ids, oCalls, nCalls)
}

// compareNets holds a Net to its oracle after one script step (-1: the end).
func compareNets(t *testing.T, step int, o *oracleNet, n *Net, ids []mintedID, oCalls, nCalls []string) {
	t.Helper()
	if !slices.Equal(oCalls, nCalls) {
		t.Fatalf("step %d: handler calls diverge:\n oracle %q\n net    %q", step, oCalls, nCalls)
	}
	ns := n.Stats()
	ns.Bytes = 0
	if ns != o.stats {
		t.Fatalf("step %d: traffic %+v, oracle %+v", step, ns, o.stats)
	}
	for _, e := range ids {
		if !o.Known(e.o) || !n.Known(e.n) {
			t.Fatalf("step %d: %s (%d) not known", step, e.name, e.n)
		}
		if got := o.Name(e.o); got != e.name {
			t.Fatalf("step %d: oracle names %d %q, want %q", step, e.o, got, e.name)
		}
		wantName, wantID := e.name, e.n
		if e.retired {
			wantName, wantID = "", None
		}
		if got := n.Name(e.n); got != wantName {
			t.Fatalf("step %d: Name(%d) = %q, want %q (%s retired %v)", step, e.n, got, wantName, e.name, e.retired)
		}
		if got := n.Lookup(e.name); got != wantID {
			t.Fatalf("step %d: Lookup(%s) = %d, want %d", step, e.name, got, wantID)
		}
		if got := o.Lookup(e.name); got != e.o {
			t.Fatalf("step %d: oracle Lookup(%s) = %d, want %d", step, e.name, got, e.o)
		}
	}
	// A generation the network has not handed out yet is not known.
	for s := range n.gens {
		if n.gens[s] < 1<<ident.GenBits-1 {
			if id := EndpointID(ident.Tag(int32(s), n.gens[s]+1)); n.Known(id) {
				t.Fatalf("step %d: generation %d, never handed out, of slot %d is known", step, n.gens[s]+1, s)
			}
		}
	}
}

// FuzzNetRetire holds slot recycling to the never-reusing network
// (runNetScript).
func FuzzNetRetire(f *testing.F) {
	f.Add([]byte{})
	// Register e0 and e1; e0 sends to e1; e1 retires while it is in flight;
	// e1's next incarnation registers on the recycled slot and sends back.
	f.Add([]byte{0, 0, 0, 0, 1, 4, 0, 1, 2, 1, 0, 1, 4, 2, 0, 6, 50})
	// The same with jitter, loss and duplication, then a batch from the
	// retired ID, and a flap, an isolation and a delay spike on the slot's
	// new owner while the retired ID keeps sending to it.
	f.Add([]byte{7, 0, 0, 0, 1, 4, 0, 1, 2, 1, 0, 1, 5, 1, 0, 1, 8, 1, 0, 9, 1, 1, 1, 4, 1, 2, 11, 1, 2, 4, 0, 2, 6, 200})
	// A lossy rule on a pair whose receiver retires, a partition and a down
	// endpoint around the slot's new owner, an unregister and re-register.
	f.Add([]byte{5, 0, 0, 0, 2, 10, 0, 2, 1, 2, 2, 0, 2, 9, 0, 2, 2, 7, 0, 0, 4, 0, 1, 4, 1, 0, 7, 0, 1, 1, 0, 0, 0, 9, 0, 0, 0, 4, 0, 2, 6, 255})
	f.Fuzz(runNetScript)
}

// TestNetRetireMatchesOracle runs a few hundred random scripts through
// runNetScript, so plain `go test` covers slot recycling beyond the seeds.
func TestNetRetireMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 400
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		data := make([]byte, 20+rng.Intn(300))
		rng.Read(data)
		runNetScript(t, data)
	}
}

// TestRetireRecyclesSlot pins the mechanism: a retired name's slot goes to
// the next new name under the next generation, the tables stay as long as the
// names live at once, and a message in flight to the retired ID never reaches
// the slot's new owner.
func TestRetireRecyclesSlot(t *testing.T) {
	eng, net := newNet(t)
	var got []string
	a := net.Register("a", func(EndpointID, Message) {})
	old := net.Register("job-1", func(_ EndpointID, msg Message) { got = append(got, "job-1:"+msg.(string)) })
	net.SendID(a, old, "late")
	net.Retire(net.Lookup("job-1"))
	fresh := net.Register("job-2", func(_ EndpointID, msg Message) { got = append(got, "job-2:"+msg.(string)) })
	if fresh.Slot() != old.Slot() || fresh == old {
		t.Fatalf("job-2 got %d (slot %d), job-1 had %d (slot %d): want the slot, next generation",
			fresh, fresh.Slot(), old, old.Slot())
	}
	// Retire takes an ID, so a second retire of job-1's — or one of an ID
	// never handed out — must leave the slot's new owner alone.
	net.Retire(old)
	net.Retire(EndpointID(ident.Tag(old.Slot(), ident.GenOf(int32(fresh))+1)))
	net.Retire(EndpointID(ident.Tag(int32(len(net.eps)), 0)))
	net.Retire(None)
	if net.Lookup("job-2") != fresh || !net.Registered("job-2") {
		t.Fatal("retiring a stale or unissued ID retired the slot's new owner")
	}
	net.SendID(a, fresh, "fresh")
	eng.RunUntilIdle()
	if !slices.Equal(got, []string{"job-2:fresh"}) {
		t.Fatalf("deliveries %v, want only job-2:fresh", got)
	}
	if s := net.Stats(); s.Sent != 2 || s.Delivered != 1 || s.Dropped != 1 {
		t.Fatalf("stats %v: the late message must count as sent and dropped", s)
	}
	if len(net.eps) != 2 || net.Name(old) != "" || !net.Known(old) || net.Lookup("job-1") != None {
		t.Fatalf("slots %d, Name(old) %q, Known(old) %v, Lookup(job-1) %d",
			len(net.eps), net.Name(old), net.Known(old), net.Lookup("job-1"))
	}
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("job-%d", 3+i)
		net.Register(name, func(EndpointID, Message) {})
		net.Retire(net.Lookup(name))
	}
	if len(net.eps) != 3 {
		t.Fatalf("%d slots after a thousand jobs one at a time, want 3", len(net.eps))
	}
}
