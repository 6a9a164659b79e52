package gateway

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

// gwScript turns fuzz bytes into a gateway's traffic: a cursor that reads
// zeros once the bytes run out.
type gwScript struct{ b []byte }

func (s *gwScript) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// epoch is a master election epoch, any one: stale, current, newer, zero or
// negative.
func (s *gwScript) epoch(current int) int {
	switch c := s.next(); c % 4 {
	case 0:
		return current
	case 1:
		return current + 1 + int(c>>2)%3
	case 2:
		return current - 1 - int(c>>2)%3
	}
	return int(int8(s.next()))
}

// FuzzGatewayHandle drives one gateway through a byte-scripted sequence of
// submissions and hostile master traffic — submissions with new and repeated
// job IDs and tenants; admission acks, pooled-pointer and value forms, at any
// epoch, for jobs the master was sent, jobs it was not, and jobs already
// acknowledged, carrying the row the admit carried or a hostile one (a
// stale row, one the gateway never issued, another job's); master hellos at
// any epoch; completions of any job; and time advancing, so the dequeue and
// the retry backoff run — under tight limits or default ones. After every
// step the gateway must not have panicked, its admission ledger must conserve
// every submission, an ack with a hostile row must have changed no job's
// state, and the row each admit carried must be the one the job's ID files
// it under (the name-keyed lookup, kept as the oracle).
func FuzzGatewayHandle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 0, 0, 9, 5, 40, 1, 0, 0, 3, 0, 5, 5, 200, 2, 1, 9, 1, 1, 2})
	f.Add([]byte{1, 0, 0, 1, 0, 0, 1, 0, 8, 0, 0, 2, 5, 3, 1, 0, 1, 1, 4, 5, 3, 1, 4, 1, 1, 0, 4})
	f.Add([]byte{0, 0, 7, 7, 0, 7, 7, 5, 1, 1, 0, 0, 2, 1, 5, 0, 2, 6, 1, 1, 1, 3, 0, 4, 0, 5, 250})
	f.Add([]byte{1, 0, 16, 1, 0, 24, 2, 0, 33, 3, 5, 12, 1, 0, 0, 3, 4, 0, 2, 3, 0xff, 80, 5, 60, 4, 1})
	// Hostile rows: submit three jobs, let them be admitted, then ack the
	// first with a stale row, one out of range and another job's, each in
	// both forms, before its own ack and a duplicate of it.
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 5, 20,
		1, 0, 0, 0, 2, 1, 0, 0, 0, 3, 1, 0, 0, 0, 4, 1, 0, 0, 0, 5, 1, 0, 0, 0, 6, 1, 0, 0, 0, 7,
		1, 0, 0, 0, 0, 1, 0, 0, 0, 2, 1, 0, 0, 0, 6, 3, 0, 0, 1, 0, 1, 0, 0, 6})
	f.Add([]byte{1, 0, 8, 1, 0, 9, 2, 0, 10, 3, 0, 11, 4, 5, 40, 1, 2, 1, 0, 0, 1, 0, 2, 0, 0,
		1, 0, 3, 0, 6, 1, 0, 0, 0, 4, 2, 1, 5, 30, 1, 0, 1, 1, 7, 3, 0, 1, 1, 0, 2, 0, 5})
	f.Fuzz(runGatewayScript)
}

// sentAdmit is what the scripted master recorded of one JobAdmit.
type sentAdmit struct {
	id  string
	row int32
}

// runGatewayScript is FuzzGatewayHandle's body: one fresh gateway, one script.
func runGatewayScript(t *testing.T, data []byte) {
	s := &gwScript{b: data}
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	// The master end records the jobs it was sent and answers nothing: every
	// ack comes from the script.
	var sent []sentAdmit
	var g *Gateway
	master := net.Register(protocol.MasterEndpoint, func(_ transport.EndpointID, msg transport.Message) {
		if a, ok := msg.(*protocol.JobAdmit); ok {
			if i, _, ok := g.lookup(a.JobID); !ok || i != a.Row {
				t.Fatalf("admit of %s carries row %d, but its ID files it at %d (known %v)", a.JobID, a.Row, i, ok)
			}
			sent = append(sent, sentAdmit{a.JobID, a.Row})
		}
	})
	lim := DefaultLimits()
	if s.next()&1 == 1 { // tight: every shed reason and the in-flight cap within reach
		lim.RefillEvery, lim.Burst = 50*sim.Millisecond, 2
		lim.QueueCap, lim.MaxQueued, lim.MaxInFlight, lim.AdmitPerRound = 2, 6, 3, 2
	}
	g = New(Config{Limits: lim}, eng, net)
	// job names one of a few dozen IDs, so they come back: submitted again,
	// acknowledged twice, completed before they were admitted.
	job := func(c byte) string { return fmt.Sprintf("job-%d", c%24) }
	// target picks a job: one the master was sent (c even), else one by ID,
	// whose row is the one the oracle files it under (-1 when none is).
	target := func(c byte) (string, int32) {
		if c&1 == 0 && len(sent) > 0 {
			a := sent[int(s.next())%len(sent)]
			return a.id, a.row
		}
		id := job(c >> 1)
		if i, _, ok := g.lookup(id); ok {
			return id, i
		}
		return id, -1
	}
	for step := 0; len(s.b) > 0 && step < 256; step++ {
		var what string
		hostile := false
		var before []State
		var registered uint64
		switch op := s.next() % 6; op {
		case 0:
			what = "submit"
			c := s.next()
			g.Submit(Job{ID: job(s.next()), Tenant: fmt.Sprintf("tenant-%d", c%5), Class: Class(c >> 3 & 1)})
		case 1:
			what = "ack"
			id, row := target(s.next())
			ack := protocol.JobAdmitAck{JobID: id, Row: row, Epoch: s.epoch(g.MasterEpoch())}
			// The form byte's low bit picks pointer or value; the bits above
			// it may replace the row with a hostile one.
			form := s.next()
			if h := form >> 1 % 4; h != 0 && len(g.states) > 0 {
				hostile, what = true, "hostile ack"
				k := int32(s.next()) % int32(len(g.states))
				switch h {
				case 1: // stale: a job's own ID and row, once it left admitted
					for n := int32(0); n < int32(len(g.states)) && g.states[k] == StateAdmitted; n++ {
						k = (k + 1) % int32(len(g.states))
					}
					if g.states[k] == StateAdmitted {
						hostile, what = false, "ack"
						break
					}
					ack.Row = k
					ack.JobID = rowID(g, k)
				case 2: // never issued
					ack.Row = int32(len(g.states)) + k
					if form&0x80 != 0 {
						ack.Row = -1 - k
					}
				case 3: // another job's
					if k == row {
						k = (k + 1) % int32(len(g.states))
					}
					if k == row {
						hostile, what = false, "ack"
						break
					}
					ack.Row = k
				}
				if hostile {
					before, registered = append(before, g.states...), g.registered
				}
			}
			if form&1 == 0 {
				g.handle(master, &ack)
			} else {
				g.handle(master, ack)
			}
		case 2:
			what = "hello"
			g.handle(master, protocol.MasterHello{Epoch: s.epoch(g.MasterEpoch())})
		case 3:
			what = "complete"
			_, row := target(s.next())
			g.JobCompleted(row)
		default:
			what = "time"
			eng.Run(eng.Now() + sim.Time(s.next())*5*sim.Millisecond)
		}
		if hostile && (g.registered != registered || !slices.Equal(g.states, before)) {
			t.Fatalf("step %d: a %s changed the ledger: %d registrations, was %d", step, what, g.registered, registered)
		}
		if bad := g.CheckConservation(false); len(bad) > 0 {
			t.Fatalf("step %d (%s): conservation violated: %v", step, what, bad)
		}
	}
}

// rowID returns the job ID filed at row k, "" for a row whose record is
// dropped (its slab is all terminal). It reads the records of terminal jobs,
// so it scans the ID table (the oracle) instead.
func rowID(g *Gateway, k int32) string {
	for id, i := range g.jobs {
		if i == k {
			return id
		}
	}
	return ""
}
