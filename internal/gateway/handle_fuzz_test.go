package gateway

import (
	"fmt"
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
// acknowledged; master hellos at any epoch; completions of any job; and time
// advancing, so the dequeue and the retry backoff run — under tight limits or
// default ones. After every step the gateway must not have panicked, and its
// admission ledger must conserve every submission.
func FuzzGatewayHandle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 0, 0, 9, 5, 40, 1, 0, 0, 3, 0, 5, 5, 200, 2, 1, 9, 1, 1, 2})
	f.Add([]byte{1, 0, 0, 1, 0, 0, 1, 0, 8, 0, 0, 2, 5, 3, 1, 0, 1, 1, 4, 5, 3, 1, 4, 1, 1, 0, 4})
	f.Add([]byte{0, 0, 7, 7, 0, 7, 7, 5, 1, 1, 0, 0, 2, 1, 5, 0, 2, 6, 1, 1, 1, 3, 0, 4, 0, 5, 250})
	f.Add([]byte{1, 0, 16, 1, 0, 24, 2, 0, 33, 3, 5, 12, 1, 0, 0, 3, 4, 0, 2, 3, 0xff, 80, 5, 60, 4, 1})
	f.Fuzz(runGatewayScript)
}

// runGatewayScript is FuzzGatewayHandle's body: one fresh gateway, one script.
func runGatewayScript(t *testing.T, data []byte) {
	s := &gwScript{b: data}
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	// The master end records the jobs it was sent and answers nothing: every
	// ack comes from the script.
	var sent []string
	master := net.Register(protocol.MasterEndpoint, func(_ transport.EndpointID, msg transport.Message) {
		if a, ok := msg.(*protocol.JobAdmit); ok {
			sent = append(sent, a.JobID)
		}
	})
	lim := DefaultLimits()
	if s.next()&1 == 1 { // tight: every shed reason and the in-flight cap within reach
		lim.RefillEvery, lim.Burst = 50*sim.Millisecond, 2
		lim.QueueCap, lim.MaxQueued, lim.MaxInFlight, lim.AdmitPerRound = 2, 6, 3, 2
	}
	g := New(Config{Limits: lim}, eng, net)
	// job names one of a few dozen IDs, so they come back: submitted again,
	// acknowledged twice, completed before they were admitted.
	job := func(c byte) string { return fmt.Sprintf("job-%d", c%24) }
	for step := 0; len(s.b) > 0 && step < 256; step++ {
		var what string
		switch op := s.next() % 6; op {
		case 0:
			what = "submit"
			c := s.next()
			g.Submit(Job{ID: job(s.next()), Tenant: fmt.Sprintf("tenant-%d", c%5), Class: Class(c >> 3 & 1)})
		case 1:
			what = "ack"
			c := s.next()
			id := job(c >> 1)
			if c&1 == 0 && len(sent) > 0 { // a job the master was sent
				id = sent[int(s.next())%len(sent)]
			}
			ack := protocol.JobAdmitAck{JobID: id, Epoch: s.epoch(g.MasterEpoch())}
			if s.next()&1 == 0 {
				g.handle(master, &ack)
			} else {
				g.handle(master, ack)
			}
		case 2:
			what = "hello"
			g.handle(master, protocol.MasterHello{Epoch: s.epoch(g.MasterEpoch())})
		case 3:
			what = "complete"
			c := s.next()
			id := job(c >> 1)
			if c&1 == 0 && len(sent) > 0 {
				id = sent[int(s.next())%len(sent)]
			}
			g.JobCompleted(id)
		default:
			what = "time"
			eng.Run(eng.Now() + sim.Time(s.next())*5*sim.Millisecond)
		}
		if bad := g.CheckConservation(false); len(bad) > 0 {
			t.Fatalf("step %d (%s): conservation violated: %v", step, what, bad)
		}
	}
}
