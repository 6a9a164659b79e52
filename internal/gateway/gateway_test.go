package gateway

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

// stubMaster acks every JobAdmit like the real FuxiMaster, with a settable
// epoch and an on/off switch to simulate crashes.
type stubMaster struct {
	net   *transport.Net
	epoch int
	seq   protocol.Sequencer
	acked int
}

func newStubMaster(net *transport.Net) *stubMaster {
	m := &stubMaster{net: net, epoch: 1}
	net.Register(protocol.MasterEndpoint, m.handle)
	return m
}

func (m *stubMaster) handle(from transport.EndpointID, msg transport.Message) {
	if t, ok := msg.(*protocol.JobAdmit); ok {
		m.acked++
		m.net.SendID(m.net.Endpoint(protocol.MasterEndpoint), m.net.Endpoint(protocol.GatewayEndpoint), &protocol.JobAdmitAck{
			JobID: t.JobID, Row: t.Row, Epoch: m.epoch, Seq: m.seq.Next(),
		})
	}
}

func (m *stubMaster) crash() { m.net.Unregister(protocol.MasterEndpoint) }

func (m *stubMaster) promote(epoch int) {
	m.epoch = epoch
	m.net.Register(protocol.MasterEndpoint, m.handle)
	m.net.SendID(m.net.Endpoint(protocol.MasterEndpoint), m.net.Endpoint(protocol.GatewayEndpoint), protocol.MasterHello{Epoch: epoch})
}

type fixture struct {
	eng    *sim.Engine
	net    *transport.Net
	gw     *Gateway
	master *stubMaster
	reg    []Job
}

func newFixture(t *testing.T, lim Limits) *fixture {
	t.Helper()
	f := &fixture{eng: sim.NewEngine(1)}
	f.net = transport.NewNet(f.eng)
	f.master = newStubMaster(f.net)
	f.gw = New(Config{
		Limits: lim,
		OnRegistered: func(j Job, row int32) {
			if i, _, ok := f.gw.lookup(j.ID); !ok || i != row {
				t.Errorf("job %s registered at row %d, but its ID files it at %d (known %v)", j.ID, row, i, ok)
			}
			f.reg = append(f.reg, j)
		},
		RecordDecisions: true,
	}, f.eng, f.net)
	return f
}

// lookup is the name-keyed path a job took through the gateway before it
// became its row: the row and state filed under a job ID, ok false when the
// gateway keeps no record under it. The tests keep it as the oracle the rows
// must agree with.
func (g *Gateway) lookup(id string) (i int32, st State, ok bool) {
	if i, ok = g.jobs[id]; ok {
		st = g.states[i]
	}
	return i, st, ok
}

// complete completes the job filed under id, found by the oracle's lookup.
func (f *fixture) complete(id string) bool {
	i, _, ok := f.gw.lookup(id)
	return ok && f.gw.JobCompleted(i)
}

func (f *fixture) run(d sim.Time) { f.eng.Run(f.eng.Now() + d) }

func (f *fixture) check(t *testing.T, settled bool) {
	t.Helper()
	if bad := f.gw.CheckConservation(settled); len(bad) > 0 {
		t.Fatalf("conservation violated: %v", bad)
	}
}

// fillInFlight submits maxInFlight jobs, a burst from each of
// maxInFlight/burst tenants, and runs until the dequeue has admitted them
// all: the stub master registers them and none completes, so the in-flight
// cap is reached and further jobs stay queued.
func (f *fixture) fillInFlight(t *testing.T) {
	t.Helper()
	for i := 0; i < maxInFlight; i++ {
		f.gw.Submit(Job{ID: fmt.Sprintf("fill%d", i), Tenant: fmt.Sprintf("filler%d", i/burst), Class: Class(i / burst % 2)})
	}
	f.run(maxInFlight/admitPerRound*admitPeriod + sim.Second)
	if st := f.gw.Snapshot(); st.Admitted != maxInFlight || st.Queued != 0 {
		t.Fatalf("fill: admitted=%d queued=%d, want %d/0", st.Admitted, st.Queued, maxInFlight)
	}
}

func TestTokenBucketRateLimit(t *testing.T) {
	f := newFixture(t, DefaultLimits())

	for i := 0; i < burst+3; i++ {
		kind := f.gw.Submit(Job{ID: fmt.Sprintf("j%d", i), Tenant: "hot", Class: ClassBatch})
		want := DecisionQueued
		if i >= burst {
			want = DecisionShedRateLimit
		}
		if kind != want {
			t.Errorf("submission %d: %v, want %v", i, kind, want)
		}
	}
	// One refill period later one more token is available.
	f.run(refillEvery + sim.Millisecond)
	if kind := f.gw.Submit(Job{ID: "late", Tenant: "hot", Class: ClassBatch}); kind != DecisionQueued {
		t.Errorf("post-refill submission: %v, want queued", kind)
	}
	if kind := f.gw.Submit(Job{ID: "later", Tenant: "hot", Class: ClassBatch}); kind != DecisionShedRateLimit {
		t.Errorf("second post-refill submission: %v, want shed by the rate limit", kind)
	}
	f.run(2 * sim.Second)
	f.check(t, false)
	st := f.gw.Snapshot()
	if st.ShedRateLimit != 4 || st.Admitted != burst+1 {
		t.Errorf("shed=%d admitted=%d, want 4/%d", st.ShedRateLimit, st.Admitted, burst+1)
	}
}

// TestTenantQueueBoundAndBacklogShed: one tenant's queue holds queueCap
// jobs, and the global backlog MaxQueued; a submission past either is shed
// with its reason, and a repeated ID as a duplicate.
func TestTenantQueueBoundAndBacklogShed(t *testing.T) {
	// The tenant bound: behind a full in-flight cap nothing dequeues, and a
	// tenant queues its burst at once and one job per refill period after.
	f := newFixture(t, Limits{})
	f.fillInFlight(t)
	for i := 0; i < queueCap; i++ {
		if i >= burst {
			f.run(refillEvery)
		}
		if kind := f.gw.Submit(Job{ID: fmt.Sprintf("a%d", i), Tenant: "deep", Class: ClassBatch}); kind != DecisionQueued {
			t.Fatalf("deep submission %d: %v, want queued", i, kind)
		}
	}
	f.run(refillEvery) // a token is there: only the queue bound can shed
	if kind := f.gw.Submit(Job{ID: "a-over", Tenant: "deep", Class: ClassBatch}); kind != DecisionShedTenantQueue {
		t.Errorf("submission past the tenant queue: %v, want shed-tenant-queue", kind)
	}
	if kind := f.gw.Submit(Job{ID: "b0", Tenant: "shallow", Class: ClassBatch}); kind != DecisionQueued {
		t.Errorf("another tenant's submission: %v, want queued", kind)
	}
	f.check(t, false)

	// The backlog bound: jobs queue until the next dequeue tick.
	f = newFixture(t, Limits{MaxQueued: 5})
	for i := 0; i < 7; i++ {
		kind := f.gw.Submit(Job{ID: fmt.Sprintf("b%d", i), Tenant: fmt.Sprintf("t%d", i), Class: ClassBatch})
		want := DecisionQueued
		if i >= 5 {
			want = DecisionShedBacklog
		}
		if kind != want {
			t.Errorf("spread submission %d: %v, want %v", i, kind, want)
		}
	}
	if kind := f.gw.Submit(Job{ID: "b0", Tenant: "t9", Class: ClassBatch}); kind != DecisionShedDuplicate {
		t.Errorf("duplicate ID: %v, want shed-duplicate", kind)
	}
	f.check(t, false)
}

// TestWeightedFairDequeue pins the weighted round-robin: with backlog in
// both classes and weights 4:1, a tick admits service and batch jobs in that
// ratio, rotating fairly across the tenants inside each class.
func TestWeightedFairDequeue(t *testing.T) {
	f := newFixture(t, DefaultLimits())
	// Each tenant queues its whole burst: 16 service tenants, 4 batch ones.
	for i := 0; i < 16*burst; i++ {
		f.gw.Submit(Job{ID: fmt.Sprintf("s%d", i), Tenant: fmt.Sprintf("svc%d", i%16), Class: ClassService})
	}
	for i := 0; i < 4*burst; i++ {
		f.gw.Submit(Job{ID: fmt.Sprintf("b%d", i), Tenant: fmt.Sprintf("bat%d", i%4), Class: ClassBatch})
	}
	// One tick = 40 admissions: 32 service, 8 batch.
	f.run(admitPeriod + sim.Millisecond)
	st := f.gw.Snapshot()
	if st.Service.Admitted != 32 || st.Batch.Admitted != 8 {
		t.Errorf("admitted service=%d batch=%d, want 32/8", st.Service.Admitted, st.Batch.Admitted)
	}
	// Tenant rotation within a class: the admissions cover every tenant of
	// the class twice (FIFO rotation), not a few tenants' whole queues.
	perTenant := map[string]int{}
	for _, d := range f.gw.Decisions() {
		if d.Kind == DecisionAdmit {
			perTenant[f.gw.rec(f.gw.jobs[d.JobID]).job.Tenant]++
		}
	}
	for i := 0; i < 16; i++ {
		if got := perTenant[fmt.Sprintf("svc%d", i)]; got != 2 {
			t.Errorf("svc%d admitted %d jobs, want 2 (fair rotation)", i, got)
		}
	}
	for i := 0; i < 4; i++ {
		if got := perTenant[fmt.Sprintf("bat%d", i)]; got != 2 {
			t.Errorf("bat%d admitted %d jobs, want 2 (fair rotation)", i, got)
		}
	}
	// Drain everything; batch must not be starved to death by the weights.
	f.run(sim.Second)
	st = f.gw.Snapshot()
	if st.Admitted != 20*burst || st.Registered != 20*burst {
		t.Errorf("admitted=%d registered=%d, want %d/%d", st.Admitted, st.Registered, 20*burst, 20*burst)
	}
	f.check(t, false)
}

func TestBackpressureMaxInFlight(t *testing.T) {
	f := newFixture(t, DefaultLimits())
	f.fillInFlight(t)
	for i := 0; i < 7; i++ {
		f.gw.Submit(Job{ID: fmt.Sprintf("j%d", i), Tenant: fmt.Sprintf("t%d", i), Class: ClassBatch})
	}
	f.run(sim.Second)
	st := f.gw.Snapshot()
	if st.Admitted != maxInFlight || st.Queued != 7 {
		t.Errorf("admitted=%d queued=%d, want %d/7 under in-flight cap", st.Admitted, st.Queued, maxInFlight)
	}
	// Completions free slots.
	for _, j := range f.reg[:3] {
		f.complete(j.ID)
	}
	f.run(sim.Second)
	if st := f.gw.Snapshot(); st.Admitted != maxInFlight+3 || st.Queued != 4 {
		t.Errorf("admitted=%d queued=%d after 3 completions, want %d/4", st.Admitted, st.Queued, maxInFlight+3)
	}
	f.check(t, false)
}

// TestFailoverReplayExactlyOnce crashes the master with admits in flight:
// the gateway must replay the unacknowledged jobs to the promoted successor
// on its hello, and fire each registration exactly once even though retries
// produce duplicate acks.
func TestFailoverReplayExactlyOnce(t *testing.T) {
	f := newFixture(t, DefaultLimits())
	f.master.crash() // no master: admits go into the void

	for i := 0; i < 6; i++ {
		f.gw.Submit(Job{ID: fmt.Sprintf("j%d", i), Tenant: fmt.Sprintf("t%d", i), Class: ClassService})
	}
	f.run(3 * retryEvery)
	if len(f.reg) != 0 {
		t.Fatalf("%d registrations with no master alive", len(f.reg))
	}
	st := f.gw.Snapshot()
	if st.Admitted != 6 || st.AdmitRetries == 0 {
		t.Fatalf("admitted=%d retries=%d, want 6 admitted with retries pending", st.Admitted, st.AdmitRetries)
	}

	f.master.promote(2)
	f.run(sim.Second)
	st = f.gw.Snapshot()
	if st.Registered != 6 || len(f.reg) != 6 {
		t.Fatalf("registered=%d callbacks=%d after promotion, want 6/6", st.Registered, len(f.reg))
	}
	if st.FailoverReplays == 0 {
		t.Error("hello-triggered replay never fired")
	}
	if st.MasterEpoch != 2 {
		t.Errorf("observed epoch %d, want 2", st.MasterEpoch)
	}
	// The master saw at least one admit per job (retries allowed), and every
	// registration fired exactly once: 6 distinct jobs in the callback log.
	seen := map[string]bool{}
	for _, j := range f.reg {
		if seen[j.ID] {
			t.Errorf("job %s registered twice", j.ID)
		}
		seen[j.ID] = true
	}
	for _, j := range f.reg {
		f.complete(j.ID)
	}
	f.check(t, true)
}

// TestDecisionHashDeterminism runs the identical submission schedule twice
// and a perturbed one once: equal streams hash equal, different streams
// hash different.
func TestDecisionHashDeterminism(t *testing.T) {
	run := func(perturb bool) uint64 {
		f := newFixture(t, DefaultLimits())
		for i := 0; i < 30; i++ {
			n := i
			f.eng.At(sim.Time(i)*7*sim.Millisecond, func() {
				f.gw.Submit(Job{ID: fmt.Sprintf("j%d", n), Tenant: fmt.Sprintf("t%d", n%3), Class: Class(n % 2)})
			})
		}
		if perturb {
			f.eng.At(40*sim.Millisecond, func() {
				f.gw.Submit(Job{ID: "extra", Tenant: "t0", Class: ClassBatch})
			})
		}
		f.run(sim.Second)
		f.check(t, false)
		return f.gw.DecisionHash()
	}
	a, b, c := run(false), run(false), run(true)
	if a != b {
		t.Errorf("identical runs hash %016x vs %016x", a, b)
	}
	if a == c {
		t.Error("perturbed run collided with the baseline hash")
	}
}

// TestTenantClassIsSticky pins class normalization: a tenant's priority
// class is part of its identity, so a job submitted under the wrong class
// is normalized onto the tenant's — it dequeues at the tenant's weight and
// every per-class tally stays consistent across its whole lifecycle.
func TestTenantClassIsSticky(t *testing.T) {
	f := newFixture(t, DefaultLimits())
	f.gw.Submit(Job{ID: "j0", Tenant: "t0", Class: ClassBatch})
	f.gw.Submit(Job{ID: "j1", Tenant: "t0", Class: ClassService}) // normalized to batch
	f.run(sim.Second)
	st := f.gw.Snapshot()
	if st.Service.Submitted != 0 || st.Batch.Submitted != 2 {
		t.Errorf("per-class submitted service=%d batch=%d, want 0/2", st.Service.Submitted, st.Batch.Submitted)
	}
	if st.Batch.Registered != 2 || st.Service.Registered != 0 {
		t.Errorf("per-class registered service=%d batch=%d, want 0/2", st.Service.Registered, st.Batch.Registered)
	}
	for _, j := range f.reg {
		if j.Class != ClassBatch {
			t.Errorf("job %s registered with class %v, want batch", j.ID, j.Class)
		}
	}
	f.check(t, false)
}

// tamperFixture leaves a gateway with a record in every lifecycle state and
// every tally non-zero: j0 completed, j1–j3 registered, j4 admitted into a
// dead master (no ack), j5 and h0–h4 queued for the next dequeue tick, h5
// shed by the hot tenant's rate limit, and one duplicate submission of j1.
func tamperFixture(t *testing.T) *fixture {
	t.Helper()
	f := newFixture(t, DefaultLimits())
	for i := 0; i < 4; i++ {
		f.gw.Submit(Job{ID: fmt.Sprintf("j%d", i), Tenant: fmt.Sprintf("t%d", i), Class: ClassService})
	}
	f.run(sim.Second)
	if !f.complete("j0") {
		t.Fatal("j0 did not complete")
	}
	f.master.crash()
	f.gw.Submit(Job{ID: "j4", Tenant: "t4", Class: ClassBatch})
	f.run(admitPeriod + sim.Millisecond)
	f.gw.Submit(Job{ID: "j5", Tenant: "t5", Class: ClassBatch})
	f.gw.Submit(Job{ID: "j1", Tenant: "t1", Class: ClassService})
	for i := 0; i <= burst; i++ {
		f.gw.Submit(Job{ID: fmt.Sprintf("h%d", i), Tenant: "hot", Class: ClassBatch})
	}
	want := map[string]State{"j0": StateCompleted, "j1": StateRegistered, "j4": StateAdmitted,
		"j5": StateQueued, "h0": StateQueued, fmt.Sprintf("h%d", burst): StateShed}
	for id, st := range want {
		if _, got, ok := f.gw.lookup(id); !ok || got != st {
			t.Fatalf("fixture: job %s in state %d (known %v), want %d", id, got, ok, st)
		}
	}
	if f.gw.dupSubmits != 1 {
		t.Fatalf("fixture: %d duplicate submissions, want 1", f.gw.dupSubmits)
	}
	f.check(t, false)
	return f
}

// TestConservationCatchesTampering shows that no rule of CheckConservation
// is vacuous: each case corrupts one tally or one state row of a clean
// gateway and names the rule that must report it.
func TestConservationCatchesTampering(t *testing.T) {
	row := func(g *Gateway, id string) *State { return &g.states[g.jobs[id]] }
	cases := []struct {
		name    string
		tamper  func(g *Gateway)
		settled bool
		want    string // a fragment of the violated rule's message
	}{
		{"forged submitted", func(g *Gateway) { g.submitted++ }, false, "submissions but"},
		{"forged dupSubmits", func(g *Gateway) { g.dupSubmits++ }, false, "submissions but"},
		{"forged queued", func(g *Gateway) { g.queued++ }, false, "in queued state"},
		{"forged shed", func(g *Gateway) { g.shed[0]++ }, false, "shed records"},
		{"forged inflight", func(g *Gateway) { g.inflight++ }, false, "in flight by state"},
		{"forged admitted", func(g *Gateway) { g.admitted++ }, false, "past admission"},
		{"forged registered", func(g *Gateway) { g.registered++ }, false, "past registration"},
		{"forged completed", func(g *Gateway) { g.completed++ }, false, "completed records"},
		{"forged class tally", func(g *Gateway) { g.cAdm[ClassBatch]++ }, false, "per-class tallies"},
		{"row flipped behind the counters", func(g *Gateway) { *row(g, "j1") = StateCompleted }, false, "completed records"},
		{"row un-admitted behind the counters", func(g *Gateway) { *row(g, "j4") = StateQueued }, false, "past admission"},
		{"row dropped", func(g *Gateway) { g.states = g.states[:len(g.states)-1] }, false, "state rows but"},
		{"row appended", func(g *Gateway) { g.states = append(g.states, StateShed) }, false, "state rows but"},
		{"row holds no state", func(g *Gateway) { *row(g, "j2") = StateShed + 7 }, false, "no lifecycle state"},
		{"settled with an admitted row", func(g *Gateway) {}, true, "settled with 1 admitted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tamperFixture(t)
			tc.tamper(f.gw)
			bad := f.gw.CheckConservation(tc.settled)
			for _, v := range bad {
				if strings.Contains(v, tc.want) {
					return
				}
			}
			t.Fatalf("rule %q silent; violations: %q", tc.want, bad)
		})
	}
}

// auditGateway returns a gateway holding n job records (half queued, half
// shed at the default 50k backlog cap when n is 100k).
func auditGateway(tb testing.TB, n int) *Gateway {
	tb.Helper()
	eng := sim.NewEngine(1)
	g := New(Config{Limits: DefaultLimits()}, eng, transport.NewNet(eng))
	for i := 0; i < n; i++ {
		g.Submit(Job{ID: fmt.Sprintf("j%06d", i), Tenant: fmt.Sprintf("t%06d", i), Class: Class(i % NumClasses)})
	}
	if len(g.states) != n {
		tb.Fatalf("%d records, want %d", len(g.states), n)
	}
	return g
}

// TestConservationSweepAllocatesNothing: the audit runs once a virtual
// second over every record the gateway ever kept; a clean sweep must cost a
// pass over the state column and no allocation.
func TestConservationSweepAllocatesNothing(t *testing.T) {
	g := auditGateway(t, 100_000)
	if bad := g.CheckConservation(false); len(bad) > 0 {
		t.Fatalf("conservation violated: %v", bad)
	}
	if n := testing.AllocsPerRun(10, func() { g.CheckConservation(false) }); n != 0 {
		t.Fatalf("clean sweep over 100k records allocated %v times", n)
	}
}

func BenchmarkCheckConservation(b *testing.B) {
	g := auditGateway(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bad := g.CheckConservation(false); len(bad) > 0 {
			b.Fatal(bad)
		}
	}
}

func TestBurstSessionTracking(t *testing.T) {
	lim := DefaultLimits()
	lim.SessionGap = sim.Second
	f := newFixture(t, lim)

	// Tenant A: a 3-job burst, a gap beyond SessionGap, then a 2-job burst.
	submit := func(id, tenant string) { f.gw.Submit(Job{ID: id, Tenant: tenant, Class: ClassBatch}) }
	submit("a0", "A")
	f.run(100 * sim.Millisecond)
	submit("a1", "A")
	f.run(100 * sim.Millisecond)
	submit("a2", "A")
	f.run(5 * sim.Second) // gap: session ends
	submit("a3", "A")
	f.run(100 * sim.Millisecond)
	submit("a4", "A")
	// Tenant B: one lone submission inside A's window — its own session.
	submit("b0", "B")

	f.run(2 * sim.Second)
	st := f.gw.Snapshot()
	if st.Sessions != 3 {
		t.Errorf("sessions = %d, want 3 (A burst, A burst, B single)", st.Sessions)
	}
	if st.MaxSessionLen != 3 {
		t.Errorf("max session len = %d, want 3", st.MaxSessionLen)
	}
	if want := 6.0 / 3.0; st.MeanSessionLen != want {
		t.Errorf("mean session len = %v, want %v", st.MeanSessionLen, want)
	}
	f.check(t, false)
}

func TestSessionTrackingOffByDefault(t *testing.T) {
	f := newFixture(t, DefaultLimits())
	f.gw.Submit(Job{ID: "j0", Tenant: "T", Class: ClassBatch})
	f.run(sim.Second)
	st := f.gw.Snapshot()
	if st.Sessions != 0 || st.MeanSessionLen != 0 || st.MaxSessionLen != 0 {
		t.Errorf("session stats populated with tracking off: %+v", st)
	}
}
