// Package gateway is the multi-tenant job-submission front door of the
// Fuxi control plane: the subsystem that stands between a huge user
// population and FuxiMaster, which the paper's production deployment
// implies (§5 runs "tens of thousands of concurrent jobs" submitted by
// Alibaba's tenant base) but whose admission machinery it leaves out of
// scope. Related work motivates the split this package enforces: Polynesia
// (arXiv:2103.00798) co-designs isolation between transactional and
// analytical traffic so neither starves the other, and the HTAP survey
// (arXiv:2404.15670) catalogues the same resource-isolation problem across
// systems — here, latency-sensitive service tenants and throughput-hungry
// batch tenants share one FuxiMaster and must be admitted without either
// class starving the other.
//
// The gateway gives every tenant an identity mapped onto a scheduler quota
// group, meters each tenant with a token bucket (sustained rate plus burst
// credit), bounds each tenant's admission queue and the global backlog with
// deterministic shedding, and releases queued jobs to FuxiMaster with a
// weighted-fair round-robin across priority classes (service before batch,
// by configured weights) that serves tenants within a class in FIFO
// rotation. Every job moves through an explicit lifecycle — submitted →
// queued → admitted → registered → completed, or shed with a reason — and
// every transition is driven by the simulation clock and deterministic data
// structures, so a run's admit/shed decision stream is byte-identical
// across seeds of the scheduler's shard count (the stream hash in Stats
// pins this).
//
// A job's ID is read once, at submission, for the duplicate check. The
// submission files the job under a row, a dense index the gateway mints in
// submission order, and from then on the job is that integer: the tenant
// queues and the unacknowledged list hold rows, the JobAdmit carries the row
// and its acknowledgement echoes it, OnRegistered hands it to the caller, and
// JobCompleted takes it back.
//
// Failover: an admitted job is handed to FuxiMaster as an idempotent
// JobAdmit that the gateway re-sends — immediately on a newly-promoted
// primary's MasterHello, and on a slow retry timer as the safety net —
// until an acknowledgement lands. The job state machine fires registration
// exactly once no matter how many acknowledgements arrive, so a master
// crash between admit and ack neither loses nor duplicates the job; the
// admission-conservation rule in internal/invariant makes that claim
// falsifiable.
package gateway

import (
	"fmt"
	"sort"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Class is a gateway priority class. Service tenants run latency-sensitive
// always-on workloads; batch tenants run throughput-oriented jobs that
// tolerate queueing. The class maps onto a scheduler quota group so the
// isolation extends past admission into placement accounting.
type Class uint8

const (
	// ClassService is the latency-sensitive class (dequeued first, higher
	// weight).
	ClassService Class = iota
	// ClassBatch is the throughput-oriented class.
	ClassBatch
	// NumClasses counts the classes.
	NumClasses = 2
)

func (c Class) String() string {
	if c == ClassService {
		return "service"
	}
	return "batch"
}

// QuotaGroup returns the scheduler quota group this class maps onto.
func (c Class) QuotaGroup() string { return c.String() }

// Job is one submission. IDs must be unique across a run (a duplicate is
// deterministically shed and counted, never silently merged).
type Job struct {
	ID     string
	Tenant string
	Class  Class
}

// State is a job's position in the gateway lifecycle.
type State uint8

const (
	// StateQueued jobs wait in their tenant's admission queue.
	StateQueued State = iota
	// StateAdmitted jobs were dequeued and handed to FuxiMaster; the
	// acknowledgement is outstanding (re-sent across master failovers).
	StateAdmitted
	// StateRegistered jobs were acknowledged by the primary; OnRegistered
	// has fired exactly once.
	StateRegistered
	// StateCompleted jobs finished and released their in-flight slot.
	StateCompleted
	// StateShed jobs were rejected at submission, with a reason.
	StateShed
)

// DecisionKind labels one record of the admit/shed decision stream.
type DecisionKind uint8

const (
	// DecisionQueued accepted the submission into a tenant queue.
	DecisionQueued DecisionKind = iota
	// DecisionShedRateLimit rejected it: the tenant's token bucket was
	// empty.
	DecisionShedRateLimit
	// DecisionShedTenantQueue rejected it: the tenant's queue was full.
	DecisionShedTenantQueue
	// DecisionShedBacklog rejected it: the global backlog cap was reached.
	DecisionShedBacklog
	// DecisionShedDuplicate rejected a reused job ID.
	DecisionShedDuplicate
	// DecisionAdmit dequeued the job and handed it to FuxiMaster.
	DecisionAdmit
)

func (k DecisionKind) String() string {
	switch k {
	case DecisionQueued:
		return "queued"
	case DecisionShedRateLimit:
		return "shed-rate-limit"
	case DecisionShedTenantQueue:
		return "shed-tenant-queue"
	case DecisionShedBacklog:
		return "shed-backlog"
	case DecisionShedDuplicate:
		return "shed-duplicate"
	case DecisionAdmit:
		return "admit"
	default:
		return "unknown"
	}
}

// Shed reports whether the decision rejected the submission.
func (k DecisionKind) Shed() bool {
	return k >= DecisionShedRateLimit && k <= DecisionShedDuplicate
}

// Decision is one entry of the deterministic decision stream.
type Decision struct {
	At    sim.Time
	JobID string
	Kind  DecisionKind
}

// Limits are the gateway's wire-able tuning knobs, serialized into
// benchmark configs.
type Limits struct {
	// RefillEvery grants each tenant one token per period (sustained rate);
	// Burst caps the bucket. 0 RefillEvery disables rate limiting.
	RefillEvery sim.Time `json:"refill_every_us"`
	Burst       int64    `json:"burst"`
	// QueueCap bounds one tenant's admission queue; MaxQueued bounds the
	// global backlog across tenants (0 = unlimited). Overflow sheds the
	// incoming submission deterministically.
	QueueCap  int `json:"queue_cap"`
	MaxQueued int `json:"max_queued"`
	// MaxInFlight bounds admitted-plus-registered jobs not yet completed —
	// backpressure toward FuxiMaster (0 = unlimited): at the cap the
	// dequeue pauses and jobs wait queued.
	MaxInFlight int `json:"max_in_flight"`
	// AdmitPeriod is the dequeue tick; AdmitPerRound the most jobs released
	// per tick.
	AdmitPeriod   sim.Time `json:"admit_period_us"`
	AdmitPerRound int      `json:"admit_per_round"`
	// ServiceWeight : BatchWeight is the weighted-fair dequeue ratio when
	// both classes have backlog.
	ServiceWeight int `json:"service_weight"`
	BatchWeight   int `json:"batch_weight"`
	// RetryEvery re-sends outstanding JobAdmits (the safety net behind the
	// MasterHello-triggered replay).
	RetryEvery sim.Time `json:"retry_every_us"`
	// SessionGap turns on burst-session tracking: a tenant's consecutive
	// submissions at most SessionGap apart count as one session (the
	// correlated-burst shape of a production trace, surfaced in Stats).
	// 0 disables tracking.
	SessionGap sim.Time `json:"session_gap_us,omitempty"`
}

// DefaultLimits returns production-flavoured defaults: half a job per
// second sustained per tenant with burst 5, 4:1 service:batch dequeue.
func DefaultLimits() Limits {
	return Limits{
		RefillEvery:   2 * sim.Second,
		Burst:         5,
		QueueCap:      20,
		MaxQueued:     50_000,
		MaxInFlight:   10_000,
		AdmitPeriod:   10 * sim.Millisecond,
		AdmitPerRound: 40,
		ServiceWeight: 4,
		BatchWeight:   1,
		RetryEvery:    500 * sim.Millisecond,
	}
}

// Config assembles one gateway.
type Config struct {
	Limits
	// OnRegistered fires exactly once per job when the primary FuxiMaster
	// acknowledges its admission; the caller starts the job's application
	// master there, and keeps row to complete the job with (JobCompleted).
	OnRegistered func(j Job, row int32)
	// RecordDecisions keeps the full decision stream in memory (parity
	// tests); the stream hash is always maintained.
	RecordDecisions bool
}

// tenant is one identity's admission state: token bucket, bounded FIFO
// queue, and admission tallies for the fairness index.
type tenant struct {
	class  Class
	tokens int64
	last   sim.Time
	q      []int32 // job rows
	qh     int
	active bool // enqueued in its class's dequeue rotation

	submitted uint32
	admitted  uint32

	// Burst-session tracking (Limits.SessionGap > 0): sessAt is the last
	// submission instant (distinct from the token bucket's refill marker),
	// sessLen the running length of the current session.
	sessAt  sim.Time
	sessLen uint32
}

func (t *tenant) qlen() int { return len(t.q) - t.qh }

func (t *tenant) pushJob(row int32) { t.q = append(t.q, row) }

func (t *tenant) popJob() int32 {
	row := t.q[t.qh]
	t.qh++
	if t.qh == len(t.q) {
		t.q, t.qh = t.q[:0], 0
	}
	return row
}

// rotation is a FIFO of tenant IDs with queued jobs — the fair-dequeue
// cursor for one class.
type rotation struct {
	ids  []int32
	head int
}

func (r *rotation) empty() bool { return r.head == len(r.ids) }

func (r *rotation) push(id int32) { r.ids = append(r.ids, id) }

func (r *rotation) pop() int32 {
	id := r.ids[r.head]
	r.head++
	if r.head == len(r.ids) {
		r.ids, r.head = r.ids[:0], 0
	}
	return id
}

// jobRec is one job's lifecycle record, minus its state: that lives in the
// Gateway.states column under the same index.
type jobRec struct {
	job         Job
	submittedAt sim.Time
	// retryAt/attempts drive the per-job re-send backoff: a fixed sweep
	// period would re-send every outstanding admit in lockstep, and after a
	// long interregnum a large unacked set would hammer the recovering
	// primary with synchronized storms.
	retryAt  sim.Time
	attempts uint8
}

// Gateway is the submission front door. All methods must be called from the
// simulation goroutine.
type Gateway struct {
	cfg Config
	eng *sim.Engine
	net *transport.Net

	epID     transport.EndpointID // own endpoint
	masterID transport.EndpointID // the logical master endpoint

	// Tenants are interned: tenantTbl maps the identity string to a dense
	// ID and tenants is the slab those IDs index — one allocation per slab
	// growth instead of one per tenant, and the dequeue rotations carry
	// 4-byte IDs.
	tenantTbl ident.Table
	tenants   []tenant
	// Every job that kept a record has a row, a dense index issued in
	// submission order and held for the whole run (conservation checking
	// needs every row): recs holds the records 256 to a slab (record i is
	// recs[i/256][i%256], never moved), and states is the lifecycle column —
	// the only home of a job's state, so the once-a-second audit and
	// RegisteredOpen read one byte per job from a contiguous slice and never
	// touch the records. jobs maps every job ID ever filed to its row, and is
	// read once per submission, for the duplicate check: after that a job is
	// its row. Nothing reads the record of a job that reached a terminal
	// state (completed or shed): conservation counts the column and duplicate
	// detection the map. So a full slab is dropped once its last job is
	// terminal; unsettled counts, by slab, the records that are not.
	jobs      map[string]int32
	recs      [][]jobRec
	unsettled []uint16
	states    []State
	rot       [NumClasses]rotation

	queued   int // jobs in tenant queues
	inflight int // admitted + registered, not completed

	unacked []int32 // rows of admitted jobs awaiting JobAdmitAck, admit order
	seq     protocol.Sequencer
	epoch   int // highest master election epoch observed

	admLat obs.Dist

	// Streaming tallies; CheckConservation recomputes them from the state
	// column and flags any drift.
	submitted, admitted, registered, completed uint64
	dupSubmits                                 uint64
	shed                                       [4]uint64 // by DecisionKind - DecisionShedRateLimit
	cSub, cAdm, cReg, cComp                    [NumClasses]uint64
	cShed                                      [NumClasses][4]uint64
	retries, replays                           uint64
	sessions, sessionJobs                      uint64
	maxSessLen                                 uint32

	hash       uint64
	nDecisions uint64
	decisions  []Decision
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// New wires a gateway to the simulation: it registers the well-known
// GatewayEndpoint and starts the dequeue and retry timers. Zero values of
// the fields a gateway cannot function without — AdmitPeriod,
// AdmitPerRound, the class weights, Burst, and RetryEvery — take their
// DefaultLimits values. Zero RefillEvery, QueueCap, MaxQueued and
// MaxInFlight deliberately mean "disabled/unbounded" (tests and
// metamorphic harnesses rely on turning single limits off); start from
// DefaultLimits to get the bounded production posture.
func New(cfg Config, eng *sim.Engine, net *transport.Net) *Gateway {
	def := DefaultLimits()
	if cfg.AdmitPeriod <= 0 {
		cfg.AdmitPeriod = def.AdmitPeriod
	}
	if cfg.AdmitPerRound <= 0 {
		cfg.AdmitPerRound = def.AdmitPerRound
	}
	if cfg.ServiceWeight <= 0 {
		cfg.ServiceWeight = def.ServiceWeight
	}
	if cfg.BatchWeight <= 0 {
		cfg.BatchWeight = def.BatchWeight
	}
	if cfg.Burst <= 0 {
		cfg.Burst = def.Burst
	}
	if cfg.RetryEvery <= 0 {
		// The retry sweep is the safety net behind the hello-triggered
		// replay; running without one would strand an admit whose loss no
		// promotion follows.
		cfg.RetryEvery = def.RetryEvery
	}
	g := &Gateway{
		cfg:  cfg,
		eng:  eng,
		net:  net,
		jobs: make(map[string]int32),
		hash: fnvOffset,
	}
	g.epID = net.Register(protocol.GatewayEndpoint, g.handle)
	g.masterID = net.Endpoint(protocol.MasterEndpoint)
	eng.Every(cfg.AdmitPeriod, g.admitRound)
	eng.Every(cfg.RetryEvery, g.retrySweep)
	return g
}

// Submit runs the admission checks for one job and either queues it or
// sheds it with a reason. Checks run in a fixed order — duplicate ID,
// global backlog, tenant queue bound, token bucket — so the decision for a
// given submission history is deterministic; only the bucket check consumes
// a token. A tenant's priority class is part of its identity, fixed by the
// first submission: later jobs are normalized onto it (a tenant sits in
// exactly one class rotation, and per-class tallies must agree across the
// whole lifecycle).
func (g *Gateway) Submit(j Job) DecisionKind {
	now := g.eng.Now()
	tid := g.tenantTbl.Intern(j.Tenant)
	for int(tid) >= len(g.tenants) {
		g.tenants = append(g.tenants, tenant{})
	}
	tn := &g.tenants[tid]
	if tn.submitted == 0 && tn.last == 0 {
		*tn = tenant{class: j.Class, tokens: g.cfg.Burst, last: now}
	}
	j.Class = tn.class
	g.submitted++
	g.cSub[j.Class]++
	tn.submitted++
	if gap := g.cfg.SessionGap; gap > 0 {
		if tn.sessLen == 0 || now-tn.sessAt > gap {
			g.sessions++
			tn.sessLen = 0
		}
		tn.sessLen++
		g.sessionJobs++
		if tn.sessLen > g.maxSessLen {
			g.maxSessLen = tn.sessLen
		}
		tn.sessAt = now
	}
	if _, dup := g.jobs[j.ID]; dup {
		g.dupSubmits++
		return g.shedDecision(now, j, DecisionShedDuplicate, false)
	}
	if g.cfg.MaxQueued > 0 && g.queued >= g.cfg.MaxQueued {
		return g.shedDecision(now, j, DecisionShedBacklog, true)
	}
	if g.cfg.QueueCap > 0 && tn.qlen() >= g.cfg.QueueCap {
		return g.shedDecision(now, j, DecisionShedTenantQueue, true)
	}
	if g.cfg.RefillEvery > 0 {
		g.refill(tn, now)
		if tn.tokens <= 0 {
			return g.shedDecision(now, j, DecisionShedRateLimit, true)
		}
		tn.tokens--
	}
	tn.pushJob(g.newRec(j, StateQueued, now))
	g.queued++
	if !tn.active {
		tn.active = true
		g.rot[j.Class].push(tid)
	}
	g.record(now, j.ID, DecisionQueued)
	return DecisionQueued
}

// shedDecision records one rejected submission. Duplicates keep no job
// record (the ID already names another job).
func (g *Gateway) shedDecision(now sim.Time, j Job, kind DecisionKind, keep bool) DecisionKind {
	g.shed[kind-DecisionShedRateLimit]++
	g.cShed[j.Class][kind-DecisionShedRateLimit]++
	if keep {
		g.newRec(j, StateShed, now)
	}
	g.record(now, j.ID, kind)
	return kind
}

// recSlabSize is the number of lifecycle records per slab.
const recSlabSize = 256

// newRec files one job under the next row and returns it: a record carved
// out of the current slab, a cell in the state column, and the ID's entry in
// the duplicate table.
func (g *Gateway) newRec(j Job, st State, now sim.Time) int32 {
	i := len(g.states)
	k := i / recSlabSize
	if i%recSlabSize == 0 {
		g.recs = append(g.recs, make([]jobRec, recSlabSize))
		g.unsettled = append(g.unsettled, 0)
	}
	g.recs[k][i%recSlabSize] = jobRec{job: j, submittedAt: now}
	g.states = append(g.states, st)
	g.jobs[j.ID] = int32(i)
	if st != StateShed {
		g.unsettled[k]++
	}
	g.settle(k)
	return int32(i)
}

// settle drops slab k once it is full and every job in it is terminal.
func (g *Gateway) settle(k int) {
	if g.unsettled[k] == 0 && (k+1)*recSlabSize <= len(g.states) {
		g.recs[k] = nil
	}
}

// rec returns record i (stable while its job is not terminal: slabs never
// move, and only a slab of terminal jobs is dropped).
func (g *Gateway) rec(i int32) *jobRec { return &g.recs[i/recSlabSize][i%recSlabSize] }

// state returns the state of row i, ok false for a row the gateway never
// issued: a row that arrives in a message is input.
func (g *Gateway) state(i int32) (st State, ok bool) {
	if i < 0 || int(i) >= len(g.states) {
		return 0, false
	}
	return g.states[i], true
}

// refill advances a tenant's token bucket to now with integer arithmetic
// (whole refill periods only), so the bucket level is independent of how
// often it is inspected.
func (g *Gateway) refill(tn *tenant, now sim.Time) {
	if tn.tokens >= g.cfg.Burst {
		tn.last = now
		return
	}
	k := int64((now - tn.last) / g.cfg.RefillEvery)
	if k <= 0 {
		return
	}
	tn.tokens += k
	tn.last += sim.Time(k) * g.cfg.RefillEvery
	if tn.tokens >= g.cfg.Burst {
		tn.tokens = g.cfg.Burst
		tn.last = now
	}
}

// admitRound is the dequeue tick: release up to AdmitPerRound jobs,
// interleaving classes by weight (ServiceWeight pulls of service per
// BatchWeight pulls of batch while both have backlog) and rotating FIFO
// across tenants within a class, respecting the in-flight cap.
func (g *Gateway) admitRound() {
	budget := g.cfg.AdmitPerRound
	for budget > 0 {
		progressed := false
		for c := Class(0); c < NumClasses; c++ {
			w := g.cfg.ServiceWeight
			if c == ClassBatch {
				w = g.cfg.BatchWeight
			}
			for k := 0; k < w && budget > 0; k++ {
				if g.cfg.MaxInFlight > 0 && g.inflight >= g.cfg.MaxInFlight {
					return
				}
				if !g.admitOneFrom(c) {
					break
				}
				budget--
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// admitOneFrom dequeues one job from the class's tenant rotation, hands it
// to FuxiMaster, and re-files the tenant at the rotation tail if it still
// has backlog.
func (g *Gateway) admitOneFrom(c Class) bool {
	rot := &g.rot[c]
	for !rot.empty() {
		tid := rot.pop()
		tn := &g.tenants[tid]
		if tn.qlen() == 0 {
			tn.active = false
			continue
		}
		i := tn.popJob()
		g.queued--
		if tn.qlen() > 0 {
			rot.push(tid)
		} else {
			tn.active = false
		}
		g.states[i] = StateAdmitted
		tn.admitted++
		g.admitted++
		g.cAdm[c]++
		g.inflight++
		g.unacked = append(g.unacked, i)
		g.record(g.eng.Now(), g.rec(i).job.ID, DecisionAdmit)
		g.sendAdmit(i)
		return true
	}
	return false
}

// admitBackoffCap bounds the exponential re-send backoff, in multiples of
// RetryEvery (500 ms default base -> 4 s cap).
const admitBackoffCap = 8

// sendAdmit ships row i's JobAdmit and arms the job's next retry:
// exponential backoff from RetryEvery, capped at admitBackoffCap multiples,
// plus up to 25% jitter hashed from (job ID, attempt). The jitter must not
// come from the engine's random stream — retry timing would then perturb
// every other consumer's draws.
func (g *Gateway) sendAdmit(i int32) {
	rec := g.rec(i)
	if rec.attempts < 255 {
		rec.attempts++
	}
	d := g.cfg.RetryEvery
	for i := uint8(1); i < rec.attempts && d < admitBackoffCap*g.cfg.RetryEvery; i++ {
		d *= 2
	}
	if d > admitBackoffCap*g.cfg.RetryEvery {
		d = admitBackoffCap * g.cfg.RetryEvery
	}
	h := uint64(fnvOffset)
	for i := 0; i < len(rec.job.ID); i++ {
		h = (h ^ uint64(rec.job.ID[i])) * fnvPrime
	}
	h = (h ^ uint64(rec.attempts)) * fnvPrime
	rec.retryAt = g.eng.Now() + d + sim.Time(h%uint64(d/4+1))
	adm := transport.Acquire[protocol.JobAdmit](g.net)
	adm.JobID, adm.Row, adm.Tenant = rec.job.ID, i, rec.job.Tenant
	adm.Class, adm.QuotaGroup = uint8(rec.job.Class), rec.job.Class.QuotaGroup()
	adm.Seq = g.seq.Next()
	g.net.SendID(g.epID, g.masterID, adm)
}

// retrySweep re-sends outstanding JobAdmits that are due — the safety net
// for admits or acks lost without a master failover (e.g. sent into an
// interregnum). Each job backs off independently (see sendAdmit), so the
// sweep only ships the due subset. Acked entries are compacted out.
func (g *Gateway) retrySweep() { g.flushUnacked(false) }

func (g *Gateway) flushUnacked(replay bool) {
	now := g.eng.Now()
	w := 0
	for _, i := range g.unacked {
		if g.states[i] != StateAdmitted {
			continue
		}
		rec := g.rec(i)
		g.unacked[w] = i
		w++
		if replay {
			// A freshly-promoted primary: send regardless of schedule and
			// restart the backoff — the earlier attempts failed against a
			// dead master, which says nothing about the new one.
			rec.attempts = 0
			g.replays++
		} else {
			if now < rec.retryAt {
				continue
			}
			g.retries++
		}
		g.sendAdmit(i)
	}
	g.unacked = g.unacked[:w]
}

// handle receives master-bound traffic: admission acks and the promotion
// hello that triggers the failover replay.
func (g *Gateway) handle(from transport.EndpointID, msg transport.Message) {
	switch t := msg.(type) {
	case *protocol.JobAdmitAck: // pooled: valid until this returns
		if t.Epoch > g.epoch {
			g.epoch = t.Epoch
		}
		// The ack names its job by row and ID: the row finds the record, and
		// the ID — the one the admit carried — proves the row is that job's.
		i := t.Row
		if st, ok := g.state(i); !ok || st != StateAdmitted {
			return // duplicate ack (retry raced the original): already fired
		}
		rec := g.rec(i)
		if rec.job.ID != t.JobID {
			return // another job's row
		}
		g.states[i] = StateRegistered
		g.registered++
		g.cReg[rec.job.Class]++
		g.admLat.Observe(float64(g.eng.Now()-rec.submittedAt) / float64(sim.Millisecond))
		if g.cfg.OnRegistered != nil {
			g.cfg.OnRegistered(rec.job, i)
		}
	case protocol.JobAdmitAck:
		g.handle(from, &t) // value form (tests, scripted masters)
	case protocol.MasterHello:
		if t.Epoch > g.epoch {
			// A newly-promoted primary: replay every admitted-but-unacked
			// job immediately. The job state machine makes the replay
			// exactly-once on the registration side no matter how many
			// primaries end up acking.
			g.epoch = t.Epoch
			g.flushUnacked(true)
		}
	}
}

// JobCompleted releases the in-flight slot of the registered job at row i,
// the row OnRegistered handed out; the caller invokes it when the job's
// application master unregisters. It reports whether the transition was
// valid.
func (g *Gateway) JobCompleted(i int32) bool {
	if st, ok := g.state(i); !ok || st != StateRegistered {
		return false
	}
	g.states[i] = StateCompleted
	g.completed++
	g.cComp[g.rec(i).job.Class]++
	g.inflight--
	k := int(i) / recSlabSize
	g.unsettled[k]--
	g.settle(k)
	return true
}

// ShedTotal returns the cumulative shed count across every reason — an O(1)
// alloc-free read for the observability sampler (Snapshot materializes the
// full per-reason breakdown and allocates).
func (g *Gateway) ShedTotal() uint64 {
	var shed uint64
	for _, n := range g.shed {
		shed += n
	}
	return shed
}

// Drained reports whether every submission reached a terminal state
// (completed or shed) — the run-loop exit condition for open-loop drivers.
func (g *Gateway) Drained() bool {
	var shed uint64
	for _, n := range g.shed {
		shed += n
	}
	return g.queued == 0 && g.inflight == 0 && g.completed+shed == g.submitted
}

// MasterEpoch returns the highest election epoch observed in acks/hellos.
func (g *Gateway) MasterEpoch() int { return g.epoch }

// record appends one decision to the stream hash (FNV-1a over job ID,
// kind, and virtual time) and, when configured, to the in-memory stream.
func (g *Gateway) record(at sim.Time, jobID string, kind DecisionKind) {
	g.nDecisions++
	h := g.hash
	for i := 0; i < len(jobID); i++ {
		h = (h ^ uint64(jobID[i])) * fnvPrime
	}
	h = (h ^ uint64(kind)) * fnvPrime
	v := uint64(at)
	for i := 0; i < 8; i++ {
		h = (h ^ (v >> (8 * i) & 0xff)) * fnvPrime
	}
	g.hash = h
	if g.cfg.RecordDecisions {
		g.decisions = append(g.decisions, Decision{At: at, JobID: jobID, Kind: kind})
	}
}

// Decisions returns the recorded decision stream (nil unless
// Config.RecordDecisions).
func (g *Gateway) Decisions() []Decision { return g.decisions }

// DecisionHash returns the stream hash: byte-identical decision streams —
// same decisions, same order, same virtual times — have equal hashes.
func (g *Gateway) DecisionHash() uint64 { return g.hash }

// RegisteredOpen returns the sorted IDs of registered-but-uncompleted jobs,
// for the invariant checker's settled cross-check against the master.
func (g *Gateway) RegisteredOpen() []string {
	var out []string
	for i, st := range g.states {
		if st == StateRegistered {
			out = append(out, g.rec(int32(i)).job.ID)
		}
	}
	sort.Strings(out)
	return out
}

// ClassStats is one priority class's slice of the gateway tallies.
type ClassStats struct {
	Tenants         int     `json:"tenants"`
	Submitted       uint64  `json:"submitted"`
	Admitted        uint64  `json:"admitted"`
	Registered      uint64  `json:"registered"`
	Completed       uint64  `json:"completed"`
	ShedRateLimit   uint64  `json:"shed_rate_limit"`
	ShedTenantQueue uint64  `json:"shed_tenant_queue"`
	ShedBacklog     uint64  `json:"shed_backlog"`
	JainFairness    float64 `json:"jain_fairness"`
}

// Stats is the gateway's measurement snapshot, serialized as the `gateway`
// section of BENCH_scale.json.
type Stats struct {
	DistinctTenants int    `json:"distinct_tenants"`
	Submitted       uint64 `json:"submitted"`
	Queued          uint64 `json:"queued"`
	Admitted        uint64 `json:"admitted"`
	Registered      uint64 `json:"registered"`
	Completed       uint64 `json:"completed"`
	Shed            uint64 `json:"shed"`
	ShedRateLimit   uint64 `json:"shed_rate_limit"`
	ShedTenantQueue uint64 `json:"shed_tenant_queue"`
	ShedBacklog     uint64 `json:"shed_backlog"`
	ShedDuplicate   uint64 `json:"shed_duplicate,omitempty"`
	// ShedRate is shed / submitted.
	ShedRate float64 `json:"shed_rate"`
	// Admission latency is submit → registered, in virtual milliseconds.
	AdmissionMeanMS float64 `json:"admission_mean_ms"`
	AdmissionP50MS  float64 `json:"admission_p50_ms"`
	AdmissionP99MS  float64 `json:"admission_p99_ms"`
	AdmissionMaxMS  float64 `json:"admission_max_ms"`
	// AdmitRetries counts timer-driven JobAdmit re-sends; FailoverReplays
	// counts re-sends triggered by a promotion hello.
	AdmitRetries    uint64 `json:"admit_retries"`
	FailoverReplays uint64 `json:"failover_replays"`
	MasterEpoch     int    `json:"master_epoch"`
	// Decisions and DecisionHash pin the deterministic decision stream.
	Decisions    uint64 `json:"decisions"`
	DecisionHash string `json:"decision_hash"`
	// Burst-session shape measured at the front door (Limits.SessionGap
	// tracking): a tenant's consecutive submissions within the gap form one
	// session. Zero when tracking is off.
	Sessions       uint64  `json:"sessions,omitempty"`
	MeanSessionLen float64 `json:"mean_session_len,omitempty"`
	MaxSessionLen  int     `json:"max_session_len,omitempty"`

	Service ClassStats `json:"service"`
	Batch   ClassStats `json:"batch"`
}

// Snapshot computes the measurement snapshot, including each class's Jain
// fairness index over per-tenant admission shares (admitted/submitted in
// parts per thousand, integer-accumulated so the index is order-independent
// and deterministic).
func (g *Gateway) Snapshot() *Stats {
	var fair [NumClasses]jain
	var tenants [NumClasses]int
	for i := range g.tenants {
		tn := &g.tenants[i]
		if tn.submitted == 0 {
			continue
		}
		tenants[tn.class]++
		fair[tn.class].add(int64(tn.admitted) * 1000 / int64(tn.submitted))
	}
	class := func(c Class) ClassStats {
		return ClassStats{
			Tenants:         tenants[c],
			Submitted:       g.cSub[c],
			Admitted:        g.cAdm[c],
			Registered:      g.cReg[c],
			Completed:       g.cComp[c],
			ShedRateLimit:   g.cShed[c][0],
			ShedTenantQueue: g.cShed[c][1],
			ShedBacklog:     g.cShed[c][2],
			JainFairness:    fair[c].index(),
		}
	}
	s := &Stats{
		DistinctTenants: g.tenantTbl.Len(),
		Submitted:       g.submitted,
		Queued:          uint64(g.queued),
		Admitted:        g.admitted,
		Registered:      g.registered,
		Completed:       g.completed,
		ShedRateLimit:   g.shed[0],
		ShedTenantQueue: g.shed[1],
		ShedBacklog:     g.shed[2],
		ShedDuplicate:   g.shed[3],
		AdmissionMeanMS: g.admLat.Mean(),
		AdmissionP50MS:  g.admLat.Quantile(0.5),
		AdmissionP99MS:  g.admLat.Quantile(0.99),
		AdmissionMaxMS:  g.admLat.Max(),
		AdmitRetries:    g.retries,
		FailoverReplays: g.replays,
		MasterEpoch:     g.epoch,
		Decisions:       g.nDecisions,
		DecisionHash:    fmt.Sprintf("%016x", g.hash),
		Service:         class(ClassService),
		Batch:           class(ClassBatch),
	}
	s.Shed = s.ShedRateLimit + s.ShedTenantQueue + s.ShedBacklog + s.ShedDuplicate
	if s.Submitted > 0 {
		s.ShedRate = float64(s.Shed) / float64(s.Submitted)
	}
	if g.sessions > 0 {
		s.Sessions = g.sessions
		s.MeanSessionLen = float64(g.sessionJobs) / float64(g.sessions)
		s.MaxSessionLen = int(g.maxSessLen)
	}
	return s
}

// CheckConservation recomputes the lifecycle ledger from the state column
// (every job record, on every call) and returns every deviation from the
// streaming tallies — the gateway half of the admission-conservation
// invariant: a submission is never lost (each has exactly one record walking
// the lifecycle one way) and never duplicated (registration and completion
// fire at most once per job). With settled true — no control messages in
// flight and a primary alive — it additionally requires that no admitted job
// is stranded awaiting an acknowledgement: however many masters failed over,
// every admit reached a registration. (Queued and registered-but-running
// jobs are legitimate at a settled point; end-of-run drainage is the
// harness's Drained() exit condition, not an invariant.)
func (g *Gateway) CheckConservation(settled bool) []string {
	var bad []string
	// One pass over the state column: every record, every sweep. Tallies
	// are indexed by the whole byte, so a corrupted row is counted (and
	// reported below) rather than indexing out of range, and there are four
	// of them, interleaved: most consecutive rows hold the same state
	// (completed), and a single counter would serialize on its own
	// store-to-load latency (3.6x slower over 100k rows).
	var lanes [4][256]uint32
	rows := g.states
	for ; len(rows) >= 4; rows = rows[4:] {
		lanes[0][rows[0]]++
		lanes[1][rows[1]]++
		lanes[2][rows[2]]++
		lanes[3][rows[3]]++
	}
	for _, st := range rows {
		lanes[0][st]++
	}
	var byState [StateShed + 1]uint64
	var known uint64
	for st := range byState {
		for l := range lanes {
			byState[st] += uint64(lanes[l][st])
		}
		known += byState[st]
	}
	var shed uint64
	for _, n := range g.shed {
		shed += n
	}
	if len(g.states) != len(g.jobs) {
		bad = append(bad, fmt.Sprintf(
			"admission: %d state rows but %d job records: a state row was dropped or forged",
			len(g.states), len(g.jobs)))
	}
	if known != uint64(len(g.states)) {
		bad = append(bad, fmt.Sprintf(
			"admission: %d state rows hold no lifecycle state", uint64(len(g.states))-known))
	}
	if want := uint64(len(g.jobs)) + g.dupSubmits; g.submitted != want {
		bad = append(bad, fmt.Sprintf(
			"admission: %d submissions but %d job records (+%d duplicates): a submission was lost or forged",
			g.submitted, len(g.jobs), g.dupSubmits))
	}
	if byState[StateQueued] != uint64(g.queued) {
		bad = append(bad, fmt.Sprintf(
			"admission: %d jobs in queued state but backlog counter says %d",
			byState[StateQueued], g.queued))
	}
	if byState[StateShed]+g.dupSubmits != shed {
		bad = append(bad, fmt.Sprintf(
			"admission: %d shed records (+%d duplicates) but %d shed decisions",
			byState[StateShed], g.dupSubmits, shed))
	}
	if got := byState[StateAdmitted] + byState[StateRegistered]; got != uint64(g.inflight) {
		bad = append(bad, fmt.Sprintf(
			"admission: %d jobs in flight by state but counter says %d", got, g.inflight))
	}
	if got := byState[StateAdmitted] + byState[StateRegistered] + byState[StateCompleted]; got != g.admitted {
		bad = append(bad, fmt.Sprintf(
			"admission: %d jobs past admission but %d admit decisions: a job was admitted twice or lost",
			got, g.admitted))
	}
	if got := byState[StateRegistered] + byState[StateCompleted]; got != g.registered {
		bad = append(bad, fmt.Sprintf(
			"admission: %d jobs past registration but %d registrations fired: a job registered twice or was lost",
			got, g.registered))
	}
	if byState[StateCompleted] != g.completed {
		bad = append(bad, fmt.Sprintf(
			"admission: %d completed records but %d completions", byState[StateCompleted], g.completed))
	}
	var cs, ca, cr, cc uint64
	for c := 0; c < NumClasses; c++ {
		cs += g.cSub[c]
		ca += g.cAdm[c]
		cr += g.cReg[c]
		cc += g.cComp[c]
	}
	if cs != g.submitted || ca != g.admitted || cr != g.registered || cc != g.completed {
		bad = append(bad, "admission: per-class tallies disagree with totals")
	}
	if settled && byState[StateAdmitted] != 0 {
		bad = append(bad, fmt.Sprintf(
			"admission: settled with %d admitted jobs awaiting acknowledgement: admissions were lost",
			byState[StateAdmitted]))
	}
	sort.Strings(bad)
	return bad
}
