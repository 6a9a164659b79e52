// Package transport simulates the cluster network that carries Fuxi's
// control-plane messages. Delivery is asynchronous with configurable latency
// and optional loss/duplication injection, which is how the test suite
// exercises the incremental protocol's idempotency and full-state repair
// (paper §3.1: "we must ensure the idempotency of the handling of duplicated
// delta messages, which could happen as a result of temporary communication
// failure").
//
// Endpoints are interned: every endpoint name maps to a dense EndpointID at
// first sight (Register or Endpoint), and routing state — handlers, the
// down set, in-flight delivery records — is indexed by ID, not hashed by
// name. Senders resolve their peers once (at wiring/hello time, with
// Endpoint or Lookup) and send by ID with SendID/SendBatchID; nothing sends
// by name, so no send can intern a retired name again. Handlers receive the
// sender's EndpointID and can recover the name with Name when they need it at
// a boundary.
//
// Slots are recycled under a generation. An EndpointID is a slot and the
// slot's generation (ident.Tag). Unregister keeps a name's ID for a name
// that comes back (a crashed application master, a restarted agent daemon, a
// deposed master); Retire ends a name that never does (a finished application
// master, a finished worker): its slot's columns are cleared, its generation
// is bumped and the slot goes to the next new name. A message whose sender or
// receiver names a retired generation is dropped on arrival, the way one to
// an unregistered endpoint is, and is counted as sent, so a finished job's
// endpoint costs nothing and every table indexed by slot follows the
// endpoints open at once, not the endpoints ever named.
//
// Beyond the uniform loss/jitter knobs, the network carries scheduled
// per-link conditions for chaos campaigns (internal/faults NetworkPartition
// / LinkFlap / DelaySpike): Partition/Isolate/Heal split the endpoint set
// into unreachable groups, SetLinkDown flaps one endpoint's links without
// touching its SetDown crash state, SetLinkDelay adds a per-endpoint delay
// spike, and SetLinkRule installs per-(from,to) drop/dup/delay/jitter rules.
// All of it is evaluated only while some condition is active, so the clean
// hot path pays a single boolean check.
//
// Ordering contract: messages queued with separate SendID calls on the same
// (from,to) link deliver in send order ONLY when their delivery delays are
// equal — with Jitter (global, per-link rule, or a delay spike raised
// mid-flight) each message draws its own delay, so separate sends may
// reorder. SendBatchID is the exception: one batch is one wire
// unit with a single delay draw and a single delivery event, and its
// messages are handed to the receiver in order, always. Protocol code that
// needs FIFO within one instant must batch; everything else must tolerate
// reordering (the dedup/gap machinery in internal/protocol does).
//
// Message lifetime: a message that implements Recycled — a pointer to one of
// the protocol's ten pooled types (RegisterApp, DemandUpdate, GrantUpdate,
// UnregisterApp, UnregisterAck, CapacityDelta, JobAdmit, JobAdmitAck,
// FullDemandSync, AgentHeartbeat), drawn with Acquire —
// belongs to the network from the moment it is sent. It and its payload slices
// are valid until the receiving handler returns; then the network clears it
// (header fields and every payload element zeroed, payloads truncated with
// their capacity kept) and returns it to the free list the next Acquire draws
// from. A handler, or a Tap, that keeps anything past its own return copies
// it: a kept pointer or slice reads zeros at once instead of another message's
// contents later. The sender must not touch the message after the send either;
// a sender that drew a message and decides not to send it hands it back with
// Release. A message the network duplicated, or dropped at send time, is
// simply never recycled — the collector takes it — so nothing is released
// twice and nothing still queued is reused. Value messages are untouched by
// all of this: they are copied into the interface by the sender and shared by
// nobody.
package transport

import (
	"fmt"
	"sort"

	"repro/internal/ident"
	"repro/internal/sim"
)

// Message is any control-plane payload. Value payloads pass through the
// simulated network by value and senders must not retain mutable references;
// pointer payloads that implement Recycled are owned by the network (see the
// package comment).
type Message any

// Recycled is implemented by pointer messages that travel through a Net's
// free lists. Pool names the type's free list — a small dense integer, the
// same for every message of the type and callable on a nil pointer — and
// Clear zeroes the header and every payload element, then truncates the
// payloads, keeping their capacity for the next use.
type Recycled interface {
	Pool() int
	Clear()
}

// Acquire returns a cleared *T from the network's free list for T, or a new
// one when the list is empty. The caller fills it (appending into the payload
// slices, which keep their capacity across uses) and sends it; the network
// takes it back after the receiving handler returns.
func Acquire[T any, P interface {
	*T
	Recycled
}](n *Net) P {
	if id := P(nil).Pool(); id < len(n.free) {
		if l := n.free[id]; len(l) > 0 {
			m := l[len(l)-1]
			l[len(l)-1] = nil
			n.free[id] = l[:len(l)-1]
			return m.(P)
		}
	}
	return P(new(T))
}

// Release hands back a message drawn with Acquire that will never be sent: the
// network clears it and files it for reuse, as it does a delivered one. The
// caller must not touch it afterwards.
func (n *Net) Release(m Recycled) { n.recycle(m) }

// recycle clears a message whose one delivery is over and files it for reuse.
func (n *Net) recycle(m Recycled) {
	m.Clear()
	id := m.Pool()
	for id >= len(n.free) {
		n.free = append(n.free, nil)
	}
	n.free[id] = append(n.free[id], m)
}

// Sizer lets a message report its approximate wire size in bytes for the
// protocol-overhead ablation. Messages without Sizer count a nominal size.
type Sizer interface{ WireSize() int }

// EndpointID is the interned ID of one endpoint name on a Net: a dense slot,
// assigned in first-sight order or recycled from a retired name, and the
// slot's generation (ident.Tag). IDs are per-Net; None marks "no endpoint".
type EndpointID int32

// Slot returns the ID's slot: the index of the per-endpoint tables the
// network and its receivers keep, shared by the slot's generations.
func (id EndpointID) Slot() int32 { return ident.SlotOf(int32(id)) }

// None is the invalid EndpointID.
const None EndpointID = -1

// Handler receives messages addressed to an endpoint. from identifies the
// sending endpoint; Name(from) recovers its string name.
type Handler func(from EndpointID, msg Message)

// Stats aggregates traffic counters, used by the incremental-vs-full
// protocol ablation. Sent/Delivered/Dropped count logical messages; a
// batch of k messages counts k there but only one in Batches.
type Stats struct {
	Sent       uint64
	Delivered  uint64
	Dropped    uint64
	Duplicated uint64
	Bytes      uint64
	Batches    uint64
}

// LinkRule is a per-(from,to) network condition: extra drop/duplication
// probability, extra fixed delay, extra uniform jitter, and a hard cut.
// Rules compose with the global knobs (both are applied).
type LinkRule struct {
	Drop   float64
	Dup    float64
	Delay  sim.Time
	Jitter sim.Time
	Cut    bool
}

// LinkStat is one ordered endpoint pair's traffic counters, collected only
// while per-link stats are enabled (EnableLinkStats). Delayed counts
// messages that carried chaos-condition extra delay.
type LinkStat struct {
	From, To  string
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Delayed   uint64
}

// linkKey identifies one ordered endpoint pair.
type linkKey struct{ from, to EndpointID }

// linkCnt is the mutable counter cell behind one LinkStat.
type linkCnt struct{ sent, delivered, dropped, delayed uint64 }

// Net is the simulated network. All methods must be called from the
// simulation goroutine.
type Net struct {
	eng  *sim.Engine
	tbl  ident.Table // endpoint name -> slot
	eps  []Handler   // by slot; nil while unregistered
	dwn  []bool      // by slot
	gens []uint32    // by slot: how often it was retired (its generation)

	// Latency is the one-way base delivery latency; Jitter adds a uniform
	// random extra in [0, Jitter).
	Latency sim.Time
	Jitter  sim.Time
	// DropRate and DupRate are probabilities in [0,1) applied per message.
	DropRate float64
	DupRate  float64
	// Tap, when set, observes every send before routing — for traffic
	// accounting in experiments. It must not mutate the message, nor keep a
	// Recycled one past its own return (protocol.Keep copies).
	Tap func(from, to string, msg Message)

	stats Stats

	// Scheduled network conditions. side assigns endpoints to partition
	// groups (0 = in no group); isolate flags Isolate semantics (group 1 is
	// cut from everyone else) versus Partition semantics (groups 1 and 2 are
	// cut from each other, unassigned endpoints reach both). flapDown cuts
	// every link of one endpoint — a flapping NIC — without touching the
	// SetDown crash state, so link flaps and machine crashes compose.
	// linkDelay adds per-endpoint extra one-way delay (delay spikes); rules
	// holds per-(from,to) conditions. chaos caches whether any condition is
	// active: the clean hot path pays exactly one boolean check.
	side       []int8
	flapDown   []bool
	linkDelay  []sim.Time
	rules      map[linkKey]LinkRule
	partActive bool
	isolate    bool
	flapN      int
	delayN     int
	chaos      bool

	// Per-link counters, kept behind a flag so the hot path stays
	// alloc-free when nobody is attributing loss.
	linkStatsOn bool
	linkStats   map[linkKey]*linkCnt

	// batchPool recycles the in-flight []Message copies SendBatchID makes:
	// a batch's backing array returns to the pool after its delivery event
	// hands the messages to the receiver, so a steady stream of batches
	// reuses a small set of buffers instead of allocating one per batch.
	batchPool [][]Message
	// Deliveries ride the engine's closure-free Post path: deliverFn and
	// deliverRecycleFn are bound once and each in-flight message borrows a
	// pooled delivery record, so a warm network allocates nothing per send —
	// beyond the boxing of a value message; a Recycled pointer costs nothing
	// at all.
	deliverFn, deliverRecycleFn func(any)
	dpool                       []*delivery
	// free holds recycled pointer messages by Recycled.Pool: each list is as
	// long as the type's in-flight high-water mark, like dpool.
	free [][]Recycled
}

// delivery is one in-flight message (or batch) on the simulated wire.
type delivery struct {
	from, to EndpointID
	msg      Message
	batch    []Message
}

func (n *Net) getDelivery() *delivery {
	if k := len(n.dpool); k > 0 {
		d := n.dpool[k-1]
		n.dpool[k-1] = nil
		n.dpool = n.dpool[:k-1]
		return d
	}
	return &delivery{}
}

func (n *Net) putDelivery(d *delivery) {
	d.from, d.to, d.msg, d.batch = None, None, nil, nil
	n.dpool = append(n.dpool, d)
}

// NewNet returns a network attached to the engine with a default intra-
// datacenter latency of 200µs.
func NewNet(eng *sim.Engine) *Net {
	n := &Net{
		eng:     eng,
		Latency: 200 * sim.Microsecond,
	}
	n.deliverFn, n.deliverRecycleFn = n.deliver, n.deliverRecycle
	return n
}

// Endpoint interns an endpoint name, returning its ID: the name's while it
// is live, else a new one on a free slot (a retired name's, oldest first) or
// a new slot. Interning a name does not register a handler; messages to an
// unregistered ID are dropped on arrival exactly like before.
func (n *Net) Endpoint(name string) EndpointID {
	if name == "" {
		panic("transport: empty endpoint name")
	}
	s := n.tbl.Intern(name)
	if s >= 1<<ident.SlotBits {
		panic("transport: more live endpoints than an EndpointID has slots for")
	}
	for int(s) >= len(n.eps) {
		n.eps = append(n.eps, nil)
		n.dwn = append(n.dwn, false)
		n.gens = append(n.gens, 0)
		n.side = append(n.side, 0)
		n.flapDown = append(n.flapDown, false)
		n.linkDelay = append(n.linkDelay, 0)
	}
	return n.idOf(s)
}

// idOf returns the ID of slot's current generation.
func (n *Net) idOf(s int32) EndpointID { return EndpointID(ident.Tag(s, n.gens[s])) }

// at returns id's slot while id is the slot's current generation, and -1 for
// a retired generation, which sits in no partition group, flap or delay
// spike: the conditions of the slot belong to its current owner.
func (n *Net) at(id EndpointID) int32 {
	if s := id.Slot(); n.idOf(s) == id {
		return s
	}
	return -1
}

// Name returns the string name of an interned endpoint ID, and "" for a
// retired one: never the name of the slot's later owner.
func (n *Net) Name(id EndpointID) string {
	if s := n.at(id); s >= 0 {
		return n.tbl.Name(s)
	}
	return ""
}

// Lookup returns the ID of a live endpoint name, or None — the read-only
// counterpart of Endpoint for accessors that are handed a name and must not
// grow the table when it is unknown. A retired name is unknown.
func (n *Net) Lookup(name string) EndpointID {
	if s := n.tbl.ID(name); s >= 0 {
		return n.idOf(s)
	}
	return None
}

// Known reports whether some earlier call handed id out, live or since
// retired — the check a receiver makes before trusting an endpoint ID that
// arrived inside a message. A retired ID stays known: a capacity release that
// names a finished application master must still be applied, or it strands
// the capacity it releases. Once a slot's generation has wrapped, every
// generation of the slot counts as handed out.
func (n *Net) Known(id EndpointID) bool {
	s := id.Slot()
	if id < 0 || int(s) >= len(n.gens) {
		return false
	}
	g, gen := n.gens[s], ident.GenOf(int32(id))
	return g >= 1<<ident.GenBits || gen < g || (gen == g && n.tbl.Name(s) != "")
}

// Footprint returns how many endpoint slots the network keeps — the most
// endpoint names it ever held live at once — and how many names are interned
// and not retired now.
func (n *Net) Footprint() (slots, live int) { return len(n.eps), n.tbl.Live() }

// Register installs (or replaces) the handler for endpoint name and returns
// its EndpointID. Replacing is deliberate: a restarted component
// re-registers under its old name (and keeps its ID).
func (n *Net) Register(name string, h Handler) EndpointID {
	id := n.Endpoint(name)
	n.eps[id.Slot()] = h
	return id
}

// Unregister removes an endpoint's handler; in-flight messages to it are
// dropped on arrival. The name keeps its ID for re-registration.
func (n *Net) Unregister(name string) {
	if s := n.tbl.ID(name); s >= 0 {
		n.eps[s] = nil
	}
}

// Retire ends the endpoint id names, whose name never comes back: its
// handler and its conditions (down, partition group, flap, delay spike) are
// cleared, its generation is bumped and its slot goes to a later new name.
// It takes the ID its caller already keeps — an application master its own,
// a JobMaster's runtime each worker's — so retiring costs no lookup by name.
// Messages in flight to or from the retired ID are dropped on arrival, and
// the ID is still Known. Per-link rules and per-link stats are keyed by the
// full ID and stay as they are. Retiring an ID that is not live — never
// handed out, or retired already — does nothing.
func (n *Net) Retire(id EndpointID) {
	if id < 0 || int(id.Slot()) >= len(n.gens) {
		return
	}
	s := n.at(id)
	if s < 0 || n.tbl.Name(s) == "" {
		return
	}
	n.eps[s], n.dwn[s], n.side[s] = nil, false, 0
	if n.flapDown[s] {
		n.flapDown[s] = false
		n.flapN--
	}
	if n.linkDelay[s] > 0 {
		n.linkDelay[s] = 0
		n.delayN--
	}
	n.recomputeChaos()
	n.gens[s]++
	n.tbl.Release(s)
}

// Registered reports whether an endpoint currently has a handler.
func (n *Net) Registered(name string) bool {
	s := n.tbl.ID(name)
	return s >= 0 && n.eps[s] != nil
}

// SetDown marks an endpoint unreachable (both directions), simulating a
// machine halt or network disconnection. Messages to or from a down
// endpoint are silently dropped, like packets into a dead NIC.
func (n *Net) SetDown(name string, down bool) { n.dwn[n.Endpoint(name).Slot()] = down }

// IsDown reports whether the endpoint is marked unreachable.
func (n *Net) IsDown(name string) bool {
	s := n.tbl.ID(name)
	return s >= 0 && n.dwn[s]
}

// down reports whether id's endpoint is marked unreachable; a retired
// generation never is.
func (n *Net) down(id EndpointID) bool {
	s := id.Slot()
	return n.dwn[s] && n.idOf(s) == id
}

// Stats returns a copy of the traffic counters.
func (n *Net) Stats() Stats { return n.stats }

// ---------------------------------------------------------------------------
// Scheduled network conditions
// ---------------------------------------------------------------------------

// Partition splits the network into two groups that cannot reach each
// other: messages between a and b are dropped at send time, and messages
// already in flight across the cut are dropped at arrival (a partition
// starting mid-flight loses them, like a real wire). Endpoints in neither
// group keep connectivity to both sides — the asymmetric shape behind
// split-brain scenarios (master and standby cut from each other but both
// reachable from agents). A new Partition or Isolate replaces any earlier
// one; Heal clears it.
func (n *Net) Partition(a, b []string) {
	n.clearSides()
	for _, name := range a {
		n.side[n.Endpoint(name).Slot()] = 1
	}
	for _, name := range b {
		n.side[n.Endpoint(name).Slot()] = 2
	}
	n.partActive, n.isolate = true, false
	n.recomputeChaos()
}

// Isolate cuts the given endpoints off from everyone outside the group;
// links within the group stay up. This is the partition-storm shape: a rack
// or machine set drops off the control plane while the rest of the cluster
// keeps running. A new Partition or Isolate replaces any earlier one; Heal
// clears it.
func (n *Net) Isolate(group []string) {
	n.clearSides()
	for _, name := range group {
		n.side[n.Endpoint(name).Slot()] = 1
	}
	n.partActive, n.isolate = true, true
	n.recomputeChaos()
}

// Heal clears the active partition (only — link flaps, delay spikes, and
// per-link rules are separate conditions with their own clears).
func (n *Net) Heal() {
	n.clearSides()
	n.partActive = false
	n.recomputeChaos()
}

// Partitioned reports whether a partition is currently active.
func (n *Net) Partitioned() bool { return n.partActive }

func (n *Net) clearSides() {
	for i := range n.side {
		n.side[i] = 0
	}
}

// SetLinkDown cuts (or restores) every link of one endpoint — a flapping
// NIC. Distinct from SetDown, which models the machine itself halting, so a
// fault campaign's flaps never mask or clear a concurrent crash.
func (n *Net) SetLinkDown(name string, down bool) {
	s := n.Endpoint(name).Slot()
	if n.flapDown[s] == down {
		return
	}
	n.flapDown[s] = down
	if down {
		n.flapN++
	} else {
		n.flapN--
	}
	n.recomputeChaos()
}

// SetLinkDelay adds extra one-way delay to every message into or out of one
// endpoint — a delay spike. Zero clears it. The extra applies per message
// on top of Latency/Jitter; in-flight messages keep the delay they were
// queued with.
func (n *Net) SetLinkDelay(name string, extra sim.Time) {
	s := n.Endpoint(name).Slot()
	if (n.linkDelay[s] > 0) != (extra > 0) {
		if extra > 0 {
			n.delayN++
		} else {
			n.delayN--
		}
	}
	n.linkDelay[s] = extra
	n.recomputeChaos()
}

// SetLinkRule installs a per-(from,to) condition evaluated on top of the
// global knobs. A zero LinkRule clears the pair.
func (n *Net) SetLinkRule(from, to string, r LinkRule) {
	k := linkKey{n.Endpoint(from), n.Endpoint(to)}
	if r == (LinkRule{}) {
		delete(n.rules, k)
	} else {
		if n.rules == nil {
			n.rules = make(map[linkKey]LinkRule)
		}
		n.rules[k] = r
	}
	n.recomputeChaos()
}

// ClearConditions resets every scheduled condition — partition, flaps,
// delay spikes, and per-link rules — returning the network to clean state.
func (n *Net) ClearConditions() {
	n.clearSides()
	n.partActive = false
	for i := range n.flapDown {
		n.flapDown[i] = false
	}
	for i := range n.linkDelay {
		n.linkDelay[i] = 0
	}
	n.flapN, n.delayN = 0, 0
	n.rules = nil
	n.recomputeChaos()
}

func (n *Net) recomputeChaos() {
	n.chaos = n.partActive || n.flapN > 0 || n.delayN > 0 || len(n.rules) > 0
}

// cut reports whether the (from,to) link is severed by an active condition.
// Checked at send AND at arrival, so messages in flight when a partition or
// flap starts are lost with it.
func (n *Net) cut(from, to EndpointID) bool {
	fs, ts := n.at(from), n.at(to)
	if (fs >= 0 && n.flapDown[fs]) || (ts >= 0 && n.flapDown[ts]) {
		return true
	}
	if n.partActive {
		var a, b int8
		if fs >= 0 {
			a = n.side[fs]
		}
		if ts >= 0 {
			b = n.side[ts]
		}
		if n.isolate {
			if (a == 1) != (b == 1) {
				return true
			}
		} else if a != 0 && b != 0 && a != b {
			return true
		}
	}
	if len(n.rules) > 0 && n.rules[linkKey{from, to}].Cut {
		return true
	}
	return false
}

// linkCheck evaluates the active conditions for one message on (from,to):
// whether it is dropped, whether a per-link rule duplicates it, and how
// much extra one-way delay it carries. Called only while chaos is active;
// randomness is drawn only for the probabilistic rule fields.
func (n *Net) linkCheck(from, to EndpointID) (drop, dup bool, extra sim.Time) {
	if n.cut(from, to) {
		return true, false, 0
	}
	if s := n.at(from); s >= 0 {
		extra += n.linkDelay[s]
	}
	if s := n.at(to); s >= 0 {
		extra += n.linkDelay[s]
	}
	if len(n.rules) > 0 {
		if r, ok := n.rules[linkKey{from, to}]; ok {
			if r.Drop > 0 && n.eng.Rand().Float64() < r.Drop {
				return true, false, 0
			}
			extra += r.Delay
			if r.Jitter > 0 {
				extra += sim.Time(n.eng.Rand().Int63n(int64(r.Jitter)))
			}
			if r.Dup > 0 && n.eng.Rand().Float64() < r.Dup {
				dup = true
			}
		}
	}
	return false, dup, extra
}

// EnableLinkStats turns on per-link counters (sent/delivered/dropped/
// delayed per ordered endpoint pair). Off by default: the counters cost a
// map operation per message.
func (n *Net) EnableLinkStats() {
	n.linkStatsOn = true
	if n.linkStats == nil {
		n.linkStats = make(map[linkKey]*linkCnt)
	}
}

func (n *Net) linkCnt(from, to EndpointID) *linkCnt {
	k := linkKey{from, to}
	c := n.linkStats[k]
	if c == nil {
		c = &linkCnt{}
		n.linkStats[k] = c
	}
	return c
}

// LinkCountsID reads one ordered endpoint pair's counters without
// allocating — the form the observability sampler reads every scheduling
// round (LinkStats below materializes names and sorts; fine at run end,
// unusable on a zero-alloc record path). Zeroes when per-link stats are
// off or the pair has carried no traffic.
func (n *Net) LinkCountsID(from, to EndpointID) (sent, delivered, dropped, delayed uint64) {
	if c := n.linkStats[linkKey{from, to}]; c != nil {
		return c.sent, c.delivered, c.dropped, c.delayed
	}
	return 0, 0, 0, 0
}

// LinkStats returns the per-link counters sorted by (From, To) name — the
// deterministic loss-attribution view chaos runs surface. Nil unless
// EnableLinkStats was called.
func (n *Net) LinkStats() []LinkStat {
	if n.linkStats == nil {
		return nil
	}
	out := make([]LinkStat, 0, len(n.linkStats))
	for k, c := range n.linkStats {
		out = append(out, LinkStat{
			From: n.Name(k.from), To: n.Name(k.to),
			Sent: c.sent, Delivered: c.delivered, Dropped: c.dropped, Delayed: c.delayed,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// inspect reports a message's wire size and whether it is Recycled, in one
// interface switch: a value message pays for one lookup per send, as it did
// for its size alone, and nothing on arrival.
func inspect(msg Message) (size int, recycled bool) {
	switch m := msg.(type) {
	case Recycled:
		if s, ok := msg.(Sizer); ok {
			return s.WireSize(), true
		}
		return nominalSize, true
	case Sizer:
		return m.WireSize(), false
	}
	return nominalSize, false
}

// nominalSize is the header-ish size counted for messages without Sizer.
const nominalSize = 64

// SendID queues msg for asynchronous delivery from one interned endpoint to
// another. Delivery is dropped when either side is down, when the link is
// cut by an active partition/flap condition (at send or at arrival), when
// the destination is unregistered at arrival time, or by random loss
// injection (global or per-link rule).
func (n *Net) SendID(from, to EndpointID, msg Message) {
	if n.Tap != nil {
		n.Tap(n.Name(from), n.Name(to), msg)
	}
	size, recycled := inspect(msg)
	n.stats.Sent++
	n.stats.Bytes += uint64(size)
	if n.linkStatsOn {
		n.linkCnt(from, to).sent++
	}
	if n.down(from) || n.down(to) {
		n.dropped(from, to, 1)
		return
	}
	var extra sim.Time
	ruleDup := false
	if n.chaos {
		var drop bool
		drop, ruleDup, extra = n.linkCheck(from, to)
		if drop {
			n.dropped(from, to, 1)
			return
		}
	}
	if n.DropRate > 0 && n.eng.Rand().Float64() < n.DropRate {
		n.dropped(from, to, 1)
		return
	}
	d := n.wireDelay(from, to, extra, 1)
	if ruleDup || (n.DupRate > 0 && n.eng.Rand().Float64() < n.DupRate) {
		n.stats.Duplicated++
		n.post(d, n.deliverFn, from, to, msg, nil)
		n.post(n.wireDelay(from, to, extra, 1), n.deliverFn, from, to, msg, nil)
		return
	}
	n.post(d, n.landing(recycled), from, to, msg, nil)
}

// landing picks how a wire unit's only delivery lands: through
// deliverRecycleFn when it carries Recycled messages, which that delivery
// then returns to the free lists, through deliverFn otherwise. The two copies
// of a duplicated unit always land through deliverFn.
func (n *Net) landing(recycled bool) func(any) {
	if recycled {
		return n.deliverRecycleFn
	}
	return n.deliverFn
}

// dropped accounts count messages lost on (from,to).
func (n *Net) dropped(from, to EndpointID, count uint64) {
	n.stats.Dropped += count
	if n.linkStatsOn {
		n.linkCnt(from, to).dropped += count
	}
}

// SendBatchID queues msgs for delivery from one endpoint to another as a
// single wire unit: one scheduled delivery event, one latency/jitter draw,
// and one loss/duplication draw for the whole batch, with the messages
// handed to the receiver individually and in order on arrival: at 5,000
// machines a fan-out sent as batches costs the event queue one event per
// receiver instead of one per message. (FuxiMaster needs none: it rolls each
// step up into one message per receiver, the paper's "(M1,3), (M2,4)" form.)
func (n *Net) SendBatchID(from, to EndpointID, msgs []Message) {
	switch len(msgs) {
	case 0:
		return
	case 1:
		n.SendID(from, to, msgs[0])
		return
	}
	if n.Tap != nil {
		for _, msg := range msgs {
			n.Tap(n.Name(from), n.Name(to), msg)
		}
	}
	n.stats.Sent += uint64(len(msgs))
	n.stats.Batches++
	recycled := false
	for _, msg := range msgs {
		size, r := inspect(msg)
		n.stats.Bytes += uint64(size)
		recycled = recycled || r
	}
	if n.linkStatsOn {
		n.linkCnt(from, to).sent += uint64(len(msgs))
	}
	if n.down(from) || n.down(to) {
		n.dropped(from, to, uint64(len(msgs)))
		return
	}
	var extra sim.Time
	ruleDup := false
	if n.chaos {
		// One draw per batch, like the global knobs: a batch is one wire
		// unit, so per-link loss and delay apply to it as a whole.
		var drop bool
		drop, ruleDup, extra = n.linkCheck(from, to)
		if drop {
			n.dropped(from, to, uint64(len(msgs)))
			return
		}
	}
	if n.DropRate > 0 && n.eng.Rand().Float64() < n.DropRate {
		n.dropped(from, to, uint64(len(msgs)))
		return
	}
	// Senders may reuse msgs, so each delivery gets its own pooled copy
	// (returned to the pool once the receiver has consumed it).
	d := n.wireDelay(from, to, extra, uint64(len(msgs)))
	if ruleDup || (n.DupRate > 0 && n.eng.Rand().Float64() < n.DupRate) {
		n.stats.Duplicated += uint64(len(msgs))
		n.post(d, n.deliverFn, from, to, nil, n.copyBatch(msgs))
		n.post(n.wireDelay(from, to, extra, uint64(len(msgs))), n.deliverFn, from, to, nil, n.copyBatch(msgs))
		return
	}
	n.post(d, n.landing(recycled), from, to, nil, n.copyBatch(msgs))
}

// copyBatch snapshots msgs into a buffer drawn from the batch pool.
func (n *Net) copyBatch(msgs []Message) []Message {
	var batch []Message
	if k := len(n.batchPool); k > 0 {
		batch = n.batchPool[k-1][:0]
		n.batchPool[k-1] = nil
		n.batchPool = n.batchPool[:k-1]
	}
	return append(batch, msgs...)
}

// recycleBatch clears and returns a delivered batch buffer to the pool.
func (n *Net) recycleBatch(batch []Message) {
	for i := range batch {
		batch[i] = nil
	}
	n.batchPool = append(n.batchPool, batch[:0])
}

// wireDelay draws one wire unit's delivery delay — base latency, the chaos
// extra, uniform jitter — and accounts count messages as delayed when a
// condition stretched it.
func (n *Net) wireDelay(from, to EndpointID, extra sim.Time, count uint64) sim.Time {
	d := n.Latency + extra
	if n.Jitter > 0 {
		d += sim.Time(n.eng.Rand().Int63n(int64(n.Jitter)))
	}
	if extra > 0 && n.linkStatsOn {
		n.linkCnt(from, to).delayed += count
	}
	return d
}

// post queues one delivery of msg (or batch) d from now, landing through fn
// (see landing).
func (n *Net) post(d sim.Time, fn func(any), from, to EndpointID, msg Message, batch []Message) {
	rec := n.getDelivery()
	rec.from, rec.to, rec.msg, rec.batch = from, to, msg, batch
	n.eng.Post(d, fn, rec)
}

// deliver lands a delivery whose messages stay as they are; deliverRecycle
// one that is the only delivery of Recycled messages, which go back to the
// free lists once the handler has returned.
func (n *Net) deliver(a any)        { n.land(a.(*delivery), false) }
func (n *Net) deliverRecycle(a any) { n.land(a.(*delivery), true) }

// land is the arrival half of SendID/SendBatchID. The down and cut checks repeat
// here — an endpoint that crashed, or a partition that started, after the
// message was queued still loses it — and so does the generation fence: a
// message to or from a retired ID is lost like one to an unregistered
// endpoint, never handed to the slot's later owner.
func (n *Net) land(rec *delivery, recycle bool) {
	from, to := rec.from, rec.to
	count := uint64(1)
	if rec.batch != nil {
		count = uint64(len(rec.batch))
	}
	var h Handler
	fs, ts := n.at(from), n.at(to)
	if fs >= 0 && ts >= 0 {
		h = n.eps[ts]
	}
	if h == nil || n.dwn[ts] || n.dwn[fs] || (n.chaos && n.cut(from, to)) {
		n.dropped(from, to, count)
	} else {
		n.stats.Delivered += count
		if n.linkStatsOn {
			n.linkCnt(from, to).delivered += count
		}
		if rec.batch != nil {
			for _, msg := range rec.batch {
				h(from, msg)
			}
		} else {
			h(from, rec.msg)
		}
	}
	// Delivered or lost on arrival, the record is done with its messages.
	if rec.batch != nil {
		if recycle {
			for _, msg := range rec.batch {
				if m, ok := msg.(Recycled); ok {
					n.recycle(m)
				}
			}
		}
		n.recycleBatch(rec.batch)
	} else if recycle {
		n.recycle(rec.msg.(Recycled))
	}
	n.putDelivery(rec)
}

// String summarizes traffic for logs.
func (s Stats) String() string {
	return fmt.Sprintf("sent=%d delivered=%d dropped=%d dup=%d bytes=%d",
		s.Sent, s.Delivered, s.Dropped, s.Duplicated, s.Bytes)
}
