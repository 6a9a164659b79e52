// Package ident provides string interning for the control plane's hot
// paths: a Table maps names (machines, racks, applications, transport
// endpoints, tenants) to dense integer IDs assigned in registration order,
// so steady-state code indexes slices instead of hashing strings.
//
// The boundary rule the repo follows: names exist at the edges — wire
// serialization of messages that introduce a name, checkpoints, logs, public
// APIs — and are resolved to IDs exactly once, at registration / session-hello
// time. Everything inside a component's hot loop (free pools, wait queues,
// ledgers, dedup tables) is keyed by the dense ID, and keyed means indexed:
// a slice, or a compact table such as internal/dense's, not a map[id].
//
// Which integers may cross the simulated wire, and which may not:
//
//   - Topology machine and rack IDs are wire-safe. Every process derives them
//     from the same sorted machine list, so an ID means the same machine to
//     all of them, in every master epoch. Grants, returns, heartbeats and
//     capacity queries carry them.
//   - Transport endpoint IDs are wire-safe. The network hands one out per
//     endpoint name at first sight, every handler already receives its peer's
//     as `from`, and it outlives any process that stops and comes back under
//     its name: it is how capacity deltas, capacity syncs and heartbeat
//     allocation tables name an application (an application master's endpoint
//     is named after the app), and how FuxiMaster finds the sender's state
//     without hashing its name. A name that never comes back (a finished
//     application master) gives its slot up for reuse, so the ID is a
//     generational one (Tag): the slot in the low SlotBits, the slot's
//     generation above it. A late message naming an old generation is
//     fenced by the network, the way an epoch fences a deposed master, and a
//     table indexed by the slot (SlotOf) stays as long as the live endpoints,
//     not the endpoints ever named.
//   - Scheduler app IDs are process-local. master.Scheduler takes them from
//     its own Slots, not a Table: it keeps one index by app name beside the
//     ID, and a Slots hands out exactly the IDs a Table would (the oldest
//     freed first), without a second map behind them. A promoted master
//     registers the checkpointed apps afresh, in a different order, and an
//     unregistered app's ID goes to the next app registered; such an ID never
//     leaves the scheduler that assigned it, beyond the decisions it emits
//     for its own master's fan-out. The same goes for any other Table or
//     Slots a single component owns.
//   - Gateway rows are process-local too: the gateway files each submission
//     under the next row, and the JobAdmit to FuxiMaster and its ack carry
//     it back, beside the job's name, to the gateway that issued it.
//
// No ID of any kind appears in durable state: checkpoints store names. The
// checkpoint writer keys its in-memory view by endpoint ID, and a promotion
// binds those keys afresh from the names it loads.
//
// Determinism: ID assignment depends only on the order of Intern and Release
// calls, never on map iteration, so a seeded run re-interns identically.
package ident

// None is the sentinel returned by ID for unknown names.
const None int32 = -1

// Slots hands out dense IDs that have no names behind them: the oldest
// released ID when there is one, else the next dense ID (starting at 0, in
// call order) — exactly the IDs a Table would give the same sequence of
// Intern and Release calls. An owner that keeps its own index from names to
// what it files under the ID (or needs none) takes its IDs from here and
// pays for one index, not two. The zero value is ready to use. Free of an ID
// that is not in use corrupts the order: the owner knows which are.
type Slots struct {
	n int32 // IDs handed out ever: valid IDs are [0, n)
	// free lists the released IDs in release order; free[head:] are the ones
	// not yet reused.
	free []int32
	head int
}

// Alloc returns an ID not in use: the oldest released one, else a new one.
func (s *Slots) Alloc() int32 {
	if s.head < len(s.free) {
		id := s.free[s.head]
		s.head++
		if s.head == len(s.free) {
			s.free, s.head = s.free[:0], 0
		}
		return id
	}
	s.n++
	return s.n - 1
}

// Free hands id, which must be in use, to a later Alloc.
func (s *Slots) Free(id int32) {
	if s.head > 0 && s.head >= len(s.free)/2 {
		// The reused prefix is at least half the list: slide the rest down so
		// the list stays as long as the IDs waiting in it.
		n := copy(s.free, s.free[s.head:])
		s.free, s.head = s.free[:n], 0
	}
	s.free = append(s.free, id)
}

// Len returns the number of IDs in use or released; valid IDs are [0, Len).
// It is the most IDs ever in use at once.
func (s *Slots) Len() int { return int(s.n) }

// Table is a deterministic string↔dense-ID intern table. The zero value is
// ready to use. Not safe for concurrent mutation; concurrent read-only use
// (Name, ID, Len) is safe once no more Intern calls happen.
//
// Release gives a name's ID back: the name is forgotten and the ID goes to a
// later Intern of another name, oldest release first (its IDs come from a
// Slots). A table whose names come and go therefore holds as many IDs as
// were ever live at once.
type Table struct {
	ids   map[string]int32
	names []string // by ID; "" for a released ID not yet reused
	slots Slots
}

// Intern returns the ID for name, assigning one on first sight: the oldest
// released ID when there is one, else the next dense ID (starting at 0, in
// call order).
func (t *Table) Intern(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	id := t.slots.Alloc()
	if int(id) == len(t.names) {
		t.names = append(t.names, name)
	} else {
		t.names[id] = name
	}
	t.ids[name] = id
	return id
}

// Release forgets the name of id and hands id to a later Intern. Releasing a
// released ID does nothing.
func (t *Table) Release(id int32) {
	name := t.names[id]
	if cur, ok := t.ids[name]; !ok || cur != id {
		return
	}
	delete(t.ids, name)
	t.names[id] = ""
	t.slots.Free(id)
}

// ID returns the ID for name, or None if it is not interned (never, or no
// longer).
func (t *Table) ID(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	return None
}

// Name returns the name for id, "" for a released one. It panics on
// out-of-range IDs, exactly like a slice index — an invalid ID is a
// programming error, not input.
func (t *Table) Name(id int32) string { return t.names[id] }

// Len returns the number of IDs in use or released; valid IDs are [0, Len).
// It is the most names the table ever held at once.
func (t *Table) Len() int { return len(t.names) }

// Live returns the number of names interned now.
func (t *Table) Live() int { return len(t.ids) }

// Generational IDs: an owner that hands a Table's IDs to parties it cannot
// call back (the network's endpoint IDs travel inside messages) tags each
// with its slot's generation, which it bumps whenever it releases the slot.
// The tagged ID stays a non-negative int32: the slot in the low SlotBits, the
// generation's low GenBits above it. A generation wraps after 1<<GenBits
// releases of one slot, so an ID is told from its slot's later owners as
// long as the slot is not recycled that often while the ID is still in use;
// with Table's oldest-first reuse that takes 1<<GenBits times as many
// releases as there are free slots.
const (
	SlotBits = 20
	GenBits  = 31 - SlotBits
	slotMask = 1<<SlotBits - 1
	genMask  = 1<<GenBits - 1
)

// Tag returns the generational ID of slot at generation gen (gen's low GenBits).
func Tag(slot int32, gen uint32) int32 { return int32(gen&genMask)<<SlotBits | slot }

// SlotOf returns the slot of a generational ID.
func SlotOf(id int32) int32 { return id & slotMask }

// GenOf returns the generation bits of a generational ID.
func GenOf(id int32) uint32 { return uint32(id) >> SlotBits }
