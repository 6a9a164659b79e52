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
//     endpoint name at first sight and never reuses it, every handler already
//     receives its peer's as `from`, and it outlives any process: it is how
//     capacity deltas, capacity syncs and heartbeat allocation tables name an
//     application (an application master's endpoint is named after the app),
//     and how FuxiMaster finds the sender's state without hashing its name.
//   - Scheduler app IDs (master.Scheduler's own Table) are process-local. A
//     promoted master interns the checkpointed apps afresh, in a different
//     order; such an ID never leaves the scheduler that assigned it. The same
//     goes for any other Table a single component owns.
//
// No ID of any kind appears in durable state: checkpoints store names.
//
// Determinism: ID assignment depends only on the order of Intern calls,
// never on map iteration, so a seeded run re-interns identically.
package ident

// None is the sentinel returned by ID for unknown names.
const None int32 = -1

// Table is a deterministic string↔dense-ID intern table. The zero value is
// ready to use. Not safe for concurrent mutation; concurrent read-only use
// (Name, ID, Len) is safe once no more Intern calls happen.
type Table struct {
	ids   map[string]int32
	names []string
}

// Intern returns the ID for name, assigning the next dense ID (starting at
// 0, in call order) on first sight.
func (t *Table) Intern(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	id := int32(len(t.names))
	t.ids[name] = id
	t.names = append(t.names, name)
	return id
}

// ID returns the ID for name, or None if it was never interned.
func (t *Table) ID(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	return None
}

// Name returns the name for id. It panics on out-of-range IDs, exactly like
// a slice index — an invalid ID is a programming error, not input.
func (t *Table) Name(id int32) string { return t.names[id] }

// Len returns the number of interned names; valid IDs are [0, Len).
func (t *Table) Len() int { return len(t.names) }

// Names returns the interned names in ID order. The caller must not modify
// the returned slice.
func (t *Table) Names() []string { return t.names }
