package master

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/resource"
	"repro/internal/transport"
)

// AppConfig is the hard-state record of one application: exactly the
// information the paper says must survive a FuxiMaster crash ("only hard
// states like job description need to be recorded"). Everything else —
// demand, grants, free pool — is soft state recollected from live peers.
type AppConfig struct {
	Name  string
	Group string
	Units []resource.ScheduleUnit
}

// Snapshot is one durable checkpoint image.
type Snapshot struct {
	Epoch     int
	Apps      []AppConfig
	Blacklist []BlacklistEntry
}

// BlacklistEntry is one machine on the cluster blacklist: its name and the
// pins (pinVotes, pinFlap) that hold it there, none when its health score
// alone listed it.
type BlacklistEntry struct {
	Machine string
	Pins    uint8
}

// defaultCompactEvery bounds the delta log between anchors. Promotion
// replays at most this many records over the anchor, and anchor cost is
// amortized over this many churn-proportional deltas.
const defaultCompactEvery = 256

// CheckpointStore models the durable storage shared by the hot-standby
// FuxiMaster pair. Writes happen only on job submission/stop and blacklist
// changes — the paper's "light-weighted checkpoint" that avoids bookkeeping
// on the scheduling fast path.
//
// Durably, the store is a delta log: every mutation appends one compact
// delta record (encoding only what changed), and after defaultCompactEvery
// records the log is compacted into a full anchor snapshot. Checkpoint bytes
// therefore scale with churn — jobs arriving and stopping — rather than
// with the amount of state a full snapshot would re-encode on every write.
// A promotion replays anchor+deltas (Load).
//
// The writer's own view exists only to encode the next anchor, and it is
// kept already encoded: a slot table in insertion order whose live slots
// each name the appendApp bytes SaveApp wrote into the delta log, copied
// once into an arena. An anchor is then header + the live slots' bytes +
// the blacklist section, with no AppConfig retained and nothing re-encoded,
// so what a write costs does not depend on how many other applications are
// live: RemoveApp tombstones its slot, and tombstones are squeezed out
// (order-preserving) once they outnumber the live slots.
//
// The writer finds an application's slot by its key, the transport endpoint
// ID of its application master, which FuxiMaster holds for every message it
// handles: SaveAppAt binds the key, and at promotion Bind keys every loaded
// application afresh. Durable bytes carry names only; the key never leaves
// the process. A record FuxiMaster's scheduler refused (and one saved by a
// caller that holds no endpoint, SaveApp) is unkeyed and found by name, in a
// scan; the keyed calls fall back to that scan only while unkeyed records
// exist, so a store whose every record is keyed never compares a name.
type CheckpointStore struct {
	epoch int
	// slots is the application table in insertion order, tombstones
	// included; dead counts tombstones. bySlot finds a live application by
	// its key's endpoint slot: bySlot[ep.Slot()] is its index in slots (-1
	// for none), the key itself when slots[i].ep == ep. unkeyed counts the
	// live slots saved by name only (ep None).
	slots   []ckptSlot
	bySlot  []int32
	dead    int
	unkeyed int
	// arena holds the slots' encoded records; liveBytes is the part live
	// slots reference (the rest is garbage left by removes and replaces,
	// reclaimed by squeeze into spare).
	arena, spare []byte
	liveBytes    int
	// blk is the encoded blacklist section (count, then entries) — the
	// payload of the last opSetBlacklist record, which is also exactly the
	// anchor's blacklist section.
	blk []byte

	anchor  []byte // last compacted full snapshot (nil = the empty snapshot)
	log     []byte // delta records appended since the anchor
	logRecs int    // records currently in log
	// anchorSpare is the other half of the double-buffered anchor: a
	// compaction builds into it and swaps, so the previous anchor stays
	// intact until the new one is complete and neither is reallocated.
	anchorSpare []byte

	// Writes counts checkpoint mutations, demonstrating in tests that the
	// fast path never touches the store. BlacklistWrites is the subset from
	// SetBlacklist: blacklist churn is hard state on its own cadence
	// (bounded by report/flap/decay periods, not by scheduling volume), so
	// write-budget checks allot it a cap derived from the failure events a
	// scenario injects rather than from scheduling volume.
	Writes          int
	BlacklistWrites int

	// DeltaBytes and AnchorBytes split the bytes written to durable
	// storage between delta records and compaction anchors; Bytes() is
	// their sum and what CheckCheckpointBytes budgets. Compactions counts
	// anchor writes.
	DeltaBytes  int64
	AnchorBytes int64
	Compactions int

	// compactEvery is the anchor cadence (records between anchors):
	// defaultCompactEvery, and lower only in this package's tests, which
	// need anchors after a handful of writes.
	compactEvery int

	// FullBytes accumulates what the same write sequence would have cost
	// under the pre-delta codec (a full EncodeSnapshot per write) — the
	// counterfactual behind the obs section's checkpoint-savings report. The
	// size of that snapshot follows from the running byte totals, so keeping
	// it costs a few additions per write.
	FullBytes int64
}

// ckptSlot is one application's place in the writer's view: arena[off:off+n]
// is its appendApp encoding, ep its key. n == 0 marks a tombstone (an encoded
// record is never empty).
type ckptSlot struct {
	name   string
	ep     transport.EndpointID
	off, n int
}

// NewCheckpointStore returns an empty store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{blk: []byte{0}, compactEvery: defaultCompactEvery}
}

// Bytes returns the total bytes written to durable storage (deltas plus
// anchors) — the quantity the CheckCheckpointBytes invariant budgets.
func (c *CheckpointStore) Bytes() int64 { return c.DeltaBytes + c.AnchorBytes }

// CompactionCadence returns the anchor cadence, the records written between
// anchors. Byte-budget formulas use it.
func (c *CheckpointStore) CompactionCadence() int { return c.compactEvery }

// wrote accounts one appended delta record and runs the compaction policy.
func (c *CheckpointStore) wrote(recStart int) {
	c.DeltaBytes += int64(len(c.log) - recStart)
	c.logRecs++
	c.Writes++
	c.FullBytes += int64(c.snapshotSize())
	if c.logRecs >= c.CompactionCadence() {
		c.compact()
	}
}

// live returns the number of applications in the writer's view.
func (c *CheckpointStore) live() int { return len(c.slots) - c.dead }

// snapshotSize is len(EncodeSnapshot(view)) without encoding anything.
func (c *CheckpointStore) snapshotSize() int {
	return 1 + uvarintLen(uint64(c.epoch)) + uvarintLen(uint64(c.live())) + c.liveBytes + len(c.blk)
}

// compact folds the delta log into a fresh full anchor snapshot — byte for
// byte what EncodeSnapshot produces for the writer's view.
func (c *CheckpointStore) compact() {
	b := growBytes(c.anchorSpare[:0], c.snapshotSize())
	b = append(b, snapshotVersion)
	b = binary.AppendUvarint(b, uint64(c.epoch))
	b = binary.AppendUvarint(b, uint64(c.live()))
	for i := range c.slots {
		s := &c.slots[i]
		b = append(b, c.arena[s.off:s.off+s.n]...)
	}
	b = append(b, c.blk...)
	c.anchorSpare, c.anchor = c.anchor, b
	c.AnchorBytes += int64(len(b))
	c.log = c.log[:0]
	c.logRecs = 0
	c.Compactions++
}

// squeeze drops the tombstones and the arena garbage, preserving order.
func (c *CheckpointStore) squeeze() {
	arena := growBytes(c.spare[:0], c.liveBytes)
	w := 0
	for i, s := range c.slots {
		if s.n == 0 {
			continue
		}
		off := len(arena)
		arena = append(arena, c.arena[s.off:s.off+s.n]...)
		c.slots[w] = ckptSlot{name: s.name, ep: s.ep, off: off, n: s.n}
		if w != i && s.ep != transport.None {
			c.bySlot[s.ep.Slot()] = int32(w)
		}
		w++
	}
	for i := w; i < len(c.slots); i++ {
		c.slots[i] = ckptSlot{}
	}
	c.slots, c.dead = c.slots[:w], 0
	c.arena, c.spare = arena, c.arena
}

// BumpEpoch increments and returns the election epoch (durable so a third
// promotion is distinguishable from the second).
func (c *CheckpointStore) BumpEpoch() int {
	c.epoch++
	start := len(c.log)
	c.log = append(c.log, opBumpEpoch)
	c.log = binary.AppendUvarint(c.log, uint64(c.epoch))
	c.wrote(start)
	return c.epoch
}

// SaveAppAt records the configuration of the application whose master
// listens at ep, replacing its record in place when ep already keys one.
// Only its encoding is kept: the caller's AppConfig (and its Units slice) is
// not retained.
func (c *CheckpointStore) SaveAppAt(ep transport.EndpointID, a AppConfig) {
	i := c.find(ep)
	if i < 0 && c.unkeyed > 0 {
		if i = c.named(a.Name); i >= 0 {
			c.key(i, ep)
		}
	}
	c.save(i, ep, a)
}

// SaveApp is SaveAppAt for a caller that holds no endpoint: the record is
// found by name, in a scan, and a new one is unkeyed until a promotion binds
// it.
func (c *CheckpointStore) SaveApp(a AppConfig) { c.save(c.named(a.Name), transport.None, a) }

// save writes a's record into slot i, or into a new slot keyed ep when i < 0.
func (c *CheckpointStore) save(i int, ep transport.EndpointID, a AppConfig) {
	start := len(c.log)
	c.log = append(c.log, opSaveApp)
	c.log = appendApp(c.log, a)
	rec := c.log[start+1:]
	if i < 0 {
		i = len(c.slots)
		c.slots = append(c.slots, ckptSlot{name: a.Name, ep: transport.None})
		c.unkeyed++
		c.key(i, ep)
	}
	s := &c.slots[i]
	c.liveBytes += len(rec) - s.n
	s.off, s.n = len(c.arena), len(rec)
	c.arena = append(growBytes(c.arena, len(rec)), rec...)
	c.reclaim()
	c.wrote(start)
}

// RemoveAppAt deletes the record of the application whose master listens at
// ep (job stopped); name is the application's, for an unkeyed record (ep
// None: the app is not registered).
func (c *CheckpointStore) RemoveAppAt(ep transport.EndpointID, name string) {
	i := c.find(ep)
	if i < 0 && c.unkeyed > 0 {
		i = c.named(name)
	}
	c.remove(i)
}

// RemoveApp is RemoveAppAt for a caller that holds no endpoint: the record
// is found by name, in a scan.
func (c *CheckpointStore) RemoveApp(name string) { c.remove(c.named(name)) }

// remove tombstones live slot i and logs its removal; i < 0 does nothing.
func (c *CheckpointStore) remove(i int) {
	if i < 0 {
		return
	}
	s := c.slots[i]
	c.unkey(i)
	c.unkeyed--
	c.liveBytes -= s.n
	c.slots[i] = ckptSlot{ep: transport.None}
	c.dead++
	c.reclaim()
	start := len(c.log)
	c.log = append(c.log, opRemoveApp)
	c.log = appendString(c.log, s.name)
	c.wrote(start)
}

// find returns the live slot keyed ep, -1 when none is.
func (c *CheckpointStore) find(ep transport.EndpointID) int {
	if ep >= 0 && int(ep.Slot()) < len(c.bySlot) {
		if i := c.bySlot[ep.Slot()]; i >= 0 && c.slots[i].ep == ep {
			return int(i)
		}
	}
	return -1
}

// named returns the live slot of the application called name, -1 when none
// is: a scan, for the callers that hold no key.
func (c *CheckpointStore) named(name string) int {
	for i := range c.slots {
		if s := &c.slots[i]; s.n > 0 && s.name == name {
			return i
		}
	}
	return -1
}

// key makes ep the key of live slot i; None leaves it unkeyed. A slot that
// another generation of the endpoint keyed (its application master gave up,
// and the endpoint slot went to another name) is left to the name scan.
func (c *CheckpointStore) key(i int, ep transport.EndpointID) {
	c.unkey(i)
	if ep == transport.None {
		return
	}
	k := ep.Slot()
	for int(k) >= len(c.bySlot) {
		c.bySlot = append(c.bySlot, -1)
	}
	if j := c.bySlot[k]; j >= 0 {
		c.unkey(int(j))
	}
	c.bySlot[k] = int32(i)
	c.slots[i].ep = ep
	c.unkeyed--
}

// unkey drops live slot i's key, if it has one.
func (c *CheckpointStore) unkey(i int) {
	s := &c.slots[i]
	if s.ep == transport.None {
		return
	}
	c.bySlot[s.ep.Slot()] = -1
	s.ep = transport.None
	c.unkeyed++
}

// Bind keys the writer's view afresh after a promotion loaded it: the k-th
// loaded application, apps[k], listens at eps[k] (None leaves it unkeyed).
// The view holds the loaded applications in load order, so it is one pass;
// it panics when the two disagree, which only a bug can make them do.
func (c *CheckpointStore) Bind(apps []AppConfig, eps []transport.EndpointID) {
	k := 0
	for i := range c.slots {
		if c.slots[i].n == 0 {
			continue
		}
		if k >= len(apps) || apps[k].Name != c.slots[i].name {
			panic("master: checkpoint view does not match the snapshot loaded from it")
		}
		c.key(i, eps[k])
		k++
	}
	if k != len(apps) {
		panic("master: checkpoint view does not match the snapshot loaded from it")
	}
}

// reclaim squeezes once tombstones outnumber live slots or garbage outweighs
// live bytes, so the view stays within a constant factor of what is live and
// each squeeze is paid for by the removes and replaces that preceded it.
func (c *CheckpointStore) reclaim() {
	if c.dead > c.live() || len(c.arena) > 2*c.liveBytes+ckptArenaSlack {
		c.squeeze()
	}
}

// ckptArenaSlack keeps a small store from squeezing on every replace.
const ckptArenaSlack = 4096

// SetBlacklist replaces the persisted cluster blacklist.
func (c *CheckpointStore) SetBlacklist(machines []BlacklistEntry) {
	start := len(c.log)
	c.log = append(c.log, opSetBlacklist)
	c.log = appendBlacklist(c.log, machines)
	c.blk = append(c.blk[:0], c.log[start+1:]...)
	c.wrote(start)
	c.BlacklistWrites++
}

// Load rebuilds the current snapshot the way a promotion must: decode the
// anchor and replay the delta records appended since — durable bytes only,
// never the writer's in-memory view. The byte path both models the
// durable-storage read and guarantees the serialization boundary carries
// names only: no interned ID ever reaches (or is read from) durable state,
// because the format cannot express one. Load happens once per promotion,
// so the decode+replay is off every hot path.
func (c *CheckpointStore) Load() Snapshot {
	anchor := c.anchor
	if anchor == nil {
		anchor = EncodeSnapshot(Snapshot{})
	}
	s, err := DecodeSnapshot(anchor)
	if err == nil {
		err = replayDeltas(&s, c.log)
	}
	if err != nil {
		// The encoder and decoder are the same version in one binary; a
		// failure here is a programming error, not recoverable input.
		panic("master: checkpoint anchor+delta replay failed: " + err.Error())
	}
	return s
}

// ---------------------------------------------------------------------------
// snapshot wire encoding
// ---------------------------------------------------------------------------

// snapshotVersion tags the encoding; bump on incompatible format changes.
// Version 2 added each blacklist entry's pin byte.
const snapshotVersion = 2

// Delta record opcodes. Each record is self-delimiting: an opcode byte
// followed by the fields that changed.
const (
	opSaveApp      = 1
	opRemoveApp    = 2
	opSetBlacklist = 3
	opBumpEpoch    = 4
)

// growBytes returns b with room for n more bytes. It doubles: append's own
// growth for large slices is 1.25x, which copies a buffer that only ever
// grows (the arena, an anchor) four times over.
func growBytes(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	c := 2 * cap(b)
	if c < len(b)+n {
		c = len(b) + n
	}
	return append(make([]byte, 0, c), b...)
}

// uvarintLen is len(binary.AppendUvarint(nil, x)).
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendVector(b []byte, v resource.Vector) []byte {
	// ForEachDimension, not Dimensions: this runs per unit on every delta
	// record and anchor encode, and the sorted-copy allocation showed up
	// as ~2 allocs/decision on the failover profile.
	b = binary.AppendUvarint(b, uint64(v.NumDimensions()))
	if !v.HasVirtual() {
		// CPU and memory only, as nearly every unit is: the same two
		// dimensions in the same order, without a callback per dimension.
		if cpu := v.CPUMilli(); cpu != 0 {
			b = binary.AppendVarint(appendString(b, resource.CPU), cpu)
		}
		if mem := v.MemoryMB(); mem != 0 {
			b = binary.AppendVarint(appendString(b, resource.Memory), mem)
		}
		return b
	}
	v.ForEachDimension(func(d string, amount int64) {
		b = appendString(b, d)
		b = binary.AppendVarint(b, amount)
	})
	return b
}

// appendApp encodes one application config (shared by full snapshots and
// opSaveApp delta records).
func appendApp(b []byte, a AppConfig) []byte {
	b = appendString(b, a.Name)
	b = appendString(b, a.Group)
	b = binary.AppendUvarint(b, uint64(len(a.Units)))
	for _, u := range a.Units {
		b = binary.AppendVarint(b, int64(u.ID))
		b = binary.AppendVarint(b, int64(u.Priority))
		b = binary.AppendVarint(b, int64(u.MaxCount))
		b = appendVector(b, u.Size)
	}
	return b
}

// appendBlacklist encodes a blacklist section: the count, then each entry's
// name and pin byte (shared by full snapshots and opSetBlacklist records).
func appendBlacklist(b []byte, black []BlacklistEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(black)))
	for _, e := range black {
		b = append(appendString(b, e.Machine), e.Pins)
	}
	return b
}

// EncodeSnapshot serializes a checkpoint snapshot into a compact, fully
// deterministic byte form: names and amounts only, dimensions in sorted
// order. This is the name↔ID boundary — the in-memory control plane keys
// everything by dense interned IDs, but IDs are assigned in registration
// order and do not survive a process, so durable state is name-based by
// construction.
func EncodeSnapshot(s Snapshot) []byte {
	b := make([]byte, 0, 64+len(s.Apps)*64)
	b = append(b, snapshotVersion)
	b = binary.AppendUvarint(b, uint64(s.Epoch))
	b = binary.AppendUvarint(b, uint64(len(s.Apps)))
	for _, a := range s.Apps {
		b = appendApp(b, a)
	}
	return appendBlacklist(b, s.Blacklist)
}

// snapshotReader is a cursor over an encoded snapshot.
type snapshotReader struct {
	b   []byte
	err error
}

func (r *snapshotReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("master: truncated snapshot (uvarint)")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *snapshotReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.err = fmt.Errorf("master: truncated snapshot (varint)")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// bytes reads one length-prefixed string, aliasing the snapshot.
func (r *snapshotReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.err = fmt.Errorf("master: truncated snapshot (string)")
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *snapshotReader) string() string { return string(r.bytes()) }

// blacklist decodes a blacklist section (the appendBlacklist inverse). Every
// entry costs at least two bytes, its name's length prefix and its pins, so
// a count past half the bytes left is corruption, rejected before it sizes
// an allocation; so is a pin byte that names no pin.
func (r *snapshotReader) blacklist() []BlacklistEntry {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.b))/2 {
		r.err = fmt.Errorf("master: corrupt snapshot (blacklist count %d exceeds %d remaining bytes)", n, len(r.b))
		return nil
	}
	black := make([]BlacklistEntry, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		e := BlacklistEntry{Machine: r.string()}
		switch {
		case r.err != nil:
		case len(r.b) == 0:
			r.err = fmt.Errorf("master: truncated snapshot (blacklist pins)")
		case r.b[0]&^(pinVotes|pinFlap) != 0:
			r.err = fmt.Errorf("master: corrupt snapshot (blacklist pins %#x)", r.b[0])
		default:
			e.Pins = r.b[0]
			r.b = r.b[1:]
			black = append(black, e)
		}
	}
	return black
}

func (r *snapshotReader) vector() resource.Vector {
	n := r.uvarint()
	var v resource.Vector
	for i := uint64(0); i < n && r.err == nil; i++ {
		dim := r.bytes()
		amt := r.varint()
		if r.err == nil {
			v = v.With(dimName(dim), amt)
		}
	}
	return v
}

// dimName resolves a decoded dimension name. CPU and memory, which nearly
// every unit carries, come back as the resource package's constants: a
// promotion decodes every unit, and a fresh copy of both names per unit
// showed up in the failover profile.
func dimName(b []byte) string {
	switch {
	case string(b) == resource.CPU:
		return resource.CPU
	case string(b) == resource.Memory:
		return resource.Memory
	}
	return string(b)
}

// app decodes one application config (the appendApp inverse).
func (r *snapshotReader) app() AppConfig {
	var a AppConfig
	a.Name = r.string()
	a.Group = r.string()
	nUnits := r.uvarint()
	// A unit encodes to at least four bytes, so the bytes left bound what a
	// count may reserve: a hostile count cannot allocate past its input.
	if n := min(nUnits, uint64(len(r.b))/4); n > 0 {
		a.Units = make([]resource.ScheduleUnit, 0, n)
	}
	for j := uint64(0); j < nUnits && r.err == nil; j++ {
		var u resource.ScheduleUnit
		u.ID = int(r.varint())
		u.Priority = int(r.varint())
		u.MaxCount = int(r.varint())
		u.Size = r.vector()
		a.Units = append(a.Units, u)
	}
	return a
}

// DecodeSnapshot parses an EncodeSnapshot payload back into a snapshot.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	if len(b) == 0 || b[0] != snapshotVersion {
		return Snapshot{}, fmt.Errorf("master: unknown snapshot version")
	}
	r := &snapshotReader{b: b[1:]}
	var s Snapshot
	s.Epoch = int(r.uvarint())
	nApps := r.uvarint()
	for i := uint64(0); i < nApps && r.err == nil; i++ {
		s.Apps = append(s.Apps, r.app())
	}
	s.Blacklist = r.blacklist()
	return s, r.err
}

// replayDeltas applies a delta log to a decoded anchor snapshot in place,
// preserving SaveApp's replace-in-place / append-if-new order semantics so
// a replayed snapshot is byte-equivalent to the writer's view.
func replayDeltas(s *Snapshot, log []byte) error {
	r := &snapshotReader{b: log}
	for len(r.b) > 0 && r.err == nil {
		op := r.b[0]
		r.b = r.b[1:]
		switch op {
		case opSaveApp:
			a := r.app()
			if r.err != nil {
				break
			}
			replaced := false
			for i := range s.Apps {
				if s.Apps[i].Name == a.Name {
					s.Apps[i] = a
					replaced = true
					break
				}
			}
			if !replaced {
				s.Apps = append(s.Apps, a)
			}
		case opRemoveApp:
			name := r.string()
			if r.err != nil {
				break
			}
			for i := range s.Apps {
				if s.Apps[i].Name == name {
					s.Apps = append(s.Apps[:i], s.Apps[i+1:]...)
					break
				}
			}
		case opSetBlacklist:
			if black := r.blacklist(); r.err == nil {
				s.Blacklist = black
			}
		case opBumpEpoch:
			if e := r.uvarint(); r.err == nil {
				s.Epoch = int(e)
			}
		default:
			return fmt.Errorf("master: unknown delta opcode %d", op)
		}
	}
	return r.err
}
