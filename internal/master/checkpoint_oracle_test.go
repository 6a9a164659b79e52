package master

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

// oracleStore is the CheckpointStore writer as it was before the slot table:
// the view is a map of AppConfig copies plus an order slice, RemoveApp scans
// and shifts that slice, and every anchor (and, under TrackFullCost, every
// write) materializes the whole view and re-encodes it with EncodeSnapshot.
// It is kept verbatim as the reference the slot-table store must match byte
// for byte, with its own copy of the encoder as it was (one callback per
// vector dimension), so the comparison pins the shipped codec's bytes too.
type oracleStore struct {
	epoch     int
	apps      map[string]AppConfig
	order     []string
	blacklist []string

	anchor  []byte
	log     []byte
	logRecs int

	Writes          int
	BlacklistWrites int
	DeltaBytes      int64
	AnchorBytes     int64
	Compactions     int
	CompactEvery    int
	TrackFullCost   bool
	FullBytes       int64
}

func oracleAppendApp(b []byte, a AppConfig) []byte {
	b = appendString(b, a.Name)
	b = appendString(b, a.Group)
	b = binary.AppendUvarint(b, uint64(len(a.Units)))
	for _, u := range a.Units {
		b = binary.AppendVarint(b, int64(u.ID))
		b = binary.AppendVarint(b, int64(u.Priority))
		b = binary.AppendVarint(b, int64(u.MaxCount))
		b = binary.AppendUvarint(b, uint64(u.Size.NumDimensions()))
		u.Size.ForEachDimension(func(d string, amount int64) {
			b = appendString(b, d)
			b = binary.AppendVarint(b, amount)
		})
	}
	return b
}

func oracleEncodeSnapshot(s Snapshot) []byte {
	b := []byte{snapshotVersion}
	b = binary.AppendUvarint(b, uint64(s.Epoch))
	b = binary.AppendUvarint(b, uint64(len(s.Apps)))
	for _, a := range s.Apps {
		b = oracleAppendApp(b, a)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Blacklist)))
	for _, m := range s.Blacklist {
		b = appendString(b, m)
	}
	return b
}

func newOracleStore() *oracleStore {
	return &oracleStore{apps: make(map[string]AppConfig)}
}

func (c *oracleStore) PendingDeltas() int { return c.logRecs }

func (c *oracleStore) compactionCadence() int {
	if c.CompactEvery > 0 {
		return c.CompactEvery
	}
	return defaultCompactEvery
}

func (c *oracleStore) wrote(recStart int) {
	c.DeltaBytes += int64(len(c.log) - recStart)
	c.logRecs++
	c.Writes++
	if c.TrackFullCost {
		c.FullBytes += int64(len(oracleEncodeSnapshot(c.materialize())))
	}
	if c.logRecs >= c.compactionCadence() {
		c.compact()
	}
}

func (c *oracleStore) compact() {
	c.anchor = oracleEncodeSnapshot(c.materialize())
	c.AnchorBytes += int64(len(c.anchor))
	c.log = c.log[:0]
	c.logRecs = 0
	c.Compactions++
}

func (c *oracleStore) materialize() Snapshot {
	s := Snapshot{Epoch: c.epoch}
	for _, name := range c.order {
		s.Apps = append(s.Apps, c.apps[name])
	}
	s.Blacklist = append([]string(nil), c.blacklist...)
	return s
}

func (c *oracleStore) BumpEpoch() int {
	c.epoch++
	start := len(c.log)
	c.log = append(c.log, opBumpEpoch)
	c.log = binary.AppendUvarint(c.log, uint64(c.epoch))
	c.wrote(start)
	return c.epoch
}

func (c *oracleStore) SaveApp(a AppConfig) {
	if _, ok := c.apps[a.Name]; !ok {
		c.order = append(c.order, a.Name)
	}
	c.apps[a.Name] = a
	start := len(c.log)
	c.log = append(c.log, opSaveApp)
	c.log = oracleAppendApp(c.log, a)
	c.wrote(start)
}

func (c *oracleStore) RemoveApp(name string) {
	if _, ok := c.apps[name]; !ok {
		return
	}
	delete(c.apps, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	start := len(c.log)
	c.log = append(c.log, opRemoveApp)
	c.log = appendString(c.log, name)
	c.wrote(start)
}

func (c *oracleStore) SetBlacklist(machines []string) {
	c.blacklist = append([]string(nil), machines...)
	start := len(c.log)
	c.log = append(c.log, opSetBlacklist)
	c.log = binary.AppendUvarint(c.log, uint64(len(machines)))
	for _, m := range machines {
		c.log = appendString(c.log, m)
	}
	c.wrote(start)
	c.BlacklistWrites++
}

// mirrored applies every mutation to the shipped store and to the oracle.
// With keys set it drives the store the way FuxiMaster does, by each app's
// endpoint ID: keys is the name index the store no longer keeps, a network
// that mints an endpoint per name and retires it when its app is removed, so
// endpoint slots are recycled under new generations as they are in a run.
// Without it, the store is driven by name (SaveApp, RemoveApp).
type mirrored struct {
	*CheckpointStore
	oracle *oracleStore
	keys   *transport.Net
}

func newMirrored(compactEvery int, trackFull bool) mirrored {
	m := mirrored{NewCheckpointStore(), newOracleStore(), nil}
	m.compactEvery, m.oracle.CompactEvery = compactEvery, compactEvery
	// The store always keeps FullBytes (arithmetic); the oracle re-encodes
	// its whole view per write to get it, so it does so only when asked, and
	// diverged compares the counter only then.
	m.oracle.TrackFullCost = trackFull
	return m
}

func (m mirrored) BumpEpoch() int {
	m.oracle.BumpEpoch()
	return m.CheckpointStore.BumpEpoch()
}

func (m mirrored) SaveApp(a AppConfig) {
	m.oracle.SaveApp(a)
	if m.keys == nil {
		m.CheckpointStore.SaveApp(a)
		return
	}
	m.CheckpointStore.SaveAppAt(m.keys.Endpoint(a.Name), a)
}

func (m mirrored) RemoveApp(name string) {
	m.oracle.RemoveApp(name)
	if m.keys == nil {
		m.CheckpointStore.RemoveApp(name)
		return
	}
	ep := m.keys.Lookup(name)
	m.CheckpointStore.RemoveAppAt(ep, name)
	m.keys.Retire(ep)
}

// keyed turns on driving the store by endpoint ID.
func (m *mirrored) keyed() { m.keys = transport.NewNet(sim.NewEngine(1)) }

func (m mirrored) SetBlacklist(machines []string) {
	m.oracle.SetBlacklist(machines)
	m.CheckpointStore.SetBlacklist(machines)
}

// diverged compares everything durable or counted, plus what a promotion
// would load, and returns the first difference ("" when equal).
func (m mirrored) diverged() string {
	n, o := m.CheckpointStore, m.oracle
	switch {
	case !bytes.Equal(n.anchor, o.anchor):
		return fmt.Sprintf("anchor: %d bytes vs oracle's %d", len(n.anchor), len(o.anchor))
	case (n.anchor == nil) != (o.anchor == nil):
		return "anchor nil-ness (nil means the empty snapshot to Load)"
	case !bytes.Equal(n.log, o.log):
		return fmt.Sprintf("log: %d bytes vs oracle's %d", len(n.log), len(o.log))
	case n.Writes != o.Writes, n.BlacklistWrites != o.BlacklistWrites,
		n.DeltaBytes != o.DeltaBytes, n.AnchorBytes != o.AnchorBytes,
		n.Compactions != o.Compactions, o.TrackFullCost && n.FullBytes != o.FullBytes:
		return fmt.Sprintf("counters: writes %d/%d blacklist %d/%d delta %d/%d anchor %d/%d compactions %d/%d full %d/%d",
			n.Writes, o.Writes, n.BlacklistWrites, o.BlacklistWrites, n.DeltaBytes, o.DeltaBytes,
			n.AnchorBytes, o.AnchorBytes, n.Compactions, o.Compactions, n.FullBytes, o.FullBytes)
	case n.PendingDeltas() != o.PendingDeltas():
		return fmt.Sprintf("pending deltas %d vs oracle's %d", n.PendingDeltas(), o.PendingDeltas())
	}
	// Load reads durable bytes only, so equal anchor+log already imply an
	// equal Load; what is left to pin is that those bytes are the writer's
	// view — the oracle's, which is materialized and not derived from bytes.
	if got, want := EncodeSnapshot(n.Load()), oracleEncodeSnapshot(o.materialize()); !bytes.Equal(got, want) {
		return fmt.Sprintf("Load: %d bytes re-encoded vs the oracle view's %d", len(got), len(want))
	}
	return ""
}

// oracleUnits draws a small unit list whose encoded size varies (unit count,
// varint widths, zero and virtual dimensions), so a replace-in-place can
// shrink or grow its record and both vector encodings are exercised.
func oracleUnits(rng *rand.Rand) []resource.ScheduleUnit {
	us := make([]resource.ScheduleUnit, rng.Intn(4))
	for i := range us {
		// One dimension in six is zero, and so absent from the encoding.
		cpu, mem := int64(rng.Intn(4000)*rng.Intn(6)), int64(rng.Intn(1<<14)*rng.Intn(6))
		us[i] = resource.ScheduleUnit{ID: i + 1, Priority: rng.Intn(300), MaxCount: rng.Intn(1 << uint(rng.Intn(20))),
			Size: resource.New(cpu, mem)}
		if rng.Intn(8) == 0 {
			us[i].Size = us[i].Size.With("gpu", int64(1+rng.Intn(8)))
		}
	}
	return us
}

// TestCheckpointSlotTableMatchesOracle drives the slot-table store and the
// pre-refactor store with the same seeded op streams and requires, after
// every single op, equal durable bytes, counters and loaded snapshot. The
// name pool is small against the op count, so names are re-saved after
// removal, replaced in place, removed while absent, and the live population
// swings widely enough for the tombstone squeeze to fire many times.
func TestCheckpointSlotTableMatchesOracle(t *testing.T) {
	// 2 × 16k ops at the default cadence + 6 × 4k at the short ones = 56k.
	ops := 16_000
	if testing.Short() {
		ops = 4_000
	}
	cadences := []int{1, 2, 7, 256}
	for ci, every := range cadences {
		for _, track := range []bool{false, true} {
			every, track := every, track
			t.Run(fmt.Sprintf("every=%d/full=%v", every, track), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*ci + len(t.Name()))))
				m := newMirrored(every, track)
				// The full-cost runs drive the store by name, the others by
				// endpoint, on streams of the same shape.
				if !track {
					m.keyed()
				}
				n := ops
				if every < 256 {
					// An anchor every one to seven ops makes the oracle quadratic;
					// a shorter stream still squeezes dozens of times.
					n = ops / 4
				}
				squeezes, lastSlots := 0, 0
				pool := 20 + rng.Intn(80)
				grow := true
				for i := 0; i < n; i++ {
					// The population breathes: grow phases favour saves,
					// shrink phases removes, so tombstones pile up.
					if i%250 == 0 {
						grow = !grow
					}
					name := fmt.Sprintf("job-%03d", rng.Intn(pool))
					r := rng.Intn(100)
					removeBelow := 25
					if !grow {
						removeBelow = 65
					}
					switch {
					case r < removeBelow:
						m.RemoveApp(name) // present or absent
					case r < 92:
						m.SaveApp(AppConfig{Name: name, Group: []string{"", "batch", "service"}[rng.Intn(3)], Units: oracleUnits(rng)})
					case r < 97:
						var bl []string
						for k := rng.Intn(4); k > 0; k-- {
							bl = append(bl, fmt.Sprintf("r%dm%d", rng.Intn(50), rng.Intn(40)))
						}
						m.SetBlacklist(bl) // empty one time in four
					default:
						m.BumpEpoch()
					}
					if d := m.diverged(); d != "" {
						t.Fatalf("op %d: %s", i, d)
					}
					if len(m.slots) < lastSlots {
						squeezes++
					}
					lastSlots = len(m.slots)
					if m.dead > m.live() {
						t.Fatalf("op %d: %d tombstones left beside %d live slots", i, m.dead, m.live())
					}
				}
				if squeezes < n/500 {
					t.Fatalf("only %d squeezes in %d ops: the stream does not exercise the tombstone path", squeezes, n)
				}
				if m.Compactions == 0 {
					t.Fatal("stream never compacted")
				}
			})
		}
	}
}

// TestCheckpointSaveAppDoesNotAliasUnits: the store must keep what was saved,
// not a reference to the caller's slice. The old store kept the message's
// Units, so a caller editing a unit afterwards (the gateway harness shares
// unit templates across jobs) changed the next anchor but not the delta
// already logged, and Load before and after a compaction disagreed.
func TestCheckpointSaveAppDoesNotAliasUnits(t *testing.T) {
	s := NewCheckpointStore()
	s.compactEvery = 3
	units := deltaUnits(2)
	s.SaveApp(AppConfig{Name: "a", Group: "g", Units: units})
	saved := EncodeSnapshot(s.Load())
	units[0].MaxCount = 999
	units[1].Size = resource.New(1, 1)
	s.SaveApp(AppConfig{Name: "b"})
	s.RemoveApp("b") // third write: compaction
	if s.Compactions != 1 || s.PendingDeltas() != 0 {
		t.Fatalf("compactions=%d pending=%d, want an anchor-only store", s.Compactions, s.PendingDeltas())
	}
	if got := EncodeSnapshot(s.Load()); !bytes.Equal(got, saved) {
		t.Fatalf("anchor encodes the caller's later edits:\n got %x\nwant %x", got, saved)
	}
}

// TestCheckpointViewStaysProportionalToLive pins the memory half of the
// tombstone policy: after serving many times more jobs than are ever live,
// the slot table and the arena are sized by the live set.
func TestCheckpointViewStaysProportionalToLive(t *testing.T) {
	s := NewCheckpointStore()
	net := transport.NewNet(sim.NewEngine(1))
	const live = 100
	for i := 0; i < 50*live; i++ {
		name := fmt.Sprintf("job-%05d", i)
		s.SaveAppAt(net.Endpoint(name), AppConfig{Name: name, Group: "batch", Units: deltaUnits(1)})
		if i >= live {
			old := fmt.Sprintf("job-%05d", i-live)
			ep := net.Lookup(old)
			s.RemoveAppAt(ep, old)
			net.Retire(ep)
		}
	}
	if s.live() != live || s.unkeyed != 0 || len(s.bySlot) > live+1 {
		t.Fatalf("live=%d unkeyed=%d key slots=%d, want %d, 0, at most %d", s.live(), s.unkeyed, len(s.bySlot), live, live+1)
	}
	if len(s.slots) > 2*live+1 {
		t.Errorf("%d slots for %d live apps", len(s.slots), live)
	}
	if len(s.arena) > 2*s.liveBytes+ckptArenaSlack {
		t.Errorf("arena %d bytes for %d live", len(s.arena), s.liveBytes)
	}
}

// BenchmarkCheckpointLifecycle is one job's durable cost at replay's live
// population: save the newest, remove the oldest, default anchor cadence.
func BenchmarkCheckpointLifecycle(b *testing.B) {
	const live = 5000
	s := NewCheckpointStore()
	units := deltaUnits(1)
	names := make([]string, live+b.N)
	for i := range names {
		names[i] = fmt.Sprintf("rp-%07d", i)
	}
	// Job i's endpoint: live+1 slots, each recycled under a new generation.
	ep := func(i int) transport.EndpointID {
		return transport.EndpointID(ident.Tag(int32(i%(live+1)), uint32(i/(live+1))))
	}
	for i, n := range names[:live] {
		s.SaveAppAt(ep(i), AppConfig{Name: n, Group: "batch", Units: units})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SaveAppAt(ep(live+i), AppConfig{Name: names[live+i], Group: "batch", Units: units})
		s.RemoveAppAt(ep(i), names[i])
	}
}
