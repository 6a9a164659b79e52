package obs

import (
	"repro/internal/ident"
	"repro/internal/sim"
)

// SeriesID is the dense handle of one registered series. IDs are assigned
// in registration order and index plain slices on the record path.
type SeriesID int32

// None is the invalid SeriesID.
const None SeriesID = -1

// keySep joins metric and group into the interned series key; it cannot
// appear in either half (it is a C0 control character).
const keySep = "\x1f"

// Store is the ring-buffered time-series store. One timestamp ring is
// shared by every series; sample i of every series was recorded at the
// same Advance call, so a row is a consistent cut of cluster state.
type Store struct {
	rows  int        // ring capacity in samples
	times []sim.Time // shared timestamp ring
	head  int        // index of the most recent row (-1 before first Advance)
	count int        // live rows, <= rows
	total uint64     // rows ever recorded (total - count were evicted)

	keys   ident.Table // metric+keySep+group -> dense SeriesID
	metric []string    // by SeriesID
	group  []string    // by SeriesID
	vals   [][]int64   // by SeriesID: fixed-capacity value ring

	// byMetric groups series of one metric in registration order — the
	// group-by walk of AggregateMetric. Built at Register time so queries
	// need no sorting or map iteration.
	byMetric map[string][]SeriesID

	qbuf []int64 // reused quantile scratch (single-threaded, like the sim)
}

// NewStore returns a store retaining the last capacity samples per series.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return &Store{
		rows:     capacity,
		times:    make([]sim.Time, capacity),
		head:     -1,
		byMetric: make(map[string][]SeriesID),
	}
}

// Register interns (metric, group) and returns its SeriesID, allocating the
// value ring on first sight. Idempotent: re-registering returns the same ID,
// so a re-promoted master can re-run its setup against a shared store. A
// series registered after sampling began reads as zero for rows already
// written.
func (s *Store) Register(metric, group string) SeriesID {
	key := metric + keySep + group
	if id := s.keys.ID(key); id >= 0 {
		return SeriesID(id)
	}
	id := SeriesID(s.keys.Intern(key))
	s.metric = append(s.metric, metric)
	s.group = append(s.group, group)
	s.vals = append(s.vals, make([]int64, s.rows))
	s.byMetric[metric] = append(s.byMetric[metric], id)
	return id
}

// Lookup resolves (metric, group) without registering.
func (s *Store) Lookup(metric, group string) (SeriesID, bool) {
	id := s.keys.ID(metric + keySep + group)
	if id < 0 {
		return None, false
	}
	return SeriesID(id), true
}

// Advance opens the sample row for virtual time now, evicting the oldest
// row once the ring is full. Every series' cell starts at zero; Set/Add
// fill the row until the next Advance. Alloc-free.
func (s *Store) Advance(now sim.Time) {
	s.head++
	if s.head == s.rows {
		s.head = 0
	}
	s.times[s.head] = now
	for _, ring := range s.vals {
		ring[s.head] = 0
	}
	if s.count < s.rows {
		s.count++
	}
	s.total++
}

// Set writes a series' value in the open row (gauges). Alloc-free.
func (s *Store) Set(id SeriesID, v int64) { s.vals[id][s.head] = v }

// Add accumulates into a series' cell in the open row — the form used when
// several sources fold into one series (per-class depths across priority
// buckets). Alloc-free.
func (s *Store) Add(id SeriesID, v int64) { s.vals[id][s.head] += v }

// Get reads a series' value in the open row.
func (s *Store) Get(id SeriesID) int64 { return s.vals[id][s.head] }

// SeriesCount returns the number of registered series.
func (s *Store) SeriesCount() int { return len(s.vals) }

// Metric and Group return a series' identity.
func (s *Store) Metric(id SeriesID) string { return s.metric[id] }
func (s *Store) Group(id SeriesID) string  { return s.group[id] }

// Cap returns the ring capacity in samples; Len the live samples retained;
// Total the samples ever recorded (Total - Len were evicted, exactly).
func (s *Store) Cap() int      { return s.rows }
func (s *Store) Len() int      { return s.count }
func (s *Store) Total() uint64 { return s.total }

// BytesPerSample is the storage cost of one row: one int64 per series plus
// the shared timestamp.
func (s *Store) BytesPerSample() int { return 8 * (len(s.vals) + 1) }

// rowIndex maps chronological position i (0 = oldest retained) to its ring
// slot, straddling the wrap point.
func (s *Store) rowIndex(i int) int {
	return (s.head - s.count + 1 + i + s.rows) % s.rows
}
