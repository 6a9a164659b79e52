// Package dense provides the compact table the control plane keeps per
// ScheduleUnit: which machines a unit is granted on, what demand it still has
// outstanding at which locality node, which wait entries it owns in the
// locality tree. Those populations are one to a handful of rows keyed by
// integers that are already dense (machine IDs, rack IDs, packed (level, node)
// pairs), touched once per message; a hash map spends more on hashing and
// probing them than a scan of one cache line costs. Arena is the other shape
// it provides: a chunked store of records that one owner creates and frees
// by the thousand, such as the locality tree's wait entries.
package dense

// Cell is one key's row.
type Cell[V any] struct {
	Key uint64
	Val V
}

// Map maps packed integer keys to V in one slice of cells sorted by key. The
// zero value is an empty map and owns no memory. A lookup scans a short table
// and binary-searches a long one; an insert or delete shifts the tail, which
// for the few-row tables this is shaped for is a copy within a cache line and
// for a unit spread over thousands of machines is still a single memmove.
// Cells iterate in key order, so a caller that packs its keys in the order it
// must emit them never sorts.
type Map[V any] struct {
	cells []Cell[V]
}

// scanMax is the longest table searched by a forward scan: eight 16-byte
// cells are two cache lines, and below that a scan's predictable branches
// beat a binary search's unpredictable ones.
const scanMax = 8

// search returns the position of k, or the position it would be inserted at.
func (m *Map[V]) search(k uint64) (int, bool) {
	c := m.cells
	if len(c) <= scanMax {
		for i := range c {
			if c[i].Key >= k {
				return i, c[i].Key == k
			}
		}
		return len(c), false
	}
	lo, hi := 0, len(c)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(c) && c[lo].Key == k
}

// Get returns k's value, or the zero V when k is absent.
func (m *Map[V]) Get(k uint64) V {
	if i, ok := m.search(k); ok {
		return m.cells[i].Val
	}
	var zero V
	return zero
}

// Index returns k's position in Cells, or -1 when k is absent — for the
// caller that will update the row and then may DeleteAt it, on one search.
func (m *Map[V]) Index(k uint64) int {
	if i, ok := m.search(k); ok {
		return i
	}
	return -1
}

// firstCap is a table's first allocation: four 16-byte cells, one cache line.
// Most tables never outgrow it (a unit on three machines, demand at a machine
// and the cluster), so most tables are allocated exactly once — or, drawn
// from a Slab, not at all.
const firstCap = 4

// Put returns a pointer to k's value, inserting the zero V first when k is
// absent. The pointer is valid until the next Put, Delete or DeleteAt.
func (m *Map[V]) Put(k uint64) *V {
	i, ok := m.search(k)
	if !ok {
		n := len(m.cells)
		if n == cap(m.cells) {
			grown := make([]Cell[V], n, max(firstCap, 2*n))
			copy(grown, m.cells)
			m.cells = grown
		}
		m.cells = m.cells[:n+1]
		copy(m.cells[i+1:], m.cells[i:n])
		m.cells[i] = Cell[V]{Key: k}
	}
	return &m.cells[i].Val
}

// PutFrom is Put for a table whose owner keeps a Slab: an empty table that
// owns no storage yet takes its first cells from s instead of allocating
// them. A nil s is plain Put.
func (m *Map[V]) PutFrom(s *Slab[V], k uint64) *V {
	if cap(m.cells) == 0 && s != nil {
		m.cells = s.window()
	}
	return m.Put(k)
}

// Delete removes k; absent keys are ignored.
func (m *Map[V]) Delete(k uint64) {
	if i, ok := m.search(k); ok {
		m.DeleteAt(i)
	}
}

// DeleteAt removes the row at position i of Cells.
func (m *Map[V]) DeleteAt(i int) {
	last := len(m.cells) - 1
	copy(m.cells[i:], m.cells[i+1:])
	m.cells[last] = Cell[V]{} // drop the tail's reference for the collector
	m.cells = m.cells[:last]
}

// Len returns the number of keys.
func (m *Map[V]) Len() int { return len(m.cells) }

// Cells returns the rows in key order. The slice aliases the table: the
// caller may update values in place but must not Put or Delete while ranging.
func (m *Map[V]) Cells() []Cell[V] { return m.cells }

// Reset empties the table, keeping its storage.
func (m *Map[V]) Reset() {
	clear(m.cells)
	m.cells = m.cells[:0]
}

// Pack joins two dense IDs into one key, hi above lo: (level, node),
// (app, unit). Keys order by hi first, then lo.
func Pack(hi, lo int32) uint64 { return uint64(uint32(hi))<<32 | uint64(uint32(lo)) }

// Merge walks two tables' rows (as Cells returns them) side by side in key
// order, calling fn once for every key either holds with both values, the zero
// V standing in for an absent row — how two ledgers of the same grants are
// compared without copying either.
func Merge[V any](a, b []Cell[V], fn func(k uint64, av, bv V)) {
	var zero V
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case j == len(b) || i < len(a) && a[i].Key < b[j].Key:
			fn(a[i].Key, a[i].Val, zero)
			i++
		case i == len(a) || b[j].Key < a[i].Key:
			fn(b[j].Key, zero, b[j].Val)
			j++
		default:
			fn(a[i].Key, a[i].Val, b[j].Val)
			i++
			j++
		}
	}
}

// Take subtracts up to n from k's count in a table of counts that keeps no
// zero rows, dropping the row when it empties, and returns how much it took
// (0 when k is absent).
func Take(m *Map[int], k uint64, n int) int {
	i := m.Index(k)
	if i < 0 {
		return 0
	}
	if have := &m.cells[i].Val; *have > n {
		*have -= n
	} else {
		n = *have
		m.DeleteAt(i)
	}
	return n
}
