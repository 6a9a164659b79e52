package obs

import "repro/internal/sim"

// This file holds the ring store's window bounds and its accumulating write: exported for this package's tests, which read
// them, and called by no shipped code.

// OldestTime and NewestTime bound the retained window (zero when empty).
func (s *Store) OldestTime() sim.Time {
	if s.count == 0 {
		return 0
	}
	return s.times[s.rowIndex(0)]
}

func (s *Store) NewestTime() sim.Time {
	if s.count == 0 {
		return 0
	}
	return s.times[s.head]
}

// Add accumulates into a series' cell in the open row — the form used when
// several sources fold into one series (per-class depths across priority
// buckets). Alloc-free.
func (s *Store) Add(id SeriesID, v int64) { s.vals[id][s.head] += v }
