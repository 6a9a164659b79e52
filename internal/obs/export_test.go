package obs

import "repro/internal/sim"

// This file holds the ring store's window bounds: exported for this package's tests, which read
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
