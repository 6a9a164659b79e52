package blacklist

// This file holds job-level probes: exported for this package's tests, which read
// them, and called by no shipped code.

// JobBlacklisted reports whether the whole job refuses machine.
func (b *MultiLevel) JobBlacklisted(machine int32) bool { return b.jobBlack[machine] }

// TaskBlacklist returns the number of machines task refuses (excluding
// job-level entries).
func (b *MultiLevel) TaskBlacklist(task string) int { return len(b.taskBlack[task]) }

// JobBlacklist returns the job-level blacklist size.
func (b *MultiLevel) JobBlacklist() int { return len(b.jobBlack) }
