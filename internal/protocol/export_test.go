package protocol

// This file holds the dedup tracker's gap count: exported for this package's tests, which read
// them, and called by no shipped code.

// Gaps returns the number of gaps observed since construction.
func (d *Dedup) Gaps() uint64 { return d.gaps }
