package sim

// This file holds engine controls: exported for this package's tests, which read
// them, and called by no shipped code.

// Halt stops Run after the current event completes. Periodic timers stop
// rescheduling.
func (e *Engine) Halt() { e.halted = true }

// Pending returns the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int { return e.inRing + len(e.far) }
