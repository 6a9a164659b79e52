package job

// This file holds the worker lookup: exported for this package's tests, which read
// it, and called by no shipped code.

// Worker returns a live WorkerSim (nil when absent).
func (r *Runtime) Worker(worker uint32) *WorkerSim { return r.workers[worker] }
