package job

import "repro/internal/sim"

// Job-level wire messages between the JobMaster and its TaskWorkers. They
// travel over the same simulated network as the resource protocol, so a
// dead JobMaster simply stops receiving reports while workers keep running
// (the property JobMaster failover relies on, paper §4.3.1).

// AssignInstance asks a worker to execute one instance attempt.
type AssignInstance struct {
	Task     string
	Instance int
	Attempt  int
	// Duration is the nominal execution time; the worker's machine may
	// stretch it (SlowMachine faults).
	Duration sim.Time
	// Backup marks speculative copies launched against stragglers.
	Backup bool
}

// KillInstance cancels the instance a worker is running (e.g. the original
// finished before its backup).
type KillInstance struct {
	Task     string
	Instance int
}

// InstanceReport is a worker's periodic (and completion) status report to
// the JobMaster: "All TaskWorkers will periodically report their status
// including execution progresses to the TaskMasters" (paper §4.2).
type InstanceReport struct {
	Worker   uint32
	Machine  int32 // dense machine ID
	Task     string
	Instance int
	Attempt  int
	Done     bool
	Backup   bool
	// Progress in [0,1] for running instances.
	Progress float64
	// Idle marks a worker with no current instance (ready for work).
	Idle bool
}
