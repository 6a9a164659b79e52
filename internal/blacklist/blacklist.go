// Package blacklist implements the job-level half of Fuxi's multi-level
// machine blacklist (paper §4.3.2): failures recorded per instance escalate
// a machine into a task's blacklist once enough distinct instances mark it,
// and into the job's blacklist once enough distinct tasks mark it — the
// "bottom-up approach to distinguish temporary abnormality from persistent
// bad machines". The job level is where the application master decides to
// escalate further to FuxiMaster via a BadMachineReport.
//
// The cluster-level half lives in internal/master: FuxiMaster aggregates
// BadMachineReports across jobs (two distinct applications disable a
// machine), graylists on low agent-reported health scores, and keeps a flap
// score fed by repeated heartbeat timeouts and surprise agent restarts that
// blacklists a machine from the scheduler's sweep until the score decays —
// the top-down complement to this package's bottom-up escalation.
package blacklist

// The escalation thresholds of the Fuxi job framework.
const (
	// instanceThreshold is how many distinct instances of one task must
	// mark a machine before the task blacklists it.
	instanceThreshold = 3
	// taskThreshold is how many distinct tasks must blacklist a machine
	// before the whole job does.
	taskThreshold = 2
	// maxPerTask bounds each task's blacklist size (the paper's "upper
	// bound limit can be configured" abuse guard).
	maxPerTask = 20
)

// MultiLevel tracks failure marks for one job. Machines are dense topology
// IDs.
type MultiLevel struct {
	// marks[task][machine] = set of instance IDs that failed there.
	marks map[string]map[int32]map[int]bool
	// taskBlack[task] = machines the task refuses.
	taskBlack map[string]map[int32]bool
	// jobBlack = machines the whole job refuses.
	jobBlack map[int32]bool
	// escalated marks job-level machines already reported upstream.
	escalated map[int32]bool
}

// New returns an empty tracker.
func New() *MultiLevel {
	return &MultiLevel{
		marks:     make(map[string]map[int32]map[int]bool),
		taskBlack: make(map[string]map[int32]bool),
		jobBlack:  make(map[int32]bool),
		escalated: make(map[int32]bool),
	}
}

// RecordFailure notes that instance of task failed on machine. It returns
// true when this record newly escalated the machine to the job level (the
// caller should consider reporting it to FuxiMaster).
func (b *MultiLevel) RecordFailure(task string, instance int, machine int32) bool {
	byMachine := b.marks[task]
	if byMachine == nil {
		byMachine = make(map[int32]map[int]bool)
		b.marks[task] = byMachine
	}
	insts := byMachine[machine]
	if insts == nil {
		insts = make(map[int]bool)
		byMachine[machine] = insts
	}
	insts[instance] = true

	// Instance -> task escalation.
	if len(insts) >= instanceThreshold && !b.taskBlack[task][machine] {
		tb := b.taskBlack[task]
		if tb == nil {
			tb = make(map[int32]bool)
			b.taskBlack[task] = tb
		}
		if len(tb) < maxPerTask {
			tb[machine] = true
		}
	}

	// Task -> job escalation.
	if !b.jobBlack[machine] {
		tasksMarking := 0
		for _, tb := range b.taskBlack {
			if tb[machine] {
				tasksMarking++
			}
		}
		if tasksMarking >= taskThreshold {
			b.jobBlack[machine] = true
			if !b.escalated[machine] {
				b.escalated[machine] = true
				return true
			}
		}
	}
	return false
}

// TaskBlacklisted reports whether task refuses machine (job-level bans
// apply to every task).
func (b *MultiLevel) TaskBlacklisted(task string, machine int32) bool {
	return b.jobBlack[machine] || b.taskBlack[task][machine]
}

// JobBlacklisted reports whether the whole job refuses machine.
func (b *MultiLevel) JobBlacklisted(machine int32) bool { return b.jobBlack[machine] }

// TaskBlacklist returns the number of machines task refuses (excluding
// job-level entries).
func (b *MultiLevel) TaskBlacklist(task string) int { return len(b.taskBlack[task]) }

// JobBlacklist returns the job-level blacklist size.
func (b *MultiLevel) JobBlacklist() int { return len(b.jobBlack) }

// Forgive clears a machine everywhere — used when an administrator repairs
// a node or detection proved temporary.
func (b *MultiLevel) Forgive(machine int32) {
	delete(b.jobBlack, machine)
	delete(b.escalated, machine)
	for _, tb := range b.taskBlack {
		delete(tb, machine)
	}
	for _, byMachine := range b.marks {
		delete(byMachine, machine)
	}
}
