package job

// InstanceState is the lifecycle of one task instance.
type InstanceState int

const (
	// InstancePending instances wait for a worker.
	InstancePending InstanceState = iota
	// InstanceRunning instances are executing on a worker.
	InstanceRunning
	// InstanceDone instances finished successfully.
	InstanceDone
)

func (s InstanceState) String() string {
	switch s {
	case InstancePending:
		return "pending"
	case InstanceRunning:
		return "running"
	case InstanceDone:
		return "done"
	default:
		return "unknown"
	}
}

// InstanceSnap is the lightweight per-instance record the JobMaster
// checkpoints: "this kind of job snapshot is also light-weighted since only
// the status like 'Running' is recorded" (paper §4.3.1).
type InstanceSnap struct {
	State   InstanceState
	Worker  uint32 // 0 when no worker runs it
	Attempt int
	// Machine is the dense ID of the machine a done instance finished on: its
	// output, which downstream tasks read, is there. It is read only when
	// State is InstanceDone.
	Machine int32
}

// TaskSnap is one task's snapshot.
type TaskSnap struct {
	Started   bool
	Completed bool
	Instances []InstanceSnap
}

// SnapshotStore models the durable store the JobMaster exports its snapshot
// to. Exporting happens "by the event of any instance status change"; the
// Writes counter lets tests confirm the export is event-driven, not
// periodic-full-dump.
type SnapshotStore struct {
	tasks  map[string]*TaskSnap
	Writes int
	// lastWorker is the highest worker number any JobMaster of the job has
	// handed out. It lives here, not in a JobMaster, so a failover successor
	// never reuses a number an agent may still run a process under.
	lastWorker uint32
}

// NewSnapshotStore returns an empty store.
func NewSnapshotStore() *SnapshotStore {
	return &SnapshotStore{tasks: make(map[string]*TaskSnap)}
}

// SaveInstance records one instance's status change.
func (s *SnapshotStore) SaveInstance(task string, idx int, snap InstanceSnap) {
	t := s.tasks[task]
	if t == nil {
		return
	}
	if idx < 0 || idx >= len(t.Instances) {
		return
	}
	t.Instances[idx] = snap
	s.Writes++
}

// SaveTask records task-level lifecycle changes (start/complete).
func (s *SnapshotStore) SaveTask(task string, started, completed bool, instances int) {
	t := s.tasks[task]
	if t == nil {
		t = &TaskSnap{Instances: make([]InstanceSnap, instances)}
		s.tasks[task] = t
	}
	t.Started = started
	t.Completed = completed
	s.Writes++
}

// nextWorker hands out the job's next worker number, from 1.
func (s *SnapshotStore) nextWorker() uint32 {
	s.lastWorker++
	return s.lastWorker
}

// Task returns a task's snapshot (nil when never started).
func (s *SnapshotStore) Task(task string) *TaskSnap { return s.tasks[task] }

// Empty reports whether nothing was ever written (fresh job).
func (s *SnapshotStore) Empty() bool { return len(s.tasks) == 0 }
