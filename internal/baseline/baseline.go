// Package baseline implements a YARN-1.x-style resource manager and
// application master, the comparator the paper positions Fuxi against
// (§3.2.3, §6). Its two deliberate differences from Fuxi isolate what the
// evaluation credits for Fuxi's win:
//
//  1. No container reuse: "whenever a task completes, the node manager
//     always reclaims back the resources, even though the application
//     master has more ready tasks" — every instance costs a fresh
//     allocation round plus a fresh process start.
//  2. Heartbeat-driven full-demand requests: the AM re-asserts its whole
//     outstanding demand every heartbeat instead of sending one
//     incremental delta, and unsatisfied demand is not queued in a
//     locality tree — the RM re-scans on every heartbeat.
//
// The package runs on the same simulation substrate as the real Fuxi stack
// so message counts, scheduling work and makespans are directly comparable.
package baseline

import (
	"fmt"

	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// RMEndpoint is the baseline resource manager's transport endpoint.
const RMEndpoint = "baseline-rm"

// fullRequest is the AM's heartbeat message: the complete outstanding
// demand, every time.
type fullRequest struct {
	App         string
	Size        resource.Vector
	Outstanding int
}

// WireSize implements transport.Sizer: a full request carries the whole
// demand table.
func (r fullRequest) WireSize() int { return 24 + len(r.App) + 48 }

// allocation grants one container.
type allocation struct {
	App     string
	Machine string
}

func (allocation) WireSize() int { return 48 }

// release returns one container (sent per task completion).
type release struct {
	App     string
	Machine string
}

func (release) WireSize() int { return 48 }

// RM is the YARN-style resource manager: stateless between heartbeats with
// respect to pending demand — each heartbeat's request is matched against
// the pool by a fresh scan.
type RM struct {
	eng  *sim.Engine
	net  *transport.Net
	self transport.EndpointID
	top  *topology.Topology
	free map[string]resource.Vector
	// sizes is each app's container size, taken from its full requests, so
	// a release restores the right vector without carrying it (one size
	// per baseline app).
	sizes map[string]resource.Vector
	// Decisions counts allocation scans, the RM's scheduling work.
	Decisions int
	cursor    int
}

// NewRM boots the resource manager.
func NewRM(eng *sim.Engine, net *transport.Net, top *topology.Topology) *RM {
	rm := &RM{
		eng: eng, net: net, top: top,
		free:  make(map[string]resource.Vector, top.Size()),
		sizes: map[string]resource.Vector{},
	}
	for _, m := range top.Machines() {
		rm.free[m] = top.Machine(m).Capacity
	}
	rm.self = net.Register(RMEndpoint, rm.handle)
	return rm
}

func (rm *RM) handle(from transport.EndpointID, msg transport.Message) {
	switch t := msg.(type) {
	case fullRequest:
		rm.allocate(from, t)
	case release:
		rm.free[t.Machine] = rm.free[t.Machine].Add(rm.sizes[t.App])
	}
}

// allocate scans the machine list for each outstanding container — the
// linear resource model the paper attributes to Hadoop/YARN lineage — and
// answers the requesting endpoint.
func (rm *RM) allocate(to transport.EndpointID, req fullRequest) {
	rm.sizes[req.App] = req.Size
	machines := rm.top.Machines()
	n := len(machines)
	granted := 0
	for i := 0; i < n && granted < req.Outstanding; i++ {
		m := machines[(rm.cursor+i)%n]
		rm.Decisions++
		for granted < req.Outstanding && rm.free[m].Contains(req.Size) {
			rm.free[m] = rm.free[m].Sub(req.Size)
			rm.net.SendID(rm.self, to, allocation{App: req.App, Machine: m})
			granted++
			rm.Decisions++
			break // spread: at most one per machine per pass
		}
	}
	if n > 0 {
		rm.cursor = (rm.cursor + 1) % n
	}
}

// HandleForBench drives one full allocation scan directly (no transport),
// for microbenchmarks comparing the RM's per-heartbeat rescan against
// Fuxi's locality-tree regrant.
func (rm *RM) HandleForBench(app string, size resource.Vector, outstanding int) {
	rm.allocate(rm.net.Endpoint(app), fullRequest{App: app, Size: size, Outstanding: outstanding})
}

// AMConfig describes one baseline application: Instances tasks of Duration
// each, at most MaxContainers concurrent.
type AMConfig struct {
	App           string
	Size          resource.Vector
	Instances     int
	Duration      sim.Time
	MaxContainers int
	// Heartbeat is the request period (YARN AMs poll the RM).
	Heartbeat sim.Time
	// StartDelay models container/process launch cost, paid per task
	// because containers are never reused.
	StartDelay sim.Time
	OnDone     func()
}

// AM is the YARN-style application master.
type AM struct {
	cfg      AMConfig
	eng      *sim.Engine
	net      *transport.Net
	self, rm transport.EndpointID
	pending  int
	running  int
	done     int
	stopped  bool
	timer    sim.Cancel
}

// NewAM starts a baseline application master.
func NewAM(cfg AMConfig, eng *sim.Engine, net *transport.Net) *AM {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = sim.Second
	}
	if cfg.MaxContainers <= 0 {
		cfg.MaxContainers = cfg.Instances
	}
	a := &AM{cfg: cfg, eng: eng, net: net, pending: cfg.Instances, rm: net.Endpoint(RMEndpoint)}
	a.self = net.Register(cfg.App, a.handle)
	a.heartbeat()
	a.timer = eng.Every(cfg.Heartbeat, a.heartbeat)
	return a
}

// heartbeat re-sends the full outstanding demand — the repetitive
// assertion Fuxi's incremental protocol eliminates.
func (a *AM) heartbeat() {
	if a.stopped {
		return
	}
	want := a.pending
	if cap := a.cfg.MaxContainers - a.running; want > cap {
		want = cap
	}
	if want <= 0 {
		return
	}
	a.net.SendID(a.self, a.rm, fullRequest{
		App: a.cfg.App, Size: a.cfg.Size, Outstanding: want,
	})
}

func (a *AM) handle(from transport.EndpointID, msg transport.Message) {
	if a.stopped {
		return
	}
	al, ok := msg.(allocation)
	if !ok {
		return
	}
	if a.pending == 0 || a.running >= a.cfg.MaxContainers {
		// Surplus container (RM allocated from a stale heartbeat): give it
		// straight back.
		a.net.SendID(a.self, a.rm, release{App: a.cfg.App, Machine: al.Machine})
		return
	}
	a.pending--
	a.running++
	// One task per container: start cost + execution, then the container
	// is reclaimed by the RM and the next task needs a fresh round.
	a.eng.After(a.cfg.StartDelay+a.cfg.Duration, func() {
		a.running--
		a.done++
		a.net.SendID(a.self, a.rm, release{App: a.cfg.App, Machine: al.Machine})
		if a.done == a.cfg.Instances {
			a.finish()
			return
		}
		// The next container arrives only after a future heartbeat round
		// reasserts demand — no locality-tree auto-regrant.
	})
}

func (a *AM) finish() {
	if a.stopped {
		return
	}
	a.stopped = true
	if a.timer != nil {
		a.timer()
	}
	a.net.Unregister(a.cfg.App)
	if a.cfg.OnDone != nil {
		a.cfg.OnDone()
	}
}

// Done reports completion.
func (a *AM) Done() bool { return a.stopped }

// Progress returns (done, total).
func (a *AM) Progress() (int, int) { return a.done, a.cfg.Instances }

// Result summarizes a baseline or Fuxi-side comparison run.
type Result struct {
	MakespanSec float64
	Messages    uint64
	Bytes       uint64
	Decisions   int
}

func (r Result) String() string {
	return fmt.Sprintf("makespan=%.1fs messages=%d bytes=%d decisions=%d",
		r.MakespanSec, r.Messages, r.Bytes, r.Decisions)
}

// RunWorkload executes one baseline application to completion on a fresh
// simulated cluster and reports makespan and traffic.
func RunWorkload(top *topology.Topology, cfg AMConfig, seed int64) (Result, error) {
	eng := sim.NewEngine(seed)
	net := transport.NewNet(eng)
	rm := NewRM(eng, net, top)
	var doneAt sim.Time = -1
	cfg.OnDone = func() { doneAt = eng.Now() }
	am := NewAM(cfg, eng, net)
	limit := 10 * sim.Hour
	eng.Run(limit)
	if !am.Done() {
		d, n := am.Progress()
		return Result{}, fmt.Errorf("baseline: workload incomplete (%d/%d) after %v", d, n, limit)
	}
	s := net.Stats()
	return Result{
		MakespanSec: doneAt.Seconds(),
		Messages:    s.Sent,
		Bytes:       s.Bytes,
		Decisions:   rm.Decisions,
	}, nil
}
