package agent

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

// nameProcs is the agent's process management as it was while the worker
// plane named applications and workers by strings: a process table keyed by
// the worker's name alone, each process carrying its application's name; the
// plan marks kept under sender name + "/plan/" + worker name; and capacity
// read from the map ledger by application name. A work plan, stop or list
// reply then carried the application's name and the worker's; an honest
// sender named itself, and the reference is fed exactly that: the sender's
// name and workerName(sender, number).
//
// It is the reference the shipped agent's (endpoint, worker number) table is
// driven against: for honest senders the two must start, stop and kill the
// same processes and send the same statuses and list requests in the same
// order. Three orders that compare processes of different applications — the
// overload killer's tie-break, the orphan kills after a capacity sync and the
// restart's worker-list requests — were by worker name or application name
// and are by (application endpoint, worker number) in both. A refused plan's
// detail no longer names the application, which is the status's receiver, in
// either. The machine never crashes under this reference.
type nameProcs struct {
	eng     *sim.Engine
	net     *transport.Net
	ledger  *mapLedger
	machine string
	cap     resource.Vector

	procs map[string]*nameProc
	marks map[string]uint64
	tick  sim.Cancel
	// sent is what the reference sent on the worker plane, got what the
	// agent did, each as statusLine or requestLine prints it.
	sent, got []string

	killedForCapacity, killedForOverload int
}

type nameProc struct {
	app   string
	ep    transport.EndpointID // where its reports go
	id    string
	n     uint32
	unit  int
	size  resource.Vector
	state protocol.WorkerState
}

// workerName is the name the string-keyed worker plane gave worker n of app:
// zero-padded, so one application's names sort as its numbers do.
func workerName(app string, n uint32) string { return fmt.Sprintf("%s-w%05d", app, n) }

// statusLine and requestLine print a worker-plane message the way both sides
// of the comparison record it: the receiver by the name the network gives its
// endpoint at send time ("" once retired).
func statusLine(to string, worker uint32, state protocol.WorkerState, detail string) string {
	return fmt.Sprintf("status to %q: worker %d %v %q", to, worker, state, detail)
}

func requestLine(to string) string { return fmt.Sprintf("worker-list request to %q", to) }

// newNameProcs attaches a process reference to ledger for agent a, ticking
// right behind a's own heartbeat timer.
func newNameProcs(a *Agent, ledger *mapLedger) *nameProcs {
	o := &nameProcs{eng: a.eng, net: a.net, ledger: ledger, machine: a.Machine, cap: a.cap, procs: map[string]*nameProc{}}
	ledger.procs = o
	o.tick = o.eng.Every(heartbeatInterval, o.enforceOverload)
	return o
}

func (o *nameProcs) report(p *nameProc, state protocol.WorkerState, detail string) {
	o.sent = append(o.sent, statusLine(o.net.Name(p.ep), p.n, state, detail))
}

// capacity is the old Agent.Capacity, by application name.
func (o *nameProcs) capacity(app string, unit int) int {
	return o.ledger.capacity[oracleKey{o.ledger.appTbl.ID(app), unit}].count
}

// sorted returns the processes in (application endpoint, worker) order.
func (o *nameProcs) sorted() []*nameProc {
	ps := make([]*nameProc, 0, len(o.procs))
	for _, p := range o.procs {
		ps = append(ps, p)
	}
	slices.SortFunc(ps, func(x, y *nameProc) int {
		return cmp.Or(cmp.Compare(x.ep, y.ep), cmp.Compare(x.n, y.n))
	})
	return ps
}

// plan is the old WorkPlan case: the mark, then startWorker. A unit ID wider
// than the wire's 32 bits is dropped first, as the agent drops it (the old
// agent read the low 32 bits' capacity row for it).
func (o *nameProcs) plan(from transport.EndpointID, app string, t protocol.WorkPlan) {
	if int(int32(t.UnitID)) != t.UnitID {
		return
	}
	id := workerName(app, t.Worker)
	k := app + "/plan/" + id
	if t.Seq <= o.marks[k] {
		return
	}
	if o.marks == nil {
		o.marks = map[string]uint64{}
	}
	o.marks[k] = t.Seq
	if _, dup := o.procs[id]; dup {
		return
	}
	p := &nameProc{app: app, ep: from, id: id, n: t.Worker, unit: t.UnitID, size: t.Size, state: protocol.WorkerStarting}
	running := 0
	for _, q := range o.procs {
		if q.app == app && q.unit == t.UnitID {
			running++
		}
	}
	if running >= o.capacity(app, t.UnitID) {
		o.report(p, protocol.WorkerFailed, fmt.Sprintf("no capacity for unit %d on %s", t.UnitID, o.machine))
		return
	}
	o.procs[id] = p
	o.eng.After(defaultWorkerStartDelay, func() {
		if o.procs[id] != p {
			return
		}
		p.state = protocol.WorkerRunning
		o.report(p, protocol.WorkerRunning, "")
	})
}

// stop is the old stopWorker.
func (o *nameProcs) stop(app string, worker uint32) {
	p := o.procs[workerName(app, worker)]
	if p == nil || p.app != app {
		return
	}
	delete(o.procs, p.id)
	p.state = protocol.WorkerFinished
	o.report(p, protocol.WorkerFinished, "")
}

func (o *nameProcs) kill(p *nameProc, detail string) {
	delete(o.procs, p.id)
	p.state = protocol.WorkerFailed
	o.report(p, protocol.WorkerFailed, detail)
}

// ensure is the old ensureCapacity: the highest worker name first.
func (o *nameProcs) ensure(app string, unit, count int) {
	var owned []*nameProc
	for _, p := range o.procs {
		if p.app == app && p.unit == unit {
			owned = append(owned, p)
		}
	}
	sort.Slice(owned, func(i, j int) bool { return owned[i].id < owned[j].id })
	for len(owned) > count {
		o.killedForCapacity++
		o.kill(owned[len(owned)-1], "killed: capacity revoked")
		owned = owned[:len(owned)-1]
	}
}

// afterSync is the enforcement half of the old applyCapacitySync: each row in
// the order the sync first listed it, then the orphans.
func (o *nameProcs) afterSync(rows []oracleKey) {
	for _, k := range rows {
		o.ensure(o.ledger.appTbl.Name(k.app), k.unitID, o.ledger.capacity[k].count)
	}
	for _, p := range o.sorted() {
		if o.capacity(p.app, p.unit) == 0 {
			o.killedForCapacity++
			o.kill(p, "killed: capacity revoked during daemon outage")
		}
	}
}

// enforceOverload is the old overload killer, run on the agent's tick.
func (o *nameProcs) enforceOverload() {
	for len(o.procs) > 0 {
		var total resource.Vector
		for _, p := range o.procs {
			if p.state == protocol.WorkerRunning {
				total = total.Add(p.size)
			}
		}
		if o.cap.CPUMilli() >= total.CPUMilli() && o.cap.MemoryMB() >= total.MemoryMB() {
			return
		}
		var victim *nameProc
		for _, p := range o.sorted() {
			if p.state == protocol.WorkerRunning {
				victim = p // usage is size: every over-share ties at 0
				break
			}
		}
		if victim == nil {
			return
		}
		o.killedForOverload++
		o.kill(victim, "killed: machine overload")
	}
}

// adopt is the old adoptWorkers for a reply from app.
func (o *nameProcs) adopt(from transport.EndpointID, app string, t protocol.WorkerListReply) {
	expect := map[string]uint32{}
	for _, w := range t.Workers {
		expect[workerName(app, w.Worker)] = w.Worker
	}
	var ids []string
	for id, p := range o.procs {
		if p.app == app {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, ok := expect[id]; !ok {
			o.kill(o.procs[id], "killed: not in application worker list")
		}
		delete(expect, id)
	}
	missing := make([]string, 0, len(expect))
	for id := range expect {
		missing = append(missing, id)
	}
	sort.Strings(missing)
	for _, id := range missing {
		o.report(&nameProc{ep: from, n: expect[id]}, protocol.WorkerFailed, "lost during agent outage")
	}
}

// crashDaemon and restartDaemon are the process side of the old daemon
// failover: the marks are daemon memory, the table is the machine's, and the
// restarted daemon asks each application for its list.
func (o *nameProcs) crashDaemon() {
	o.marks = nil
	o.tick()
}

func (o *nameProcs) restartDaemon() {
	o.tick = o.eng.Every(heartbeatInterval, o.enforceOverload)
	last := transport.None
	for _, p := range o.sorted() {
		if p.ep != last {
			o.sent = append(o.sent, requestLine(o.net.Name(p.ep)))
			last = p.ep
		}
	}
}

// table prints the reference's process table in (endpoint, worker) order.
func (o *nameProcs) table() []string {
	var out []string
	for _, p := range o.sorted() {
		out = append(out, fmt.Sprintf("%s/%d unit %d %v", p.app, p.n, p.unit, p.state))
	}
	return out
}

// procTable prints a's process table the way table prints the reference's,
// each application named as name names its endpoint.
func procTable(a *Agent, name func(int32) string) []string {
	var out []string
	for _, p := range a.Procs() {
		out = append(out, fmt.Sprintf("%s/%d unit %d %v", name(int32(p.key.app())), p.key.worker(), p.UnitID, p.State))
	}
	return out
}
