package transport

import (
	"repro/internal/ident"
	"repro/internal/sim"
)

// oracleNet is the network as it was before slots were recycled: an endpoint
// name keeps its dense ID forever and no ID is ever handed out twice. It keeps
// that Net's routing — down set, partitions and isolation, link flaps, delay
// spikes, per-link rules, the global loss, duplication and jitter knobs,
// batches — and draws its random
// numbers in the same order, without the pooling and the per-link stats,
// which route nothing. Retire is the one rule slot recycling adds, stated
// without it: the ID is unregistered, its conditions are cleared, and a
// message to or from it is dropped on arrival. Driven through the same
// script on an engine of the same seed, Net must call every handler exactly
// as this does (FuzzNetRetire).
type oracleNet struct {
	eng        *sim.Engine
	tbl        ident.Table
	eps        []Handler
	dwn        []bool
	retired    []bool
	side       []int8
	flapDown   []bool
	linkDelay  []sim.Time
	rules      map[linkKey]LinkRule
	partActive bool
	isolate    bool
	flapN      int
	delayN     int
	chaos      bool
	stats      Stats
	Latency    sim.Time
	Jitter     sim.Time
	DropRate   float64
	DupRate    float64
}

func newOracleNet(eng *sim.Engine) *oracleNet {
	return &oracleNet{eng: eng, Latency: 200 * sim.Microsecond}
}

func (n *oracleNet) Endpoint(name string) EndpointID {
	id := EndpointID(n.tbl.Intern(name))
	for int(id) >= len(n.eps) {
		n.eps = append(n.eps, nil)
		n.dwn = append(n.dwn, false)
		n.retired = append(n.retired, false)
		n.side = append(n.side, 0)
		n.flapDown = append(n.flapDown, false)
		n.linkDelay = append(n.linkDelay, 0)
	}
	return id
}

func (n *oracleNet) Name(id EndpointID) string       { return n.tbl.Name(int32(id)) }
func (n *oracleNet) Lookup(name string) EndpointID   { return EndpointID(n.tbl.ID(name)) }
func (n *oracleNet) Known(id EndpointID) bool        { return id >= 0 && int(id) < len(n.eps) }
func (n *oracleNet) SetDown(name string, down bool)  { n.dwn[n.Endpoint(name)] = down }
func (n *oracleNet) Register(name string, h Handler) { n.eps[n.Endpoint(name)] = h }

func (n *oracleNet) Unregister(name string) {
	if id := n.tbl.ID(name); id >= 0 {
		n.eps[id] = nil
	}
}

func (n *oracleNet) Retire(name string) {
	id := n.tbl.ID(name)
	if id < 0 {
		return
	}
	n.eps[id], n.dwn[id], n.side[id], n.retired[id] = nil, false, 0, true
	if n.flapDown[id] {
		n.flapDown[id] = false
		n.flapN--
	}
	if n.linkDelay[id] > 0 {
		n.linkDelay[id] = 0
		n.delayN--
	}
	n.recomputeChaos()
}

func (n *oracleNet) Partition(a, b []string) {
	clear(n.side)
	for _, name := range a {
		n.side[n.Endpoint(name)] = 1
	}
	for _, name := range b {
		n.side[n.Endpoint(name)] = 2
	}
	n.partActive, n.isolate = true, false
	n.recomputeChaos()
}

func (n *oracleNet) Isolate(group []string) {
	clear(n.side)
	for _, name := range group {
		n.side[n.Endpoint(name)] = 1
	}
	n.partActive, n.isolate = true, true
	n.recomputeChaos()
}

func (n *oracleNet) Heal() {
	clear(n.side)
	n.partActive = false
	n.recomputeChaos()
}

func (n *oracleNet) SetLinkDelay(name string, extra sim.Time) {
	id := n.Endpoint(name)
	if (n.linkDelay[id] > 0) != (extra > 0) {
		if extra > 0 {
			n.delayN++
		} else {
			n.delayN--
		}
	}
	n.linkDelay[id] = extra
	n.recomputeChaos()
}

func (n *oracleNet) SetLinkDown(name string, down bool) {
	id := n.Endpoint(name)
	if n.flapDown[id] == down {
		return
	}
	n.flapDown[id] = down
	if down {
		n.flapN++
	} else {
		n.flapN--
	}
	n.recomputeChaos()
}

func (n *oracleNet) SetLinkRule(from, to string, r LinkRule) {
	k := linkKey{n.Endpoint(from), n.Endpoint(to)}
	if r == (LinkRule{}) {
		delete(n.rules, k)
	} else {
		if n.rules == nil {
			n.rules = make(map[linkKey]LinkRule)
		}
		n.rules[k] = r
	}
	n.recomputeChaos()
}

func (n *oracleNet) recomputeChaos() {
	n.chaos = n.partActive || n.flapN > 0 || n.delayN > 0 || len(n.rules) > 0
}

func (n *oracleNet) cut(from, to EndpointID) bool {
	if n.flapDown[from] || n.flapDown[to] {
		return true
	}
	if n.partActive {
		a, b := n.side[from], n.side[to]
		if n.isolate {
			if (a == 1) != (b == 1) {
				return true
			}
		} else if a != 0 && b != 0 && a != b {
			return true
		}
	}
	return len(n.rules) > 0 && n.rules[linkKey{from, to}].Cut
}

func (n *oracleNet) linkCheck(from, to EndpointID) (drop, dup bool, extra sim.Time) {
	if n.cut(from, to) {
		return true, false, 0
	}
	extra = n.linkDelay[from] + n.linkDelay[to]
	if r, ok := n.rules[linkKey{from, to}]; ok {
		if r.Drop > 0 && n.eng.Rand().Float64() < r.Drop {
			return true, false, 0
		}
		extra += r.Delay
		if r.Jitter > 0 {
			extra += sim.Time(n.eng.Rand().Int63n(int64(r.Jitter)))
		}
		if r.Dup > 0 && n.eng.Rand().Float64() < r.Dup {
			dup = true
		}
	}
	return false, dup, extra
}

func (n *oracleNet) wireDelay(extra sim.Time) sim.Time {
	d := n.Latency + extra
	if n.Jitter > 0 {
		d += sim.Time(n.eng.Rand().Int63n(int64(n.Jitter)))
	}
	return d
}

func (n *oracleNet) SendID(from, to EndpointID, msg Message) {
	n.send(from, to, []Message{msg})
}

func (n *oracleNet) SendBatchID(from, to EndpointID, msgs []Message) {
	switch len(msgs) {
	case 0:
		return
	case 1:
		n.SendID(from, to, msgs[0])
		return
	}
	n.stats.Batches++
	n.send(from, to, append([]Message(nil), msgs...))
}

// send is SendID and SendBatchID past their differences: one wire unit.
func (n *oracleNet) send(from, to EndpointID, unit []Message) {
	count := uint64(len(unit))
	n.stats.Sent += count
	if n.dwn[from] || n.dwn[to] {
		n.stats.Dropped += count
		return
	}
	var extra sim.Time
	ruleDup := false
	if n.chaos {
		var drop bool
		drop, ruleDup, extra = n.linkCheck(from, to)
		if drop {
			n.stats.Dropped += count
			return
		}
	}
	if n.DropRate > 0 && n.eng.Rand().Float64() < n.DropRate {
		n.stats.Dropped += count
		return
	}
	d := n.wireDelay(extra)
	if ruleDup || (n.DupRate > 0 && n.eng.Rand().Float64() < n.DupRate) {
		n.stats.Duplicated += count
		n.eng.PostFunc(d, func() { n.land(from, to, unit) })
		d = n.wireDelay(extra)
	}
	n.eng.PostFunc(d, func() { n.land(from, to, unit) })
}

func (n *oracleNet) land(from, to EndpointID, unit []Message) {
	count := uint64(len(unit))
	h := n.eps[to]
	if n.retired[from] || n.retired[to] || n.dwn[to] || n.dwn[from] || h == nil || (n.chaos && n.cut(from, to)) {
		n.stats.Dropped += count
		return
	}
	n.stats.Delivered += count
	for _, msg := range unit {
		h(from, msg)
	}
}
