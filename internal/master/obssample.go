package master

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/transport"
)

// obsClassKey identifies a cluster-queue size class in the lazily built
// queue-depth series table. Opaque classes (units with virtual dimensions)
// collapse onto one key.
type obsClassKey struct {
	cpu, mem int64
	opaque   bool
}

// obsRec is the master's per-round observability recorder: the series
// handles into the shared obs.Store, resolved once at promotion so the
// per-round sample is pure Advance+Set arithmetic with zero steady-state
// allocations. All slices are indexed by the dense rack ID.
type obsRec struct {
	store *obs.Store

	freeCPU     obs.SeriesID // cluster aggregate free CPU (milli)
	freeMem     obs.SeriesID // cluster aggregate free memory (MB)
	grantedCPU  obs.SeriesID // capacity minus free (used + held)
	queueTotal  obs.SeriesID // live cluster-queue entries, all classes
	preempts    obs.SeriesID // cumulative quota preemptions
	flapSum     obs.SeriesID // sum of machine flap scores
	blacklisted obs.SeriesID // machines pinned by the flap blacklist
	ckptWrites  obs.SeriesID // cumulative checkpoint mutations
	ckptBytes   obs.SeriesID // cumulative checkpoint bytes (delta + anchor)
	netSent     obs.SeriesID // cumulative transport sends
	netDropped  obs.SeriesID // cumulative transport drops

	rackFreeCPU    []obs.SeriesID
	rackGrantedCPU []obs.SeriesID
	rackCapCPU     []int64 // rack ID -> aggregate CPU capacity (milli)
	totalCapCPU    int64

	// classIDs maps cluster-queue size classes to their lazily registered
	// "queue.depth" series; registration is the only allocation the sample
	// path can perform, and only the first time a class shape appears.
	classIDs map[obsClassKey]obs.SeriesID

	// depthFn and rackFn are the pre-bound sweep callbacks; binding them
	// once keeps each round's sweep from allocating a closure.
	depthFn func(cpuMilli, memMB int64, opaque bool, depth int)
	rackFn  func(rack int32, free resource.Vector)

	// sweep accumulators, reset at the top of each sample.
	sumFreeCPU, sumFreeMem, sumDepth int64
}

// initObs resolves every series handle against cfg.Obs. Called on each
// promotion; obs.Store registration is idempotent, so a re-promoted standby
// reuses the series the predecessor created in a shared store.
func (m *Master) initObs() {
	o := &m.obs
	o.store = m.cfg.Obs
	st := o.store
	o.freeCPU = st.Register("cluster.free_cpu", "")
	o.freeMem = st.Register("cluster.free_mem", "")
	o.grantedCPU = st.Register("cluster.granted_cpu", "")
	o.queueTotal = st.Register("queue.total", "")
	o.preempts = st.Register("preempt.total", "")
	o.flapSum = st.Register("flap.score_sum", "")
	o.blacklisted = st.Register("blacklist.machines", "")
	o.ckptWrites = st.Register("ckpt.writes", "")
	o.ckptBytes = st.Register("ckpt.bytes", "")
	o.netSent = st.Register("net.sent", "")
	o.netDropped = st.Register("net.dropped", "")

	nRack := m.top.NumRacks()
	o.rackFreeCPU = make([]obs.SeriesID, nRack)
	o.rackGrantedCPU = make([]obs.SeriesID, nRack)
	o.rackCapCPU = make([]int64, nRack)
	o.totalCapCPU = 0
	for id := int32(0); id < int32(m.top.Size()); id++ {
		c := m.top.MachineByID(id).Capacity.CPUMilli()
		o.rackCapCPU[m.top.RackIDOf(id)] += c
		o.totalCapCPU += c
	}
	for r := 0; r < nRack; r++ {
		name := m.top.RackName(int32(r))
		o.rackFreeCPU[r] = st.Register("rack.free_cpu", name)
		o.rackGrantedCPU[r] = st.Register("rack.granted_cpu", name)
	}
	if o.classIDs == nil {
		o.classIDs = make(map[obsClassKey]obs.SeriesID)
	}
	o.rackFn = func(rack int32, free resource.Vector) {
		cpu := free.CPUMilli()
		o.sumFreeCPU += cpu
		o.sumFreeMem += free.MemoryMB()
		o.store.Set(o.rackFreeCPU[rack], cpu)
		o.store.Set(o.rackGrantedCPU[rack], o.rackCapCPU[rack]-cpu)
	}
	o.depthFn = func(cpuMilli, memMB int64, opaque bool, depth int) {
		key := obsClassKey{cpu: cpuMilli, mem: memMB, opaque: opaque}
		id, ok := o.classIDs[key]
		if !ok {
			label := "opaque"
			if !opaque {
				label = fmt.Sprintf("c%dx%d", cpuMilli, memMB)
			}
			id = o.store.Register("queue.depth", label)
			o.classIDs[key] = id
		}
		o.store.Set(id, int64(depth))
		o.sumDepth += int64(depth)
	}
}

// sampleObs records one sample row: called at the end of every scheduling
// round while this process is the primary and observability is configured.
// The path is alloc-free in steady state (see TestMasterSamplingIsAllocFree
// and the scalesim calibration budget).
func (m *Master) sampleObs() {
	o := &m.obs
	st := o.store
	st.Advance(m.eng.Now())
	o.sumFreeCPU, o.sumFreeMem, o.sumDepth = 0, 0, 0
	m.sched.ForEachRackFree(o.rackFn)
	m.sched.ClusterQueueDepths(o.depthFn)
	st.Set(o.freeCPU, o.sumFreeCPU)
	st.Set(o.freeMem, o.sumFreeMem)
	st.Set(o.grantedCPU, o.totalCapCPU-o.sumFreeCPU)
	st.Set(o.queueTotal, o.sumDepth)
	st.Set(o.preempts, m.sched.Preemptions())
	var flaps, black int64
	for id := range m.flap {
		flaps += int64(m.flap[id])
		if m.pins[id]&pinFlap != 0 {
			black++
		}
	}
	st.Set(o.flapSum, flaps)
	st.Set(o.blacklisted, black)
	st.Set(o.ckptWrites, int64(m.ckpt.Writes))
	st.Set(o.ckptBytes, m.ckpt.Bytes())
	ns := m.net.Stats()
	st.Set(o.netSent, int64(ns.Sent))
	st.Set(o.netDropped, int64(ns.Dropped))
	if m.cfg.ObsSampler != nil {
		m.cfg.ObsSampler(m.eng.Now())
	}
}

// SampleObs records one observability sample outside the scheduling-round
// cadence — harness calibration and tests use it to drive the record path
// deterministically. It is a no-op on standbys or when Config.Obs is unset.
func (m *Master) SampleObs() {
	if !m.IsPrimary() || m.cfg.Obs == nil {
		return
	}
	m.sampleObs()
}

// handleObsQuery answers a live time-series query over the transport. The
// analytical read shares nothing mutable with the record path beyond the
// ring itself, so queries mid-run cannot perturb scheduling state; ServerNS
// reports the wall-clock cost of the scan for the harness's query-latency
// histogram (it is never part of simulated-time determinism).
func (m *Master) handleObsQuery(from tr, t obs.QueryRequest) {
	if m.cfg.Obs == nil {
		return
	}
	start := time.Now()
	resp := m.cfg.Obs.Answer(t, m.epoch)
	resp.ServerNS = time.Since(start).Nanoseconds()
	m.net.SendID(m.epID, from, resp)
}

// obsQueryMsg asserts the wire types at compile time.
var (
	_ transport.Sizer = obs.QueryRequest{}
	_ transport.Sizer = obs.QueryResponse{}
)
