package scale

import (
	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/faults"
	"repro/internal/master"
	"repro/internal/obs"
	"repro/internal/sim"
)

// failoverProbe crashes the primary FuxiMaster at Config.MasterFailoverAt
// and times what follows. Recovery is crash → soft state rebuilt and
// scheduling resumed; scheduling pause is crash → first grant from the
// promoted successor delivered to an application.
type failoverProbe struct {
	idleProbe
	h *harness

	recovery   obs.Dist
	schedPause obs.Dist
	// crashAt is the last crash instant; pauseAt arms the scheduling-pause
	// measurement (cleared by the first grant arriving more than 1ms after
	// the crash, which excludes the dead master's in-flight deliveries).
	crashAt sim.Time
	pauseAt sim.Time
	// lost counts containers applications hold at recovery completion that
	// the rebuilt master ledger does not carry; reissued the containers the
	// promoted masters' post-recovery assignment passes granted.
	lost     uint64
	reissued uint64
}

func newFailoverProbe(h *harness) *failoverProbe {
	return &failoverProbe{h: h}
}

// need asks for a hot standby that reports its recoveries here.
func (p *failoverProbe) need(cc *core.Config) {
	cc.Standby = true
	cc.Master.OnRecovered = p.recovered
}

// arm schedules the crashes. Each crashed process restarts as the new
// standby once its successor's recovery window has passed, so repeated
// failovers alternate the pair.
func (p *failoverProbe) arm() {
	for _, at := range p.h.cfg.MasterFailoverAt {
		p.h.inj.Apply(faults.Schedule{{
			Kind: faults.FuxiMasterFailure, At: at, For: master.LockTTL + master.RecoveryWindow + sim.Second,
		}})
	}
}

func (p *failoverProbe) fault(f faults.Fault, open bool) {
	if f.Kind == faults.FuxiMasterFailure && open {
		p.crashAt = p.h.eng.Now()
		p.pauseAt = p.crashAt
	}
}

func (p *failoverProbe) granted(int32, int) {
	if now := p.h.eng.Now(); p.pauseAt != 0 && now-p.pauseAt > sim.Millisecond {
		// First grant from the promoted successor (the dead master's
		// in-flight deliveries all land within one message latency).
		p.schedPause.Observe(float64(now-p.pauseAt) / float64(sim.Millisecond))
		p.pauseAt = 0
	}
}

// recovered is master.Config.OnRecovered: it measures one completed
// failover — recovery latency, grants the rebuilt ledger lost versus the
// applications' views, grants reissued by the post-recovery assignment pass.
func (p *failoverProbe) recovered(epoch, reissuedGrants int) {
	h := p.h
	if p.crashAt != 0 {
		p.recovery.Observe(float64(h.eng.Now()-p.crashAt) / float64(sim.Millisecond))
	}
	p.reissued += uint64(reissuedGrants)
	s := h.primarySched()
	if s == nil {
		return
	}
	for _, a := range h.apps {
		if a.done {
			continue
		}
		for _, u := range a.am.Units() {
			dense.Merge(a.am.HeldCells(u.ID), s.GrantedCells(a.name, u.ID), func(_ uint64, held, granted int) {
				if d := held - granted; d > 0 {
					p.lost += uint64(d)
				}
			})
		}
	}
}

func (p *failoverProbe) report(res *Result) {
	h := p.h
	res.MasterFailovers = h.inj.Fired(faults.FuxiMasterFailure)
	res.RecoveryMeanMS = p.recovery.Mean()
	res.RecoveryP50MS = p.recovery.Quantile(0.5)
	res.RecoveryP99MS = p.recovery.Quantile(0.99)
	res.RecoveryMaxMS = p.recovery.Max()
	res.SchedPauseP50MS = p.schedPause.Quantile(0.5)
	res.SchedPauseP99MS = p.schedPause.Quantile(0.99)
	res.SchedPauseMaxMS = p.schedPause.Max()
	res.GrantsLost = p.lost
	res.GrantsReissued = p.reissued
	ck := h.cl.Ckpt
	res.CheckpointWrites = ck.Writes
	res.CheckpointBytes = ck.Bytes()
	if saved := h.cfg.Apps; saved > 0 {
		res.CheckpointBytesPerJob = float64(ck.Bytes()) / float64(saved)
	}
}
