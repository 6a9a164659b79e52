package protocol

import "repro/internal/ident"

// Sequencer issues monotonically increasing sequence numbers for one sender.
// The zero value is ready to use; the first number issued is 1 so that a
// receiver's zero "last seen" compares correctly.
type Sequencer struct {
	next uint64
}

// Next returns the next sequence number.
func (s *Sequencer) Next() uint64 {
	s.next++
	return s.next
}

// Current returns the most recently issued number (0 before the first Next).
func (s *Sequencer) Current() uint64 { return s.next }

// Chan enumerates the per-sender logical channels multiplexed over one
// Dedup. Every sequenced control-plane message addresses its high-water mark
// by (sender endpoint ID, Chan); only the agent's per-worker plan channels,
// whose workers travel by name, go through Observe.
type Chan uint8

const (
	// ChanReg carries RegisterApp.
	ChanReg Chan = iota
	// ChanDem carries DemandUpdate.
	ChanDem
	// ChanUnreg carries UnregisterApp.
	ChanUnreg
	// ChanBad carries BadMachineReport.
	ChanBad
	// ChanCap carries CapacityDelta and CapacitySync.
	ChanCap
	// ChanGrant carries GrantUpdate.
	ChanGrant

	numChans
)

// chanMarks holds one sender's high-water marks, indexed by Chan.
type chanMarks [numChans]uint64

// senderMarks is one row of a hub's by-sender table: the marks of the sender
// whose endpoint ID is id.
type senderMarks struct {
	id    int32
	marks chanMarks
}

// Dedup tracks the highest sequence number seen from each sender and
// classifies incoming numbers. Delta messages must be applied exactly once
// and in order (paper §3.1); duplicates are dropped and gaps flagged so the
// receiver can request (or await) a full-state sync.
//
// The fixed channels keep their marks where the receiver's population puts
// them. An agent or an application master has exactly one fixed-channel
// stream — its capacity or grant stream from the logical master endpoint —
// and keeps that mark inline (peer, peerCh, peerSeq): no table, no allocation,
// one compare per message. A receiver that hears a second stream (the master,
// which hears every application master on four channels) moves to a slice of
// rows indexed by the sender endpoint ID's slot (ident.SlotOf). The transport
// recycles a retired endpoint's slot under a new generation, so each row
// carries the full ID it belongs to: the first mark a later generation writes
// starts the row afresh, and the old generation reads as never seen — it can
// send nothing more, as the transport fences its traffic. The table is as
// long as the endpoints live at once, not the endpoints ever named.
type Dedup struct {
	last map[string]uint64 // free-form channels, by name

	peer    int32 // sender of the inline stream; meaningful once peerSet
	peerCh  Chan
	peerSet bool
	peerSeq uint64
	many    []senderMarks // by sender slot; nil while one stream suffices

	gaps uint64
}

// Verdict classifies an incoming sequence number.
type Verdict int

const (
	// Accept means the message is fresh and in order: apply it.
	Accept Verdict = iota
	// Duplicate means the message was already applied: drop it.
	Duplicate
	// Gap means at least one earlier message was lost. The message itself
	// is still fresh; Observe applies it and records the gap, relying on
	// the periodic full sync to repair the missed delta.
	Gap
)

// Observe classifies seq from sender and advances the high-water mark for
// fresh messages.
func (d *Dedup) Observe(sender string, seq uint64) Verdict {
	last := d.last[sender]
	switch {
	case seq <= last:
		return Duplicate
	case seq == last+1:
		if d.last == nil {
			d.last = make(map[string]uint64)
		}
		d.last[sender] = seq
		return Accept
	default:
		if d.last == nil {
			d.last = make(map[string]uint64)
		}
		d.last[sender] = seq
		d.gaps++
		return Gap
	}
}

// mark returns the high-water mark cell of (sender, ch). With grow false it
// returns nil for a stream never written; with grow true it makes room,
// taking the slot's row over from an earlier generation. A negative sender
// (transport.None) never has a cell.
func (d *Dedup) mark(sender int32, ch Chan, grow bool) *uint64 {
	if d.many == nil && d.peerSet && d.peer == sender && d.peerCh == ch {
		return &d.peerSeq
	}
	if sender < 0 {
		return nil
	}
	if d.many == nil {
		if !grow {
			return nil
		}
		if !d.peerSet {
			d.peer, d.peerCh, d.peerSet = sender, ch, true
			return &d.peerSeq
		}
		// A second stream: this receiver is a hub. Move the inline mark into
		// the by-sender table.
		peer := ident.SlotOf(d.peer)
		d.many = make([]senderMarks, max(peer, ident.SlotOf(sender))+1)
		d.many[peer].id = d.peer
		d.many[peer].marks[d.peerCh] = d.peerSeq
	}
	slot := ident.SlotOf(sender)
	if int(slot) >= len(d.many) {
		if !grow {
			return nil
		}
		// New slots arrive roughly in ascending order, so this usually
		// appends one row; append's doubling keeps the growth amortized.
		for int(slot) >= len(d.many) {
			d.many = append(d.many, senderMarks{})
		}
	}
	r := &d.many[slot]
	if r.id != sender {
		if !grow {
			return nil
		}
		*r = senderMarks{id: sender}
	}
	return &r.marks[ch]
}

// Senders returns the length of the by-sender table: the highest sender slot
// a hub has marks for, plus one (0 for a receiver with one inline stream).
func (d *Dedup) Senders() int { return len(d.many) }

// ObserveCh is Observe addressed by (sender endpoint ID, channel) — the
// hashing-free form for the protocol's fixed channels. The sender is the
// transport-layer EndpointID of the peer (cast to int32).
func (d *Dedup) ObserveCh(sender int32, ch Chan, seq uint64) Verdict {
	m := d.mark(sender, ch, seq > 0)
	if m == nil || seq <= *m {
		return Duplicate
	}
	last := *m
	*m = seq
	if seq == last+1 {
		return Accept
	}
	d.gaps++
	return Gap
}

// ResetCh forgets one (sender, channel) high-water mark, e.g. when the peer
// restarted with a fresh sequencer.
func (d *Dedup) ResetCh(sender int32, ch Chan) {
	if m := d.mark(sender, ch, false); m != nil {
		*m = 0
	}
}

// ResetToCh sets the high-water mark for one (sender, channel), used when a
// full sync carries the sender's current sequence number.
func (d *Dedup) ResetToCh(sender int32, ch Chan, seq uint64) {
	if m := d.mark(sender, ch, seq > 0); m != nil {
		*m = seq
	}
}

// LastCh returns the high-water mark for one (sender, channel) — e.g. the
// highest grant sequence an application master has observed, which the
// full-state sync carries so the master can fence reconciliation against
// its own in-flight grants.
func (d *Dedup) LastCh(sender int32, ch Chan) uint64 {
	if m := d.mark(sender, ch, false); m != nil {
		return *m
	}
	return 0
}

// EpochGate tracks the highest FuxiMaster election epoch a receiver has
// observed and fences messages stamped with an older one — in-flight
// leftovers of a deposed primary that would desynchronize the receiver from
// the promoted successor's rebuilt ledgers. One implementation serves both
// FuxiAgents and application masters so their fencing semantics cannot
// drift apart.
type EpochGate struct {
	epoch int
}

// Current returns the highest epoch observed (0 before any stamped message).
func (g *EpochGate) Current() int { return g.epoch }

// StaleCh classifies a message's epoch stamp. One below the high-water mark —
// a deposed master's, or an unstamped one (0) once any epoch is seen, as
// every primary stamps its epoch from 1 — reports true and must be dropped. A
// newer epoch advances the mark and resets the (sender, ch) dedup channel in
// d: the successor runs a fresh sequencer, and only a real promotion may
// reopen the dedup window (a duplicated hello must not).
func (g *EpochGate) StaleCh(epoch int, d *Dedup, sender int32, ch Chan) bool {
	if epoch < g.epoch {
		return true
	}
	if epoch > g.epoch {
		g.epoch = epoch
		d.ResetCh(sender, ch)
	}
	return false
}
