// Package lockservice provides the lease-based distributed lock that Fuxi's
// hot-standby FuxiMaster pair uses for mutual exclusion (paper §4.3.1: "these
// two masters are mutually excluded by using a distributed lock on the Apsara
// lock service"). Holders must renew within the lease TTL; when the primary
// crashes and stops renewing, the lease expires and the standby's pending
// acquire succeeds, making it the new primary.
package lockservice

import (
	"repro/internal/sim"
)

// Service is a single in-process lock registry driven by the simulation
// engine. It is deliberately modelled as an always-available coordination
// service: the paper assumes Apsara's lock service does not fail.
type Service struct {
	eng   *sim.Engine
	locks map[string]*lock
}

type waiter struct {
	holder string
	fn     func()
	gone   bool
}

type lock struct {
	holder  string
	token   uint64
	expires sim.Time
	ttl     sim.Time
	waiters []*waiter
	expiry  sim.Cancel
}

// New returns an empty lock service.
func New(eng *sim.Engine) *Service {
	return &Service{eng: eng, locks: make(map[string]*lock)}
}

// TryAcquire attempts to grab name for holder with the given TTL. It returns
// true on success. Re-acquiring a lock already held by the same holder
// renews it.
func (s *Service) TryAcquire(name, holder string, ttl sim.Time) bool {
	l := s.locks[name]
	if l == nil {
		l = &lock{}
		s.locks[name] = l
	}
	if l.holder != "" && l.holder != holder {
		return false
	}
	if l.holder != holder {
		// Ownership changed hands: bump the fencing token so writes
		// authorized under the previous ownership are rejectable.
		l.token++
	}
	l.holder = holder
	l.ttl = ttl
	s.armExpiry(name, l)
	return true
}

// AcquireOrWait grabs the lock now if free, otherwise queues acquired to be
// invoked when the lock becomes available to this holder (release or lease
// expiry). This is the standby master's "grasp the lock" path. The returned
// cancel removes the waiter.
func (s *Service) AcquireOrWait(name, holder string, ttl sim.Time, acquired func()) sim.Cancel {
	if s.TryAcquire(name, holder, ttl) {
		acquired()
		return func() {}
	}
	l := s.locks[name]
	w := &waiter{holder: holder, fn: func() {
		if s.TryAcquire(name, holder, ttl) {
			acquired()
		}
	}}
	l.waiters = append(l.waiters, w)
	return func() { w.gone = true }
}

// Renew extends holder's lease. It returns false when holder no longer owns
// the lock (e.g. the lease already expired and another holder took over) —
// the signal for a deposed primary to stand down.
func (s *Service) Renew(name, holder string) bool {
	l := s.locks[name]
	if l == nil || l.holder != holder {
		return false
	}
	s.armExpiry(name, l)
	return true
}

// Release frees the lock when held by holder and wakes the next waiter.
func (s *Service) Release(name, holder string) {
	l := s.locks[name]
	if l == nil || l.holder != holder {
		return
	}
	s.free(name, l)
}

// Holder returns the current holder ("" when free).
func (s *Service) Holder(name string) string {
	if l := s.locks[name]; l != nil {
		return l.holder
	}
	return ""
}

func (s *Service) armExpiry(name string, l *lock) {
	if l.expiry != nil {
		l.expiry()
	}
	l.expires = s.eng.Now() + l.ttl
	holder := l.holder
	l.expiry = s.eng.At(l.expires, func() {
		if l.holder == holder && s.eng.Now() >= l.expires {
			s.free(name, l)
		}
	})
}

func (s *Service) free(name string, l *lock) {
	if l.expiry != nil {
		l.expiry()
		l.expiry = nil
	}
	l.holder = ""
	// Wake the first live waiter; it re-runs TryAcquire itself so a
	// cancelled waiter simply falls through to the next.
	for len(l.waiters) > 0 {
		w := l.waiters[0]
		l.waiters = l.waiters[1:]
		if w.gone {
			continue
		}
		w.fn()
		if l.holder != "" {
			return
		}
	}
}
