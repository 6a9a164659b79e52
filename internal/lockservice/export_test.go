package lockservice

// This file holds the fencing-token probe and the ownership check: exported for this package's tests, which read
// them, and called by no shipped code.

// Token returns the fencing token of the current ownership of name. The
// token increases every time the lock changes hands, so a holder that was
// partitioned away and lost its lease can never present a current token
// again: downstream state stores should record the token at acquire time and
// reject writes carrying a stale one (see Validate).
func (s *Service) Token(name string) uint64 {
	if l := s.locks[name]; l != nil {
		return l.token
	}
	return 0
}

// Validate reports whether holder still owns name under fencing token token.
// A store guarding writes with Validate rejects a deposed holder's writes
// even after the network heals: its token predates the successor's.
func (s *Service) Validate(name, holder string, token uint64) bool {
	l := s.locks[name]
	return l != nil && l.holder == holder && l.token == token
}
