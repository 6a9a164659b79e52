package dense

// slabMax is the most windows one chunk holds: eight 64-byte windows, half a
// kilobyte. A forty-unit job's books then cost five to ten chunks where they
// cost forty or eighty tables. Chunks of sixteen saved 0.08 more allocations a
// decision on failover but cost 3 % more peak RSS than chunks of eight, and
// chunks of four saved 0.18 fewer for the same RSS (EXPERIMENTS.md, "What a
// unit's books cost").
const slabMax = 8

// Slab gives the tables of one owner — an application's per-unit ledgers —
// their first firstCap cells as windows of shared chunks, so a job pays a few
// allocations for its books instead of one per table. A window is capped at
// firstCap cells: a table that outgrows it is copied out by Put's growth path
// like any other, and can never write into a neighbour's cells; the window it
// left keeps its old cells until the chunk is freed. A chunk lives as long as
// its longest-lived table, which for per-unit tables is their owner's life.
// The zero value cuts one window per chunk, as Put allocates; Expect sizes
// the chunks for the tables to come.
type Slab[V any] struct {
	free []Cell[V] // the current chunk's cells not yet handed out
	left int       // tables announced by Expect that have no window yet
}

// Expect announces n more tables to be seeded from s, so that the next chunks
// hold a window for each of them (up to slabMax a chunk).
func (s *Slab[V]) Expect(n int) { s.left += n }

// window hands out an empty window of firstCap cells, cutting a new chunk when
// the current one is spent.
func (s *Slab[V]) window() []Cell[V] {
	if len(s.free) == 0 {
		s.free = make([]Cell[V], min(max(s.left, 1), slabMax)*firstCap)
	}
	w := s.free[:0:firstCap]
	s.free = s.free[firstCap:]
	if s.left > 0 {
		s.left--
	}
	return w
}
