package dense

import (
	"math/rand"
	"slices"
	"testing"
)

// slabScript turns bytes into a stream of table operations: a cursor that
// reads zeros once the bytes run out.
type slabScript struct{ b []byte }

func (s *slabScript) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// slabTables is how many tables one script drives: enough for several full
// chunks of windows.
const slabTables = 64

// runSlabScript drives two sets of tables through the same operations: got
// draws every empty table's first cells from one shared Slab, want allocates
// its own storage. The first byte is how many tables the slab is told to
// expect; then every operation reads (op, table, key): Put (three ways in
// eight), Delete, DeleteAt, Reset, Take, and Drop, which swaps a table for a
// fresh empty one so the slab seeds more windows than it was told of. Keys
// run over twelve values, so tables outgrow their four-cell windows. After
// every operation every table of got must hold exactly the cells of its twin
// in want — a table that wrote past its window would show up as a neighbour
// that changed.
func runSlabScript(t *testing.T, data []byte) {
	s := &slabScript{b: data}
	var slab Slab[int]
	slab.Expect(int(s.next()) % (2 * slabTables))
	var got, want [slabTables]Map[int]
	for step := 0; len(s.b) > 0 && step < 4096; step++ {
		op, ti, c := s.next()%8, int(s.next())%slabTables, s.next()
		k := uint64(c%12) << 29
		g, w := &got[ti], &want[ti]
		switch op {
		case 0, 1, 2:
			*g.PutFrom(&slab, k) += step + 1
			*w.Put(k) += step + 1
		case 3:
			g.Delete(k)
			w.Delete(k)
		case 4:
			if w.Len() > 0 {
				i := int(c) % w.Len()
				g.DeleteAt(i)
				w.DeleteAt(i)
			}
		case 5:
			g.Reset()
			w.Reset()
		case 6:
			n := 1 + int(c>>4)
			if a, b := Take(g, k, n), Take(w, k, n); a != b {
				t.Fatalf("step %d: Take(table %d, %d, %d) = %d from the slab's table, %d from its own", step, ti, k, n, a, b)
			}
		case 7:
			*g, *w = Map[int]{}, Map[int]{}
		}
		for i := range got {
			if !slices.Equal(got[i].Cells(), want[i].Cells()) {
				t.Fatalf("step %d (op %d on table %d): table %d is %v, want %v", step, op, ti, i, got[i].Cells(), want[i].Cells())
			}
			if n := got[i].Len(); n <= firstCap && cap(got[i].cells) < n {
				t.Fatalf("step %d: table %d holds %d cells in a capacity of %d", step, i, n, cap(got[i].cells))
			}
		}
	}
}

// TestSlabOracle runs the differential oracle over seeded random scripts.
func TestSlabOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*4096+1)
		rng.Read(data)
		runSlabScript(t, data)
	}
}

// FuzzSlabOracle is TestSlabOracle over hostile scripts. The seed corpus in
// testdata/fuzz/FuzzSlabOracle has a table outgrowing its window beside a
// neighbour's, windows crossing a chunk boundary, and tables dropped and
// re-seeded past what the slab was told to expect.
func FuzzSlabOracle(f *testing.F) {
	f.Fuzz(runSlabScript)
}

// TestSlabSeedsInChunks: forty tables seeded from a slab told to expect them
// cost one chunk per slabMax tables, not an allocation apiece, and a table
// that outgrows its window allocates only for itself.
func TestSlabSeedsInChunks(t *testing.T) {
	var tables [40]Map[int]
	if n := testing.AllocsPerRun(20, func() {
		var slab Slab[int]
		slab.Expect(len(tables))
		for i := range tables {
			tables[i] = Map[int]{}
			*tables[i].PutFrom(&slab, uint64(i)) = i
		}
	}); n != (40+slabMax-1)/slabMax {
		t.Fatalf("seeding 40 tables from a slab allocates %v times, want %d chunks", n, (40+slabMax-1)/slabMax)
	}
	chunk := make([]Cell[int], 2*firstCap)
	if n := testing.AllocsPerRun(20, func() {
		clear(chunk)
		m := Map[int]{cells: chunk[:0:firstCap]}
		for k := uint64(1); k <= firstCap+1; k++ {
			*m.Put(k) = 1
		}
		if chunk[firstCap] != (Cell[int]{}) {
			t.Fatal("a table wrote past its window")
		}
	}); n != 1 {
		t.Fatalf("a table outgrowing its window allocates %v times, want 1", n)
	}
}
