package master

import (
	"slices"
	"strings"

	"repro/internal/protocol"
	"repro/internal/resource"
)

// The machine-major grant index. The per-unit ledgers (unitState.granted)
// answer "where does this unit run"; every per-machine question — evacuate a
// dead or blacklisted machine, build an agent's CapacitySync, audit one
// machine against its agent, probe a healed machine for convergence — is
// answered here, from a flat table of the (app, unit, count) cells on that
// machine, in O(grants on the machine) instead of a scan over every app's
// every unit. credit (grants and failover restores), releaseOn and evacuate
// maintain it next to the ledger; CheckInvariants asserts the two are each
// other's transpose.

// grantCell is one (app, unit) holding on one machine.
type grantCell struct {
	app  int32 // dense app ID (Scheduler.appByID)
	unit int32 // index into the app's unitArr
	n    int32 // containers granted, > 0
}

// grantIndex holds every machine's cell table. Tables are carved from
// shared arena blocks — a fresh scheduler (each master promotion builds one)
// costs two allocations, not one per machine — and a table that outgrows
// its chunk moves to a chunk twice the size, abandoning the old one (at most
// as much again as the live tables). Chunks only grow, so once every machine
// has seen its peak cell count the index allocates nothing.
type grantIndex struct {
	cells [][]grantCell // machine ID -> cells, in no particular order
	arena []grantCell   // unused tail of the newest block
}

// grantIndexInitCells is each machine's first chunk. A paper-testbed machine
// holds a few dozen containers, so most tables grow at most twice.
const grantIndexInitCells = 32

func newGrantIndex(machines int) grantIndex {
	x := grantIndex{
		cells: make([][]grantCell, machines),
		arena: make([]grantCell, machines*grantIndexInitCells),
	}
	for m := range x.cells {
		x.cells[m] = x.carve(grantIndexInitCells)
	}
	return x
}

// carve cuts an empty table of capacity n from the arena, opening a new
// block the size of the first when the current one is spent — one allocation
// per few hundred table growths, never one per machine.
func (x *grantIndex) carve(n int) []grantCell {
	if len(x.arena) < n {
		x.arena = make([]grantCell, max(n, len(x.cells)*grantIndexInitCells))
	}
	c := x.arena[:0:n]
	x.arena = x.arena[n:]
	return c
}

// add credits k containers of (app, unit) on machine. fresh says the ledger
// held none there before, so there is no cell to look for.
func (x *grantIndex) add(machine, app, unit int32, k int, fresh bool) {
	cells := x.cells[machine]
	if !fresh {
		for i := range cells {
			if cells[i].app == app && cells[i].unit == unit {
				cells[i].n += int32(k)
				return
			}
		}
	}
	if len(cells) == cap(cells) {
		cells = append(x.carve(2*cap(cells)), cells...)
	}
	x.cells[machine] = append(cells, grantCell{app: app, unit: unit, n: int32(k)})
}

// sub debits k containers of (app, unit) on machine, dropping the cell when
// it empties.
func (x *grantIndex) sub(machine, app, unit int32, k int) {
	cells := x.cells[machine]
	for i := range cells {
		if cells[i].app == app && cells[i].unit == unit {
			if cells[i].n -= int32(k); cells[i].n <= 0 {
				last := len(cells) - 1
				cells[i] = cells[last]
				x.cells[machine] = cells[:last]
			}
			return
		}
	}
}

// cellsInOrder sorts machine's table by (app name, unit index) in place and
// returns it — the order the all-apps scans this index replaced emitted in,
// so revocation and capacity-sync streams stay byte-identical.
func (s *Scheduler) cellsInOrder(machine int32) []grantCell {
	cells := s.grants.cells[machine]
	slices.SortFunc(cells, func(a, b grantCell) int {
		if a.app != b.app {
			return strings.Compare(s.appByID[a.app].name, s.appByID[b.app].name)
		}
		return int(a.unit - b.unit)
	})
	return cells
}

// ForEachGrantOn visits every (app, unit, count) the ledger holds on one
// machine, in no particular order, without allocating. fn must not call
// back into the scheduler's mutating methods.
func (s *Scheduler) ForEachGrantOn(machine int32, fn func(app string, unitID, count int)) {
	if machine < 0 || machine >= s.nMach {
		return
	}
	for _, c := range s.grants.cells[machine] {
		st := s.appByID[c.app]
		fn(st.name, st.unitArr[c.unit].def.ID, int(c.n))
	}
}

// capacityTable is machine's full granted capacity table in (app name, unit
// index) order — the payload of a CapacitySync.
func (s *Scheduler) capacityTable(machine int32) []protocol.CapacityEntry {
	cells := s.cellsInOrder(machine)
	if len(cells) == 0 {
		return nil
	}
	entries := make([]protocol.CapacityEntry, len(cells))
	for i, c := range cells {
		st := s.appByID[c.app]
		u := &st.unitArr[c.unit]
		entries[i] = protocol.CapacityEntry{App: int32(st.ep), UnitID: u.def.ID, Size: u.def.Size, Count: int(c.n)}
	}
	return entries
}

// unitCell is a grantCell seen from its unit: where, and how many.
type unitCell struct{ machine, n int32 }

// auditScratch is CheckInvariants' working memory, kept between calls: the
// audit runs every virtual second inside measured windows, and like the
// convergence probe it should leave no garbage behind.
type auditScratch struct {
	vecs     []resource.Vector
	base, at []int32
	byUnit   []unitCell
}

// zeroed returns buf resized to n zero elements, reallocating only to grow.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// cellsByUnit regroups the whole index by unit for CheckInvariants (a
// counting sort over the cells): the cells of app a's i-th unit are
// byUnit[at[slot]:at[slot+1]] with slot = base[a.id]+i. Cells naming no
// registered app or unit are reported into bad and left out.
func (s *Scheduler) cellsByUnit(bad *[]string) (base, at []int32, byUnit []unitCell) {
	a := &s.audit
	a.base = zeroed(a.base, len(s.appByID))
	units := int32(0)
	for _, st := range s.apps {
		a.base[st.id] = units
		units += int32(len(st.unitArr))
	}
	known := func(c grantCell) bool {
		st := s.appStateByID(c.app)
		return st != nil && int(c.unit) < len(st.unitArr)
	}
	a.at = zeroed(a.at, int(units)+1)
	for m, cells := range s.grants.cells {
		for _, c := range cells {
			if !known(c) {
				*bad = append(*bad, "index: machine "+s.top.MachineName(int32(m))+": cell of an unregistered app or unit")
				continue
			}
			a.at[a.base[c.app]+c.unit]++
		}
	}
	for i := int32(1); i <= units; i++ {
		a.at[i] += a.at[i-1] // the end of slot i's run; at[units] is the total
	}
	a.byUnit = zeroed(a.byUnit, int(a.at[units]))
	for m, cells := range s.grants.cells {
		for _, c := range cells {
			if known(c) {
				slot := a.base[c.app] + c.unit
				a.at[slot]-- // fill each run from its end, leaving at[slot] at its start
				a.byUnit[a.at[slot]] = unitCell{machine: int32(m), n: c.n}
			}
		}
	}
	return a.base, a.at, a.byUnit
}
