package master

import (
	"slices"
	"strings"

	"repro/internal/protocol"
)

// The machine-major grant index. The per-unit ledgers (unitState.granted)
// answer "where does this unit run"; every per-machine question — evacuate a
// dead or blacklisted machine, build an agent's CapacitySync, audit one
// machine against its agent, probe a healed machine for convergence — is
// answered here, from a flat table of the (app, unit, count) cells on that
// machine, in O(grants on the machine) instead of a scan over every app's
// every unit. credit (grants and failover restores), releaseOn and evacuate
// maintain it next to the ledger; the audit (audit.go) asserts the two are each
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
