package obs

import "slices"

// Dist is an exact distribution of float64 samples — a latency or a
// makespan, one value per observation — with the store's nearest-rank
// quantiles. It keeps every distinct value with a count, so a quantile is the
// sample at that rank, not an estimate, while memory follows the distinct
// values seen rather than the samples: every sample is a duration divided by
// a constant, and a run's latencies repeat a few hundred values hundreds of
// thousands of times. The mean is a running sum in arrival order, so reading
// a quantile never changes a later mean. The zero value is empty and ready to
// use.
//
// The domain is every float64 except NaN, which no duration produces. −0 and
// +0 share one cell, which holds +0.
//
// The cells are sorted by value. A sample that does not repeat the value of
// the last cell merged goes to an unsorted pending tail, and once the tail is
// as long as the cells it is sorted and merged into them, so a sample costs
// amortised O(log d) for d distinct values and no value is ever inserted in
// place. Observe does not binary-search the cells: in a run the table is cold
// by the next sample, and a search over ten thousand cells misses the cache
// at nearly every probe, where sorting the tail walks memory in order.
type Dist struct {
	cells []cell    // distinct values, ascending
	tail  []float64 // samples not yet merged, unsorted; shorter than cells
	last  int       // index of the cell of the latest sample merged
	n     int
	sum   float64
}

// cell is one distinct value and how many samples had it.
type cell struct {
	v float64
	n int
}

// Observe adds one sample.
func (d *Dist) Observe(v float64) {
	d.n++
	d.sum += v
	if v == 0 {
		v = 0 // −0 joins +0's cell
	}
	if i := d.last; i < len(d.cells) && d.cells[i].v == v {
		d.cells[i].n++
		return
	}
	if len(d.tail) == cap(d.tail) {
		// The tail never outgrows the cells, so it grows to their length.
		d.tail = append(make([]float64, 0, max(len(d.cells), 1)), d.tail...)
	}
	d.tail = append(d.tail, v)
	if len(d.tail) >= len(d.cells) {
		d.merge()
	}
}

// merge sorts the pending tail and folds it into the cells, which grow to
// exactly the new number of distinct values when they must grow. The merge
// runs back to front inside the cells' own array: a write never lands on an
// old cell still to be read.
func (d *Dist) merge() {
	t := d.tail
	latest := t[len(t)-1]
	slices.Sort(t)
	old := d.cells
	m := len(old)
	for i, j := 0, 0; j < len(t); j++ {
		if j > 0 && t[j] == t[j-1] {
			continue
		}
		for i < len(old) && old[i].v < t[j] {
			i++
		}
		if i == len(old) || old[i].v != t[j] {
			m++
		}
	}
	c := old
	if cap(c) < m {
		c = make([]cell, m)
		copy(c, old)
	}
	c = c[:m]
	w, i, j := m, len(old)-1, len(t)-1
	for j >= 0 {
		v, n := t[j], 0
		for ; j >= 0 && t[j] == v; j-- {
			n++
		}
		for ; i >= 0 && c[i].v > v; i-- {
			w--
			c[w] = c[i]
		}
		if i >= 0 && c[i].v == v {
			n += c[i].n
			i--
		}
		w--
		c[w] = cell{v, n}
		if v == latest {
			d.last = w
		}
	}
	d.cells, d.tail = c, t[:0]
}

// Count returns the number of samples.
func (d *Dist) Count() int { return d.n }

// Mean returns the average (0 when empty).
func (d *Dist) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Quantile returns the nearest-rank q-quantile (0 <= q <= 1); 0 when empty.
func (d *Dist) Quantile(q float64) float64 {
	if d.n == 0 {
		return 0
	}
	if len(d.tail) > 0 {
		d.merge()
	}
	r := nearestRank(d.n, q)
	for _, c := range d.cells {
		if r < c.n {
			return c.v
		}
		r -= c.n
	}
	panic("obs: Dist cells count fewer samples than Count")
}

// Max returns the largest sample (0 when empty).
func (d *Dist) Max() float64 { return d.Quantile(1) }

// Reset drops every sample, keeping the storage (a run restarting its
// measurement at the end of a warm-up). The values seen so far stay as empty
// cells, so a refill over the same values allocates nothing.
func (d *Dist) Reset() {
	if len(d.tail) > 0 {
		d.merge()
	}
	for i := range d.cells {
		d.cells[i].n = 0
	}
	d.n, d.sum = 0, 0
}
