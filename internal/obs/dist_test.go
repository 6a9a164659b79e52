package obs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestDistQuantiles(t *testing.T) {
	var d Dist
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	if got := d.Quantile(0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := d.Quantile(0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := d.Max(); got != 100 {
		t.Errorf("max = %v", got)
	}
	if got := d.Quantile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := d.Mean(); got != 50.5 {
		t.Errorf("mean = %v, want 50.5", got)
	}
}

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.Quantile(0.5) != 0 || d.Mean() != 0 || d.Max() != 0 || d.Count() != 0 {
		t.Error("empty distribution stats not zero")
	}
}

func TestDistObserveAfterQuantile(t *testing.T) {
	var d Dist
	d.Observe(5)
	_ = d.Quantile(0.5)
	d.Observe(1) // must re-sort
	if got := d.Quantile(0); got != 1 {
		t.Errorf("min after late observe = %v, want 1", got)
	}
}

// TestDistMeanIgnoresQuantileReads pins the arrival-order mean: summed in
// arrival order, 2⁵³ + 1 + 1 loses both ones (each addition rounds back to
// 2⁵³); summed sorted, 1 + 1 + 2⁵³ keeps them. A mean that re-summed the
// samples after a quantile read sorted them would move.
func TestDistMeanIgnoresQuantileReads(t *testing.T) {
	big := math.Ldexp(1, 53)
	var read, fresh Dist
	for _, v := range []float64{big, 1, 1} {
		read.Observe(v)
		fresh.Observe(v)
	}
	_ = read.Quantile(0.5)
	if got, want := read.Mean(), fresh.Mean(); got != want {
		t.Fatalf("mean after a quantile read = %v, fresh distribution's = %v", got, want)
	}
}

func TestDistReset(t *testing.T) {
	var d Dist
	d.Observe(7)
	d.Observe(3)
	_ = d.Max()
	d.Reset()
	d.Observe(2)
	if d.Count() != 1 || d.Mean() != 2 || d.Max() != 2 || d.Quantile(0) != 2 {
		t.Fatalf("after Reset: count %d mean %v max %v min %v", d.Count(), d.Mean(), d.Max(), d.Quantile(0))
	}
}

func TestPropDistQuantileMonotone(t *testing.T) {
	f := func(vals []float64, q1, q2 float64) bool {
		var d Dist
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d.Observe(v)
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if a > b {
			a, b = b, a
		}
		return d.Quantile(a) <= d.Quantile(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropDistMeanBetweenMinMax(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		var d Dist
		for _, v := range vals {
			d.Observe(float64(v))
		}
		m := d.Mean()
		return m >= d.Quantile(0)-1e-9 && m <= d.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// distinctValues returns k distinct latency-shaped values in shuffled order.
func distinctValues(rng *rand.Rand, k int) []float64 {
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = float64(i*7919+13) / 1e3
	}
	rng.Shuffle(k, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return vals
}

// TestDistStorageFollowsDistinctValues: 10⁶ samples over K distinct values
// never hold storage for more than 2K values, counting each cell and each
// pending sample's slot, and a read leaves exactly K cells.
func TestDistStorageFollowsDistinctValues(t *testing.T) {
	for _, k := range []int{1, 12, 400} {
		rng := rand.New(rand.NewSource(int64(k)))
		vals := distinctValues(rng, k)
		var d Dist
		peak := 0
		for range 1_000_000 {
			d.Observe(vals[rng.Intn(k)])
			peak = max(peak, cap(d.cells)+cap(d.tail))
		}
		if peak > 2*k {
			t.Errorf("K=%d: storage peaked at %d values, want <= %d", k, peak, 2*k)
		}
		if d.Max(); len(d.cells) != k || len(d.tail) != 0 {
			t.Errorf("K=%d: %d cells and %d pending after a read, want %d and 0", k, len(d.cells), len(d.tail), k)
		}
	}
}

// TestDistMillionDistinctValues guards against a sorted insert coming back:
// 10⁶ distinct values in descending order make every one a new smallest
// cell, which an insert in place pays for with O(d²) moves (it did not finish
// in minutes). The merging tail takes about 0.05 s on a 2-vCPU x86-64 host
// (0.5 s under the race detector), so the budget is 10 s.
func TestDistMillionDistinctValues(t *testing.T) {
	const n = 1_000_000
	start := time.Now()
	var d Dist
	for i := n; i > 0; i-- {
		d.Observe(float64(i))
	}
	if got := d.Quantile(0.5); got != n/2 {
		t.Fatalf("p50 = %v, want %v", got, n/2)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("10⁶ distinct values took %v, budget 10s", elapsed)
	}
}

// TestDistRefillAllocatesNothing: Reset keeps every value as an empty cell,
// so a run's measurement phase refilling the warm-up's values allocates
// nothing, and reads the same quantiles as a fresh Dist.
func TestDistRefillAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := distinctValues(rng, 400)
	stream := make([]float64, 20_000)
	for i := range stream {
		stream[i] = vals[rng.Intn(len(vals))]
	}
	var d, fresh Dist
	for _, v := range stream {
		d.Observe(v)
		fresh.Observe(v)
	}
	if n := testing.AllocsPerRun(20, func() {
		d.Reset()
		for _, v := range stream {
			d.Observe(v)
		}
	}); n != 0 {
		t.Fatalf("Reset and refill allocate %v times, want 0", n)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if a, b := d.Quantile(q), fresh.Quantile(q); a != b {
			t.Errorf("Quantile(%v) after refill = %v, fresh %v", q, a, b)
		}
	}
	if d.Count() != fresh.Count() || d.Mean() != fresh.Mean() {
		t.Errorf("after refill: count %d mean %v, fresh %d %v", d.Count(), d.Mean(), fresh.Count(), fresh.Mean())
	}
}
