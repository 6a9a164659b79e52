package obs

import (
	"math"
	"testing"
	"testing/quick"
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
