package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// Histogram is the distribution every run-level percentile came from before
// Dist: a named sample list with its own nearest-rank rule (ceil(q·n) − 1,
// clamped at both ends) and a mean summed over the stored order — which, after
// a quantile read, is the sorted order. Its body is kept verbatim (less the
// Summary string) as the reference the differential tests below drive Dist
// against.
type Histogram struct {
	Name    string
	samples []float64
	sorted  bool
}

// NewHistogram returns an empty named histogram.
func NewHistogram(name string) *Histogram { return &Histogram{Name: name} }

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	h.samples = append(h.samples, v)
	h.sorted = false
}

// Count returns the sample count.
func (h *Histogram) Count() int { return len(h.samples) }

// Reset drops all samples (tests isolating one measurement phase).
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.sorted = false
}

// Mean returns the average (0 when empty).
func (h *Histogram) Mean() float64 {
	if len(h.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank; 0 when
// empty.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[len(h.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// sameBits reports bit-for-bit equality (no tolerance, -0 ≠ +0).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestDistMatchesHistogramOracle drives Dist and the Histogram it replaced
// with the same seeded streams — ties, latency-shaped values, values large
// enough that summation order shows in the mean, resets, and reads
// interleaved with observations. Count, the quantiles at 0/.5/.99/1 and Max
// must agree bit-for-bit after every step; Mean must agree wherever the
// oracle has not sorted its samples since the last Reset (after that it sums
// in sorted order, which is the bug Dist's running sum removes).
func TestDistMatchesHistogramOracle(t *testing.T) {
	draws := []struct {
		name string
		v    func(*rand.Rand) float64
	}{
		{"ties", func(r *rand.Rand) float64 { return float64(r.Intn(6)) }},
		{"latency-ms", func(r *rand.Rand) float64 { return float64(r.Int63n(90*1e9)) / 1e6 }},
		{"signed", func(r *rand.Rand) float64 { return r.NormFloat64() * 1e3 }},
		{"order-sensitive", func(r *rand.Rand) float64 {
			if r.Intn(4) == 0 {
				return math.Ldexp(1, 53)
			}
			return float64(1 + r.Intn(3))
		}},
	}
	qs := []float64{0, 0.5, 0.99, 1}
	for _, dr := range draws {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var got Dist
			want := NewHistogram("oracle")
			sortedOracle := false
			for op := 0; op < 4000; op++ {
				switch r := rng.Intn(100); {
				case r < 80:
					v := dr.v(rng)
					got.Observe(v)
					want.Observe(v)
				case r < 82:
					got.Reset()
					want.Reset()
					sortedOracle = false
				case r < 94:
					q := qs[rng.Intn(len(qs))]
					if a, b := got.Quantile(q), want.Quantile(q); !sameBits(a, b) {
						t.Fatalf("%s seed %d op %d: Quantile(%v) = %v, oracle %v", dr.name, seed, op, q, a, b)
					}
					sortedOracle = sortedOracle || want.Count() > 0
				default:
					if a, b := got.Max(), want.Max(); !sameBits(a, b) {
						t.Fatalf("%s seed %d op %d: Max = %v, oracle %v", dr.name, seed, op, a, b)
					}
					sortedOracle = sortedOracle || want.Count() > 0
				}
				if got.Count() != want.Count() {
					t.Fatalf("%s seed %d op %d: Count = %d, oracle %d", dr.name, seed, op, got.Count(), want.Count())
				}
				if !sortedOracle {
					if a, b := got.Mean(), want.Mean(); !sameBits(a, b) {
						t.Fatalf("%s seed %d op %d: Mean = %v, oracle %v", dr.name, seed, op, a, b)
					}
				}
			}
		}
	}
}

// TestNearestRankMatchesCeilRule pins the rank-rule equivalence that lets
// Dist take the store's nearestRank in place of the Histogram's ceil rule:
// over n from the table, both types holding the same shuffled samples return
// the same quantile at every q a lane, the benchmark or Figure 9 reads, and
// the two index formulas agree for every n up to 10⁵.
func TestNearestRankMatchesCeilRule(t *testing.T) {
	qs := []float64{0, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	ceilRank := func(n int, q float64) int {
		switch {
		case q <= 0:
			return 0
		case q >= 1:
			return n - 1
		}
		return max(int(math.Ceil(q*float64(n)))-1, 0)
	}
	for n := 1; n <= 100_000; n++ {
		for _, q := range qs {
			if a, b := nearestRank(n, q), ceilRank(n, q); a != b {
				t.Fatalf("n=%d q=%v: nearestRank %d, ceil rule %d", n, q, a, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 99, 100, 101, 10_000, 1_000_000} {
		var got Dist
		want := NewHistogram("oracle")
		for i := 0; i < n; i++ {
			v := rng.Float64()
			got.Observe(v)
			want.Observe(v)
		}
		for _, q := range qs {
			if a, b := got.Quantile(q), want.Quantile(q); !sameBits(a, b) {
				t.Errorf("n=%d: Quantile(%v) = %v, oracle %v", n, q, a, b)
			}
		}
	}
}
