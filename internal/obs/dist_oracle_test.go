package obs

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// sliceDist is Dist before it kept one cell per distinct value: every sample
// in arrival order, sorted in place by the first quantile read after an
// Observe, with the same running arrival-order sum. Its body is kept verbatim
// as the reference the differential tests and FuzzDistOracle drive Dist
// against.
type sliceDist struct {
	samples []float64
	sum     float64
	sorted  bool
}

// Observe adds one sample.
func (d *sliceDist) Observe(v float64) {
	d.samples = append(d.samples, v)
	d.sum += v
	d.sorted = false
}

// Count returns the number of samples.
func (d *sliceDist) Count() int { return len(d.samples) }

// Mean returns the average (0 when empty).
func (d *sliceDist) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.sum / float64(len(d.samples))
}

// Quantile returns the nearest-rank q-quantile (0 <= q <= 1); 0 when empty.
func (d *sliceDist) Quantile(q float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	if !d.sorted {
		slices.Sort(d.samples)
		d.sorted = true
	}
	return d.samples[nearestRank(len(d.samples), q)]
}

// Max returns the largest sample (0 when empty).
func (d *sliceDist) Max() float64 { return d.Quantile(1) }

// Reset drops every sample, keeping the storage.
func (d *sliceDist) Reset() {
	d.samples = d.samples[:0]
	d.sum = 0
	d.sorted = false
}

// sameBits reports bit-for-bit equality (no tolerance, -0 ≠ +0).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameSample is sameBits, except that −0 and +0 match: Dist keeps one cell for
// both, and the oracles' unstable sorts return either one at a tie.
func sameSample(a, b float64) bool { return sameBits(a, b) || a == 0 && b == 0 }

// sameMean is sameBits, except that any two NaNs match: +Inf and −Inf in
// one stream make every later mean a NaN.
func sameMean(a, b float64) bool { return sameBits(a, b) || math.IsNaN(a) && math.IsNaN(b) }

// distTrio is Dist and both of its predecessors fed the same samples.
type distTrio struct {
	got        Dist
	old        sliceDist
	hist       Histogram
	histSorted bool // hist has sorted its samples since the last Reset
}

func (o *distTrio) observe(v float64) {
	o.got.Observe(v)
	o.old.Observe(v)
	o.hist.Observe(v)
}

func (o *distTrio) reset() {
	o.got.Reset()
	o.old.Reset()
	o.hist.Reset()
	o.histSorted = false
}

// quantile reads q from all three and describes any disagreement ("" when
// none).
func (o *distTrio) quantile(q float64) string {
	a, b, c := o.got.Quantile(q), o.old.Quantile(q), o.hist.Quantile(q)
	o.histSorted = o.histSorted || o.hist.Count() > 0
	if !sameSample(a, b) || !sameSample(a, c) {
		return fmt.Sprintf("Quantile(%v) = %v, slice oracle %v, histogram %v", q, a, b, c)
	}
	return ""
}

func (o *distTrio) max() string {
	a, b, c := o.got.Max(), o.old.Max(), o.hist.Max()
	o.histSorted = o.histSorted || o.hist.Count() > 0
	if !sameSample(a, b) || !sameSample(a, c) {
		return fmt.Sprintf("Max = %v, slice oracle %v, histogram %v", a, b, c)
	}
	return ""
}

// mean compares Mean with the slice oracle always, and with the Histogram
// wherever it has not sorted its samples since the last Reset (after that it
// sums in sorted order, which is the bug the running sum removed).
func (o *distTrio) mean() string {
	a, b := o.got.Mean(), o.old.Mean()
	if !sameMean(a, b) {
		return fmt.Sprintf("Mean = %v, slice oracle %v", a, b)
	}
	if c := o.hist.Mean(); !o.histSorted && !sameMean(a, c) {
		return fmt.Sprintf("Mean = %v, histogram %v", a, c)
	}
	return ""
}

func (o *distTrio) count() string {
	if a, b, c := o.got.Count(), o.old.Count(), o.hist.Count(); a != b || a != c {
		return fmt.Sprintf("Count = %d, slice oracle %d, histogram %d", a, b, c)
	}
	return ""
}

// table checks Dist's own layout: cells strictly ascending, so no value has
// two cells, with −0 stored as +0; a tail shorter than the cells; and counts
// that add up to Count.
func (o *distTrio) table() string {
	d := &o.got
	total := len(d.tail)
	for i, c := range d.cells {
		if i > 0 && d.cells[i-1].v >= c.v {
			return fmt.Sprintf("cells %d and %d out of order: %v, %v", i-1, i, d.cells[i-1].v, c.v)
		}
		if c.v == 0 && math.Signbit(c.v) {
			return fmt.Sprintf("cell %d holds −0", i)
		}
		total += c.n
	}
	if len(d.tail) > 0 && len(d.tail) >= len(d.cells) {
		return fmt.Sprintf("%d values pending beside %d cells", len(d.tail), len(d.cells))
	}
	if total != d.n {
		return fmt.Sprintf("cells and tail count %d samples, Count %d", total, d.n)
	}
	return ""
}

// TestDistMatchesHistogramOracle drives Dist, the sample slice it replaced and
// the Histogram before that with the same seeded streams — ties,
// latency-shaped values, values large enough that summation order shows in
// the mean, resets, and reads interleaved with observations. Count, the
// quantiles at 0/.5/.99/1, Max and Mean must agree after every step, as
// distTrio defines agreement.
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
			var o distTrio
			for op := 0; op < 4000; op++ {
				var msg string
				switch r := rng.Intn(100); {
				case r < 80:
					o.observe(dr.v(rng))
				case r < 82:
					o.reset()
				case r < 94:
					msg = o.quantile(qs[rng.Intn(len(qs))])
				default:
					msg = o.max()
				}
				for _, m := range []string{msg, o.count(), o.mean(), o.table()} {
					if m != "" {
						t.Fatalf("%s seed %d op %d: %s", dr.name, seed, op, m)
					}
				}
			}
		}
	}
}

// nextByte pops one byte off a script (0 once it has run out).
func nextByte(data *[]byte) byte {
	if len(*data) == 0 {
		return 0
	}
	b := (*data)[0]
	*data = (*data)[1:]
	return b
}

// scriptValue decodes one hostile sample of the given kind: zeros and small
// ties, negatives (−0 among them), ±Inf, ulp neighbours, latency-shaped
// values, raw bit patterns, 2⁵³ beside −0, and a spread of 256 values each
// likely seen once. NaN is outside Dist's domain, so a raw NaN reads as 0.
func scriptValue(kind byte, data *[]byte) float64 {
	arg := nextByte(data)
	switch kind % 8 {
	case 0:
		return float64(arg % 4)
	case 1:
		return -float64(arg % 16)
	case 2:
		return math.Inf(1 - 2*int(arg&1))
	case 3:
		base := []float64{1, 0.25, 1234.5678}[arg>>3%3]
		return math.Float64frombits(math.Float64bits(base) + uint64(arg%8) - 4)
	case 4:
		return float64(uint16(arg)<<8|uint16(nextByte(data))) / 1e3
	case 5:
		var raw [8]byte
		raw[0] = arg
		for i := 1; i < len(raw); i++ {
			raw[i] = nextByte(data)
		}
		if v := math.Float64frombits(binary.LittleEndian.Uint64(raw[:])); !math.IsNaN(v) {
			return v
		}
		return 0
	case 6:
		if arg&1 == 0 {
			return math.Copysign(0, -1)
		}
		return math.Ldexp(1, 53)
	default:
		return float64(arg) * 1.5
	}
}

// runDistScript replays a byte script against distTrio. Each op byte's low
// three bits pick Observe (0–2), a run of one value observed up to 64 times
// (3), Reset (4), Quantile at q = next byte / 200, clamped to 1 (5), Max (6)
// or Mean (7); its high bits pick the kind of value an Observe decodes. Reads
// land wherever the script puts them, so they meet the table with any length
// of pending tail, mid-way to a merge. Count and the table's layout are
// checked after every op.
func runDistScript(t *testing.T, data []byte) {
	var o distTrio
	for step := 0; len(data) > 0; step++ {
		op := nextByte(&data)
		var msg string
		switch op % 8 {
		case 0, 1, 2:
			o.observe(scriptValue(op>>3, &data))
		case 3:
			n := int(nextByte(&data)%64) + 1
			v := scriptValue(op>>3, &data)
			for range n {
				o.observe(v)
			}
		case 4:
			o.reset()
		case 5:
			msg = o.quantile(min(float64(nextByte(&data))/200, 1))
		case 6:
			msg = o.max()
		default:
			msg = o.mean()
		}
		for _, m := range []string{msg, o.count(), o.table()} {
			if m != "" {
				t.Fatalf("step %d (op %d): %s", step, op, m)
			}
		}
	}
}

// TestDistOracleScripts runs the differential scripts over seeded random
// bytes, so plain `go test` covers every op and value kind.
func TestDistOracleScripts(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4096)
		rng.Read(data)
		runDistScript(t, data)
	}
}

// FuzzDistOracle is TestDistOracleScripts over hostile scripts. The seeds are
// a long run of zeros read mid-way, −0 beside +0, ±Inf beside negatives, ulp
// neighbours of 1 read at every q, and reads between single new values.
func FuzzDistOracle(f *testing.F) {
	f.Add([]byte{3, 63, 0, 5, 100, 0, 1, 3, 63, 2, 5, 199, 6, 7})
	f.Add([]byte{1, 0, 0, 0, 0x30, 0, 5, 0, 6, 0x30, 1, 1, 0, 5, 100, 4, 0x30, 0, 6})
	f.Add([]byte{0x10, 1, 0x10, 0, 8, 3, 8, 15, 5, 0, 5, 200, 7, 4, 7})
	f.Add([]byte{0x18, 4, 0x18, 5, 0x18, 3, 0x18, 5, 5, 1, 5, 67, 5, 133, 5, 200, 6})
	f.Add([]byte{0x38, 1, 5, 50, 0x38, 2, 5, 50, 0x38, 3, 0x38, 4, 5, 150, 0x38, 5, 6, 7})
	f.Fuzz(runDistScript)
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

// BenchmarkDistObserve times one Observe over streams of 12, 400 and 11,000
// distinct values — the sizes of a churn d2g table, a chaos one and a replay
// admission table — with the slice oracle's append as the reference row.
func BenchmarkDistObserve(b *testing.B) {
	for _, k := range []int{12, 400, 11_000} {
		rng := rand.New(rand.NewSource(1))
		stream := make([]float64, 1<<16)
		for i := range stream {
			stream[i] = float64(i%k) / 4
		}
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		b.Run(fmt.Sprintf("dist/distinct=%d", k), func(b *testing.B) {
			var d Dist
			for i := range b.N {
				d.Observe(stream[i&(len(stream)-1)])
			}
		})
		b.Run(fmt.Sprintf("oracle/distinct=%d", k), func(b *testing.B) {
			var d sliceDist
			for i := range b.N {
				d.Observe(stream[i&(len(stream)-1)])
			}
		})
	}
}
