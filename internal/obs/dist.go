package obs

import "slices"

// Dist is an exact distribution of float64 samples — a latency or a
// makespan, one value per observation — with the store's nearest-rank
// quantiles. It keeps every sample, so a quantile is the sample at that rank,
// not an estimate. The mean is a running sum in arrival order, so reading a
// quantile (which sorts the samples in place) never changes a later mean. The
// zero value is empty and ready to use.
type Dist struct {
	samples []float64
	sum     float64
	sorted  bool
}

// Observe adds one sample.
func (d *Dist) Observe(v float64) {
	d.samples = append(d.samples, v)
	d.sum += v
	d.sorted = false
}

// Count returns the number of samples.
func (d *Dist) Count() int { return len(d.samples) }

// Mean returns the average (0 when empty).
func (d *Dist) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.sum / float64(len(d.samples))
}

// Quantile returns the nearest-rank q-quantile (0 <= q <= 1); 0 when empty.
func (d *Dist) Quantile(q float64) float64 {
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
func (d *Dist) Max() float64 { return d.Quantile(1) }

// Reset drops every sample, keeping the storage (a run restarting its
// measurement at the end of a warm-up).
func (d *Dist) Reset() {
	d.samples = d.samples[:0]
	d.sum = 0
	d.sorted = false
}
