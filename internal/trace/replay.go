package trace

// Replay-shape primitives: the distributions the trace-driven replay mode
// (internal/scale, `scalesim -replay`) synthesizes its workload from —
// Alibaba-cluster-trace-style diurnal arrival cycles, Pareto-ish
// heavy-tailed job widths and durations, and correlated per-tenant burst
// sessions. Every sampler is pure over an explicit *rand.Rand (or a hash
// unit via Quantile), so replay traces are seed-deterministic and
// independent of scheduling timing. EXPERIMENTS.md documents the parameter
// choices the replay harness feeds these.

import (
	"math"
	"math/rand"

	"repro/internal/sim"
)

// BoundedPareto is a Pareto(Alpha) distribution truncated to [Min, Max]:
// most mass near Min, a polynomial tail that actually reaches Max. Alpha
// near 1 makes the tail heavy (Table 1's instance counts, the 10 s–10 min
// duration range); larger Alpha concentrates near Min.
type BoundedPareto struct {
	Alpha    float64
	Min, Max float64
}

// Quantile maps u ∈ [0, 1) through the inverse CDF — the hash-driven entry
// point: a job whose shape comes from a uniform hash unit gets the same
// heavy-tailed draw as one sampled from an rng, without consuming shared
// random state (so registration timing cannot perturb other streams).
func (p BoundedPareto) Quantile(u float64) float64 {
	if p.Max <= p.Min || p.Alpha == 0 {
		return p.Min
	}
	if u < 0 {
		u = 0
	}
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	r := p.Min / p.Max
	x := p.Min * math.Pow(1-u*(1-math.Pow(r, p.Alpha)), -1/p.Alpha)
	if x > p.Max {
		x = p.Max
	}
	return x
}

// Sample draws one value from rng.
func (p BoundedPareto) Sample(rng *rand.Rand) float64 { return p.Quantile(rng.Float64()) }

// DiurnalRate modulates a base arrival rate sinusoidally over a simulated
// day — the diurnal cycle of a production trace compressed to Day of
// virtual time. Rate(t) = Base × (1 + A·sin(2πt/Day)): the peak lands at
// Day/4, the trough at 3·Day/4, and the time-average over a whole day is
// exactly Base.
type DiurnalRate struct {
	BaseRatePerSec float64
	// AmplitudePct ∈ [0, 100) is the peak's excess over the base in percent
	// (100 would pinch the trough to zero).
	AmplitudePct float64
	Day          sim.Time
}

// At returns the instantaneous rate (events per virtual second) at t.
func (d DiurnalRate) At(t sim.Time) float64 {
	if d.Day <= 0 {
		return d.BaseRatePerSec
	}
	frac := float64(t%d.Day) / float64(d.Day)
	return d.BaseRatePerSec * (1 + d.AmplitudePct/100*math.Sin(2*math.Pi*frac))
}

// Peak returns the maximum instantaneous rate.
func (d DiurnalRate) Peak() float64 { return d.BaseRatePerSec * (1 + d.AmplitudePct/100) }

// NextArrival returns the next arrival instant strictly after now, by
// thinning a homogeneous Poisson process at the peak rate (Lewis–Shedler):
// exact for any bounded rate function and deterministic given the rng.
func (d DiurnalRate) NextArrival(rng *rand.Rand, now sim.Time) sim.Time {
	peak := d.Peak()
	if peak <= 0 {
		return sim.Time(math.MaxInt64 / 2)
	}
	t := now
	for {
		step := sim.Time(rng.ExpFloat64() / peak * float64(sim.Second))
		if step < 1 {
			step = 1 // keep strictly monotonic at µs resolution
		}
		t += step
		if rng.Float64()*peak <= d.At(t) {
			return t
		}
	}
}

// BurstSessions shapes the correlated per-tenant submission bursts of a
// production trace: a session arrival (rate-modulated by DiurnalRate) picks
// one tenant, which then submits a geometric burst of jobs in quick
// succession — the within-tenant correlation a memoryless per-submission
// tenant draw cannot produce.
type BurstSessions struct {
	// MeanJobs is the geometric mean session size in jobs (≥ 1).
	MeanJobs float64
	// MeanGap is the mean exponential spacing between a session's jobs.
	MeanGap sim.Time
}

// SampleSize draws the session's job count: geometric on {1, 2, ...} with
// mean MeanJobs.
func (b BurstSessions) SampleSize(rng *rand.Rand) int {
	if b.MeanJobs <= 1 {
		return 1
	}
	cont := 1 - 1/b.MeanJobs
	n := 1
	for n < 10_000 && rng.Float64() < cont {
		n++
	}
	return n
}

// SampleGap draws the spacing to the session's next submission (≥ 1 µs so
// intra-session order is well defined).
func (b BurstSessions) SampleGap(rng *rand.Rand) sim.Time {
	if b.MeanGap <= 0 {
		return sim.Millisecond
	}
	g := sim.Time(rng.ExpFloat64() * float64(b.MeanGap))
	if g < 1 {
		g = 1
	}
	return g
}
