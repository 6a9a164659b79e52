package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// quartiles returns the three cut points of the values the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the benchmark driver computes its spreads with.
func quartiles(values []float64) [3]float64 {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	ld := len(x)
	var q [3]float64
	if ld < 2 {
		if ld == 1 {
			q = [3]float64{x[0], x[0], x[0]}
		}
		return q
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n // after the clamp, as Python does: it extrapolates
		q[i-1] = (x[j-1]*float64(n-delta) + x[j]*float64(delta)) / n
	}
	return q
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(values []float64) float64 {
	q := quartiles(values)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

// aaRow compares one workload × metric across two sets of runs of the same
// code.
type aaRow struct {
	workload string
	metric   metricSpec
	medA     float64
	medB     float64
	worse    float64 // share by which B's median is worse than A's
	spreadA  float64
	spreadB  float64
	pass     bool
}

// compareSets applies the driver's acceptance rule to two sets: each
// set's quartile spread stays within the metric's bound (set-up time is
// exempt: it is dominated by one build), and the medians differ by no more
// than the bound. The driver only rejects a second median that is worse;
// between two sets of the same code a median that much better is the same
// noise, so here either direction fails.
func compareSets(workload string, m metricSpec, a, b []float64) aaRow {
	r := aaRow{
		workload: workload, metric: m,
		medA: median(a), medB: median(b),
		spreadA: spread(a), spreadB: spread(b),
	}
	r.worse = m.worse(r.medA, r.medB)
	r.pass = math.Abs(r.worse) <= m.Bound
	if m.Name != "setup_s" {
		r.pass = r.pass && r.spreadA <= m.Bound && r.spreadB <= m.Bound
	}
	return r
}

func printAA(w io.Writer, rows []aaRow) (failed int) {
	fmt.Fprintf(w, "%-9s %-20s %-7s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "B worse", "IQR A", "IQR B", "bound", "")
	for _, r := range rows {
		verdict := "PASS"
		if !r.pass {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%-9s %-20s %-7s %14.6g %14.6g %+7.2f%% %7.2f%% %7.2f%% %5.1f%%  %s\n",
			r.workload, r.metric.Name, r.metric.Unit, r.medA, r.medB,
			100*r.worse, 100*r.spreadA, 100*r.spreadB, 100*r.metric.Bound, verdict)
	}
	return failed
}
