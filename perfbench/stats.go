package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest order statistics (the "type 7"
// estimator numpy and R use by default). An empty sample gives 0, the
// value a figure takes when its layer saw nothing.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// minBeyond is how many samples must lie above a tail percentile for it
// to be reported as measured rather than extrapolated.
const minBeyond = 10

// tailPercentile is the highest of p99, p95, p90 and p75 that has at
// least minBeyond of n samples above it, or 0 when none has.
func tailPercentile(n int) float64 {
	for _, pct := range []int{99, 95, 90, 75} {
		if n*(100-pct) >= minBeyond*100 {
			return float64(pct) / 100
		}
	}
	return 0
}

// quartiles returns Q1, Q2 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) does with its default "exclusive"
// method, which is how the spread of repeated runs is judged. It needs
// at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Python clamps j into [1, n-1] before computing the weight,
		// which extrapolates for very small samples.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise figure each end-to-end metric's bound is set against.
func spread(xs []float64) (float64, bool) {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(q2), true
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is num/den, or 0 when nothing was observed.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// closedLoop decides whether a closed-loop workload starts another
// operation. It always runs minOps operations; beyond that it starts one
// only if an operation of the median length so far still ends inside
// the measuring window, so a run measures about window seconds however
// long one operation takes.
func closedLoop(done []time.Duration, elapsed, window time.Duration, minOps int) bool {
	if len(done) < minOps {
		return true
	}
	if len(done) == 0 {
		return elapsed < window
	}
	typical := time.Duration(median(seconds(done)) * float64(time.Second))
	return elapsed+typical <= window
}
