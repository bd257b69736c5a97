// Package metrics implements the statistics the paper's evaluation reports:
// Jain's fairness index (Fig. 13), percentiles (Figs. 5, 15),
// throughput standard deviation and the §4.2.2 forward-looking convergence
// time (Fig. 16).
package metrics

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// SortInto returns xs sorted ascending in buf's storage (buf is truncated
// and grown as needed; pass a retained scratch slice for 0 allocations once
// its capacity covers the inputs). xs is not modified.
func SortInto(buf, xs []float64) []float64 {
	buf = append(buf[:0], xs...)
	sort.Float64s(buf)
	return buf
}

// Percentile returns the p-th percentile (0–100) of xs using linear
// interpolation between closest ranks. It copies and sorts its input; use
// SortInto + PercentileSorted to amortize the sort over several quantiles
// of one sample set with caller-owned scratch.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return PercentileSorted(SortInto(nil, xs), p)
}

// PercentileSorted is Percentile for an already-ascending sample slice. It
// allocates nothing.
func PercentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := float64(p / 100 * float64(len(s)-1))
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return float64(s[lo]*(1-frac)) + float64(s[lo+1]*frac)
}

// JainIndex returns Jain's fairness index (Σx)²/(n·Σx²) for the given
// allocations: 1 for perfect fairness, 1/n when one flow takes everything.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += float64(x * x)
	}
	if sq == 0 {
		return 1 // all-zero allocations are (vacuously) fair
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// FracAtLeast returns the fraction of samples >= threshold.
func FracAtLeast(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x >= threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// ConvergenceTime implements the §4.2.2 forward-looking definition: given a
// per-second throughput series for the newly arrived flow (indexed by
// seconds since flow start), the ideal equal-share rate, and a window
// (paper: 5 s), it returns the smallest t such that every second in
// [t, t+window] is within ±tol (paper: 0.25) of ideal. It returns -1 when
// the flow never converges within the series.
//
// The answer is final as soon as a prefix shows it: if ConvergenceTime
// returns c ≥ 0 on perSecond[:L], it returns c on perSecond and on every
// longer series that starts with perSecond[:L]. Every smaller t was already
// refuted inside the prefix, so a caller watching a series grow may stop
// reading at the first prefix that converges (fig16 does).
func ConvergenceTime(perSecond []float64, ideal float64, window int, tol float64) float64 {
	if ideal <= 0 {
		return -1
	}
	ok := func(v float64) bool {
		return v >= ideal*(1-tol) && v <= ideal*(1+tol)
	}
	for t := 0; t+window < len(perSecond); t++ {
		good := true
		for i := t; i <= t+window; i++ {
			if !ok(perSecond[i]) {
				good = false
				break
			}
		}
		if good {
			return float64(t)
		}
	}
	return -1
}

// WindowedJain computes Jain's index over non-overlapping windows of the
// given width (in samples) across per-flow series, returning the mean index
// — the Fig. 13 "fairness at time scale" metric. Series are truncated to
// the shortest one.
func WindowedJain(series [][]float64, window int) float64 {
	if len(series) == 0 || window <= 0 {
		return 0
	}
	n := len(series[0])
	for _, s := range series {
		if len(s) < n {
			n = len(s)
		}
	}
	if n < window {
		return 0
	}
	var sum float64
	var cnt int
	alloc := make([]float64, len(series))
	for start := 0; start+window <= n; start += window {
		for i, s := range series {
			var a float64
			for j := start; j < start+window; j++ {
				a += s[j]
			}
			alloc[i] = a
		}
		sum += JainIndex(alloc)
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
