// Package stats provides the small statistical toolkit used by the
// SDR-RDMA model framework and the experiment harnesses: means,
// percentiles (including the paper's p99.9 tail metric) and a
// fixed-memory quantile sketch over completion-time samples.
package stats

import (
	"math"
	"sort"
)

// Summary holds the order statistics of a sample set that the paper
// reports for message completion times: the mean and selected
// percentiles, most importantly the 99.9th.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
	P999   float64
	StdErr float64
}

// Summarize computes a Summary over samples. The input slice is not
// modified. Summarize panics on an empty sample set because every caller
// in this repository controls its own sample counts.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		panic("stats: Summarize on empty sample set")
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s := Summary{
		N:    len(sorted),
		Min:  sorted[0],
		Max:  sorted[len(sorted)-1],
		P50:  percentile(sorted, 50),
		P90:  percentile(sorted, 90),
		P99:  percentile(sorted, 99),
		P999: percentile(sorted, 99.9),
	}
	s.Mean = Mean(sorted)
	s.Std = stddev(sorted, s.Mean)
	s.StdErr = s.Std / math.Sqrt(float64(s.N))
	return s
}

// Mean returns the arithmetic mean of samples, 0 for an empty slice.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func stddev(samples []float64, mean float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	ss := 0.0
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(samples)-1))
}

// percentile returns the p-th percentile (0 < p <= 100) of an
// ascending-sorted sample set using linear interpolation between closest
// ranks, matching numpy.percentile's default behaviour so results line
// up with the paper's Python framework.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile on empty sample set")
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo < 0 {
		lo = 0
	}
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PercentileUnsorted sorts a copy of samples and returns the p-th
// percentile.
func PercentileUnsorted(samples []float64, p float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return percentile(sorted, p)
}
