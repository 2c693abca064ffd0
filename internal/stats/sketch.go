package stats

import "math/bits"

// Sketch is a fixed-memory deterministic quantile sketch over
// non-negative int64 values — the completion-time accumulator for
// runs too long to keep every sample (a line-rate perftest records one
// value per transfer; Summarize would grow without bound).
//
// It is an HDR-style log-linear histogram: values below 64 land in
// exact unit buckets; above that, each power-of-two range is split
// into 64 linear sub-buckets, so any value is resolved to better than
// 1.6% relative error. The bucket array is sized once for the full
// int64 range (~3.8k buckets, ~30 KiB) and never grows, and every
// operation is branch-predictable integer math — no sampling, no
// randomness, so identical inputs yield identical quantiles on every
// run and every platform.
//
// The zero Sketch is ready to use. Not safe for concurrent use.
type Sketch struct {
	count   uint64
	max     int64
	buckets [sketchBuckets]uint64
}

const (
	// sketchSubBits is the linear resolution within each power-of-two
	// range: 2^6 = 64 sub-buckets.
	sketchSubBits = 6
	sketchSub     = 1 << sketchSubBits
	// sketchBuckets covers exact values [0,64) plus 64 sub-buckets for
	// each of the 57 power-of-two ranges up to 2^63.
	sketchBuckets = sketchSub + (63-sketchSubBits)*sketchSub
)

// sketchIndex maps a non-negative value to its bucket.
func sketchIndex(v int64) int {
	if v < sketchSub {
		return int(v)
	}
	// exp is how far the mantissa must shift so it lands in [64, 128).
	exp := bits.Len64(uint64(v)) - (sketchSubBits + 1)
	mantissa := int(v >> uint(exp)) // in [64, 128)
	return exp*sketchSub + mantissa
}

// sketchValue returns the representative (lower-bound) value of bucket i.
func sketchValue(i int) int64 {
	if i < sketchSub {
		return int64(i)
	}
	exp := (i - sketchSub) / sketchSub
	mantissa := sketchSub + (i-sketchSub)%sketchSub
	return int64(mantissa) << uint(exp) // mantissa · 2^exp
}

// Add records one observation. Negative values clamp to zero (the
// completion-time domain has none; clamping keeps the hot path
// branch-light instead of panicking mid-run).
func (s *Sketch) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if v > s.max {
		s.max = v
	}
	s.buckets[sketchIndex(v)]++
	s.count++
}

// Quantile returns the value at quantile q in [0, 1] — the smallest
// bucket whose cumulative count reaches q·count, reported as the
// bucket's lower bound (so Quantile never over-states a tail). Returns
// 0 on an empty sketch; q is clamped to [0, 1]. Quantile(1) reports
// the exact maximum.
func (s *Sketch) Quantile(q float64) int64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		return s.max
	}
	// rank is the 1-based index of the order statistic sought.
	rank := uint64(q*float64(s.count)) + 1
	if rank > s.count {
		rank = s.count
	}
	var cum uint64
	for i := range s.buckets {
		cum += s.buckets[i]
		if cum >= rank {
			return sketchValue(i)
		}
	}
	return s.max
}
