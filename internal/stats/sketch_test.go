package stats

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSketchRoundTrip pins the bucket arithmetic: every bucket's
// representative value must map back to the same bucket, and indices
// must be monotone in the value.
func TestSketchRoundTrip(t *testing.T) {
	for i := 0; i < sketchBuckets; i++ {
		v := sketchValue(i)
		if got := sketchIndex(v); got != i {
			t.Fatalf("bucket %d: value %d maps to bucket %d", i, v, got)
		}
	}
	prev := -1
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, (1 << 62) + 12345, 1<<63 - 1} {
		idx := sketchIndex(v)
		if idx <= prev {
			t.Fatalf("index not monotone at %d: %d <= %d", v, idx, prev)
		}
		if rep := sketchValue(idx); rep > v {
			t.Fatalf("representative %d over-states value %d", rep, v)
		}
		prev = idx
	}
}

// TestSketchExactSmall checks that values below 64 are exact.
func TestSketchExactSmall(t *testing.T) {
	var s Sketch
	for v := int64(0); v < 64; v++ {
		s.Add(v)
	}
	if got := s.Quantile(0.5); got != 32 {
		t.Fatalf("p50 = %d, want 32", got)
	}
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("p0 = %d, want 0", got)
	}
	if got := s.Quantile(1); got != 63 {
		t.Fatalf("p100 = %d, want 63", got)
	}
}

// TestSketchRelativeError compares sketch quantiles against exact order
// statistics over a heavy-tailed sample: the log-linear layout promises
// < 1/64 relative error above the exact range.
func TestSketchRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Sketch
	samples := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 1e6)
		s.Add(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)))]
		got := s.Quantile(q)
		if got > exact {
			t.Fatalf("q%g: sketch %d over-states exact %d", q, got, exact)
		}
		// The reported lower bound sits within one sub-bucket (1/64
		// relative) of the exact order statistic.
		if lo := exact - exact/32; got < lo {
			t.Fatalf("q%g: sketch %d below tolerance %d (exact %d)", q, got, lo, exact)
		}
	}
	if s.count != 20000 {
		t.Fatalf("count = %d", s.count)
	}
}

// TestSketchDeterminism: same inputs in any order, same quantiles.
func TestSketchDeterminism(t *testing.T) {
	var a, b Sketch
	vals := []int64{5, 900, 42, 1 << 30, 77777, 0, 63, 64, 12345678}
	for _, v := range vals {
		a.Add(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Add(vals[i])
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q%g: %d != %d", q, a.Quantile(q), b.Quantile(q))
		}
	}
}
