package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Mean-3) > 1e-12 {
		t.Fatalf("mean = %g", s.Mean)
	}
	want := math.Sqrt(2.5) // sample stddev of 1..5
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("std = %g, want %g", s.Std, want)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Summarize(nil) did not panic")
		}
	}()
	Summarize(nil)
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("P%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99.9); got != 7 {
		t.Fatalf("single-sample percentile = %g", got)
	}
}

func TestP999NeedsTail(t *testing.T) {
	// 10000 samples: 9980 ones and 20 hundreds; the p99.9 rank
	// (9989.0 with linear interpolation) falls inside the outlier
	// block.
	samples := make([]float64, 10000)
	for i := range samples {
		samples[i] = 1
	}
	for i := 0; i < 20; i++ {
		samples[len(samples)-1-i] = 100
	}
	s := Summarize(samples)
	if s.P999 < 50 {
		t.Fatalf("p99.9 = %g, should catch the 0.1%% tail", s.P999)
	}
	if s.P99 != 1 {
		t.Fatalf("p99 = %g, want 1", s.P99)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	check := func(seed int64, n8 uint8) bool {
		n := int(n8)%100 + 1
		rng := rand.New(rand.NewSource(seed))
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.NormFloat64() * 100
		}
		sort.Float64s(samples)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := percentile(samples, p)
			if v < prev-1e-9 || v < samples[0]-1e-9 || v > samples[n-1]+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}
