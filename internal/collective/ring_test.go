package collective

import (
	"math"
	"math/rand"
	"testing"

	"sdrrdma/internal/model"
	"sdrrdma/internal/stats"
	"sdrrdma/internal/wan"
)

func ringChannel(pdrop float64) wan.Params {
	return wan.Params{BandwidthBps: 400e9, DistanceKm: 3750, PDrop: pdrop,
		MTUBytes: 4096, ChunkBytes: 4096}
}

// constScheme returns a fixed per-stage duration, for exact checks.
type constScheme struct{ d float64 }

func (c constScheme) SampleCompletion(*rand.Rand, int64) float64 { return c.d }
func (c constScheme) Name() string                               { return "const" }

func TestRingDeterministicSchedule(t *testing.T) {
	// With constant stage duration d, the ring completes in exactly
	// (2N-2)·d — the Appendix C bound is tight for deterministic t.
	for _, n := range []int{2, 4, 8} {
		r := Ring{N: n, BufferBytes: 128 << 20, Scheme: constScheme{d: 3.5}}
		got := r.sample(rand.New(rand.NewSource(1)))
		want := float64(2*n-2) * 3.5
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("N=%d: ring time %g, want %g", n, got, want)
		}
	}
}

func TestRingStageGeometry(t *testing.T) {
	r := Ring{N: 4, BufferBytes: 128 << 20, Scheme: constScheme{1}}
	if r.stages() != 6 {
		t.Fatalf("Stages = %d, want 6", r.stages())
	}
	if r.stageBytes() != 32<<20 {
		t.Fatalf("StageBytes = %d, want 32 MiB", r.stageBytes())
	}
	tiny := Ring{N: 4, BufferBytes: 2, Scheme: constScheme{1}}
	if tiny.stageBytes() != 1 {
		t.Fatalf("StageBytes floor = %d, want 1", tiny.stageBytes())
	}
}

func TestRingPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N=1 ring did not panic")
		}
	}()
	Ring{N: 1, BufferBytes: 1 << 20, Scheme: constScheme{1}}.sample(rand.New(rand.NewSource(1)))
}

// Appendix C: the Monte-Carlo mean must respect the analytic lower
// bound (2N−2)·E[t_stage].
func TestRingRespectsLowerBound(t *testing.T) {
	ch := ringChannel(1e-4)
	sr := model.NewSRRTO(ch)
	r := Ring{N: 4, BufferBytes: 128 << 20, Scheme: sr}
	mean := stats.Mean(r.SampleN(800, 5))
	lb := float64(r.stages()) * sr.MeanCompletion(r.stageBytes())
	if mean < lb*0.98 { // 2% sampling tolerance
		t.Fatalf("ring mean %g below analytic lower bound %g", mean, lb)
	}
	// The max-coupling across the ring should also keep the mean within
	// a modest factor of the bound (the stages dominate, not the tail).
	if mean > lb*1.6 {
		t.Fatalf("ring mean %g implausibly far above lower bound %g", mean, lb)
	}
}

// Fig 13 shape: EC's p99.9 speedup over SR RTO grows with drop rate
// (3× to >6× across both panels) and holds across datacenter counts.
func TestFig13SpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo model sweep: pure single-threaded sampling, skipped in -short (race) runs")
	}
	speedup := func(n int, buf int64, pdrop float64) float64 {
		ch := ringChannel(pdrop)
		srRing := Ring{N: n, BufferBytes: buf, Scheme: model.NewSRRTO(ch)}
		ecRing := Ring{N: n, BufferBytes: buf, Scheme: model.NewMDS(ch)}
		srP := stats.Summarize(srRing.SampleN(3000, 21)).P999
		ecP := stats.Summarize(ecRing.SampleN(3000, 22)).P999
		return srP / ecP
	}
	// left panel: 128 MiB buffer, 4 DCs, rising drop rate
	low := speedup(4, 128<<20, 1e-4)
	high := speedup(4, 128<<20, 1e-2)
	if low < 1.5 {
		t.Errorf("p99.9 ring speedup at 1e-4 = %.2f, want >1.5", low)
	}
	if high < 4 {
		t.Errorf("p99.9 ring speedup at 1e-2 = %.2f, want >4 (paper: up to >6)", high)
	}
	if high <= low {
		t.Errorf("speedup should grow with drop rate: %.2f vs %.2f", low, high)
	}
	// right panel: gains persist across datacenter counts
	if s8 := speedup(8, 128<<20, 1e-3); s8 < 1.8 {
		t.Errorf("p99.9 ring speedup with 8 DCs = %.2f, want >1.8", s8)
	}
}

// Reliability costs compound: with lossy links, the ratio of ring time
// to a single stage grows with N (per Appendix C's (2N-2) factor).
func TestRingCostCompoundsWithN(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo model sweep: pure single-threaded sampling, skipped in -short (race) runs")
	}
	ch := ringChannel(1e-3)
	sr := model.NewSRRTO(ch)
	meanFor := func(n int) float64 {
		r := Ring{N: n, BufferBytes: 128 << 20, Scheme: sr}
		return stats.Mean(r.SampleN(500, 9))
	}
	m2, m8 := meanFor(2), meanFor(8)
	if m8 < m2*2 {
		t.Fatalf("8-DC ring (%g) should cost ≥2x the 2-DC ring (%g)", m8, m2)
	}
}

func BenchmarkRingSample4DC(b *testing.B) {
	ch := ringChannel(1e-3)
	r := Ring{N: 4, BufferBytes: 128 << 20, Scheme: model.NewSRRTO(ch)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		r.sample(rng)
	}
}
