package model

import (
	"math"
	"math/rand"
	"testing"

	"sdrrdma/internal/stats"
	"sdrrdma/internal/wan"
)

// fig3Channel returns the paper's Figure 3 configuration: 400 Gbit/s,
// 3750 km (25 ms RTT), per-packet loss with bitmap resolution of one
// 4 KiB MTU per chunk.
func fig3Channel(pdrop float64) wan.Params {
	return wan.Params{
		BandwidthBps: 400e9,
		DistanceKm:   3750,
		PDrop:        pdrop,
		MTUBytes:     4096,
		ChunkBytes:   4096,
	}
}

func TestLosslessTime(t *testing.T) {
	ch := fig3Channel(0)
	// 128 MiB = 32768 chunks of 4 KiB; injection = 32768·81.92 ns ≈ 2.684 ms
	got := LosslessTime(ch, 128<<20)
	want := 32768*4096*8/400e9 + 25e-3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("LosslessTime = %g, want %g", got, want)
	}
}

func TestSRNoLossEqualsLossless(t *testing.T) {
	ch := fig3Channel(0)
	s := NewSRRTO(ch)
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int64{4096, 1 << 20, 128 << 20} {
		want := LosslessTime(ch, size)
		if got := s.SampleCompletion(rng, size); math.Abs(got-want) > 1e-12 {
			t.Fatalf("SR sample at p=0, size %d = %g, want %g", size, got, want)
		}
		if got := s.MeanCompletion(size); math.Abs(got-want) > 1e-12 {
			t.Fatalf("SR mean at p=0, size %d = %g, want %g", size, got, want)
		}
	}
}

// §5.1.1: "The mean of 1000 samples from the stochastic model matches
// the analytical solution within 5% accuracy." We reproduce that
// validation across the paper's parameter ranges.
func TestStochasticMatchesAnalyticWithin5Percent(t *testing.T) {
	cases := []struct {
		pdrop float64
		size  int64
	}{
		{1e-5, 128 << 20}, // Fig 10's central column
		{1e-4, 128 << 20}, // higher loss
		{1e-3, 128 << 20}, // heavy loss
		{1e-5, 8 << 30},   // "large" message (exceeds exact threshold)
		{1e-6, 32 << 20},  // light loss, medium message
		{1e-2, 1 << 20},   // very lossy small message
		{1e-5, 128 << 10}, // tiny message
	}
	for _, c := range cases {
		ch := fig3Channel(c.pdrop)
		s := NewSRRTO(ch)
		mean := stats.Mean(Sample(s, c.size, 3000, 42))
		analytic := s.MeanCompletion(c.size)
		rel := math.Abs(mean-analytic) / analytic
		if rel > 0.05 {
			t.Errorf("p=%g size=%d: stochastic mean %g vs analytic %g (%.1f%% off)",
				c.pdrop, c.size, mean, analytic, rel*100)
		}
	}
}

func TestSRNACKFasterThanRTO(t *testing.T) {
	ch := fig3Channel(1e-4)
	rto := NewSRRTO(ch).MeanCompletion(128 << 20)
	nack := NewSRNACK(ch).MeanCompletion(128 << 20)
	if nack >= rto {
		t.Fatalf("NACK mean %g not faster than RTO mean %g", nack, rto)
	}
}

func TestECSuccessPathTime(t *testing.T) {
	ch := fig3Channel(0)
	e := NewMDS(ch)
	rng := rand.New(rand.NewSource(1))
	// At p=0 EC completes in inflated injection + RTT.
	size := int64(128 << 20)
	got := e.SampleCompletion(rng, size)
	wire := float64(e.wireChunks(size))
	want := wire*ch.ChunkInjectionTime() + ch.RTT()
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("EC at p=0 = %g, want %g", got, want)
	}
	// ~20% bandwidth inflation for (32,8) (§5.2.1)
	if infl := wire / float64(ch.ChunksIn(size)); math.Abs(infl-1.25) > 0.01 {
		t.Fatalf("bandwidth inflation = %g, want 1.25", infl)
	}
}

func TestECFallbackProbability(t *testing.T) {
	e := NewMDS(fig3Channel(1e-5))
	size := int64(128 << 20)
	// 32768 chunks → 1024 submessages; per-submessage failure is
	// P(Bin(40, 1e-5) > 8) ≈ C(40,9)·1e-45 — utterly negligible.
	if pfb := e.FallbackProb(size); pfb > 1e-20 {
		t.Fatalf("MDS fallback prob at 1e-5 = %g, want ≈0", pfb)
	}
	// XOR at 1e-3 must show a tail-relevant fallback probability.
	x := NewXOR(fig3Channel(1e-3))
	if pfb := x.FallbackProb(size); pfb < 1e-3 {
		t.Fatalf("XOR fallback prob at 1e-3 = %g, want >1e-3", pfb)
	}
	// MDS stays robust at 1e-2 … wait: chunk here is one MTU, so use
	// the Fig 10d claim instead: (32,8) tolerates above 1e-2.
	m2 := NewMDS(fig3Channel(1e-2))
	if pfb := m2.FallbackProb(size); pfb > 0.05 {
		t.Fatalf("MDS fallback prob at 1e-2 = %g, want small", pfb)
	}
}

// Figure 3a shape: at P=1e-5 SR's mean slowdown peaks near the message
// size where a drop becomes likely (~1/P packets ≈ 400 MiB) and decays
// toward 1 for very large messages; EC stays near its parity-inflation
// floor and beats SR in the middle of the range.
func TestFig3aShape(t *testing.T) {
	ch := fig3Channel(1e-5)
	sr := NewSRRTO(ch)
	ecs := NewMDS(ch)

	slowdown := func(s Scheme, size int64) float64 {
		return stats.Mean(Sample(s, size, 600, 7)) / LosslessTime(ch, size)
	}

	srSmall := slowdown(sr, 128<<10) // far below 1/P
	srPeak := slowdown(sr, 512<<20)  // near the likely-drop point
	srLarge := slowdown(sr, 64<<30)  // injection-dominated
	if srSmall > 1.1 {
		t.Errorf("SR slowdown at 128 KiB = %g, want ≈1", srSmall)
	}
	if srPeak < 1.8 {
		t.Errorf("SR slowdown at 512 MiB = %g, want ≈2+ (paper's peak ~2.5)", srPeak)
	}
	if srLarge > 1.35 {
		t.Errorf("SR slowdown at 64 GiB = %g, want ≤1.35 (injection hides RTOs)", srLarge)
	}
	ecPeakRegion := slowdown(ecs, 512<<20)
	if ecPeakRegion > 1.3 {
		t.Errorf("EC slowdown at 512 MiB = %g, want near parity floor", ecPeakRegion)
	}
	if ecPeakRegion >= srPeak {
		t.Errorf("EC (%g) does not beat SR (%g) at the peak", ecPeakRegion, srPeak)
	}
	// At very large sizes SR wins (EC pays 20% forever, §5.2.2).
	ecLarge := slowdown(ecs, 64<<30)
	if ecLarge <= srLarge {
		t.Errorf("SR (%g) should beat EC (%g) at 64 GiB", srLarge, ecLarge)
	}
}

// Figure 3c shape: for a 128 MiB message, SR's slowdown explodes with
// the drop rate (multiple retransmission rounds per packet) while EC
// remains flat until its parity is overwhelmed.
func TestFig3cShape(t *testing.T) {
	size := int64(128 << 20)
	sd := func(s Scheme, ch wan.Params) float64 {
		return stats.Mean(Sample(s, size, 400, 11)) / LosslessTime(ch, size)
	}
	chLow := fig3Channel(1e-6)
	chMid := fig3Channel(1e-4)
	chHigh := fig3Channel(1e-2)

	srLow, srMid, srHigh := sd(NewSRRTO(chLow), chLow), sd(NewSRRTO(chMid), chMid), sd(NewSRRTO(chHigh), chHigh)
	if !(srLow < srMid && srMid < srHigh) {
		t.Errorf("SR slowdown not increasing with drop rate: %g %g %g", srLow, srMid, srHigh)
	}
	if srHigh < 5 {
		t.Errorf("SR slowdown at 1e-2 = %g, want >5 (paper: 3–10×)", srHigh)
	}
	ecMid := sd(NewMDS(chMid), chMid)
	if ecMid > 1.3 {
		t.Errorf("EC slowdown at 1e-4 = %g, want near 1.25 floor", ecMid)
	}
}

// Figure 3b shape: an 8 GiB message flips from "large" (SR wins) to
// "small" (EC wins) as distance grows.
func TestFig3bCrossover(t *testing.T) {
	size := int64(8 << 30)
	meanSlowdown := func(dist float64, mk func(wan.Params) Scheme) float64 {
		ch := wan.Params{BandwidthBps: 400e9, DistanceKm: dist, PDrop: 1e-5,
			MTUBytes: 4096, ChunkBytes: 4096}
		var s Scheme
		switch f := mk(ch).(type) {
		default:
			s = f
		}
		return stats.Mean(Sample(s, size, 300, 13)) / LosslessTime(ch, size)
	}
	srNear := meanSlowdown(75, func(c wan.Params) Scheme { return NewSRRTO(c) })
	ecNear := meanSlowdown(75, func(c wan.Params) Scheme { return NewMDS(c) })
	if srNear >= ecNear {
		t.Errorf("at 75 km SR (%g) should beat EC (%g)", srNear, ecNear)
	}
	srFar := meanSlowdown(6000, func(c wan.Params) Scheme { return NewSRRTO(c) })
	ecFar := meanSlowdown(6000, func(c wan.Params) Scheme { return NewMDS(c) })
	if ecFar >= srFar {
		t.Errorf("at 6000 km EC (%g) should beat SR (%g)", ecFar, srFar)
	}
}

// The paper's headline (§5.2.1): near the top of the red region
// (128 MiB Write, 64 KiB chunks, chunk drop rate ~1e-2) EC improves
// average completion by up to ~6.5× and p99.9 by up to ~12×.
func TestHeadlineSpeedups(t *testing.T) {
	speedups := func(pdrop float64, n int) (mean, tail float64) {
		ch := fig3Channel(pdrop) // per-packet loss, 1-MTU bitmap resolution
		size := int64(128 << 20)
		srSum := stats.Summarize(Sample(NewSRRTO(ch), size, n, 3))
		ecSum := stats.Summarize(Sample(NewMDS(ch), size, n, 4))
		return srSum.Mean / ecSum.Mean, srSum.P999 / ecSum.P999
	}
	mean, tail := speedups(1e-2, 20000)
	if mean < 5 || mean > 9 {
		t.Errorf("mean speedup at 1e-2 = %.2fx, want ≈6.5x (paper)", mean)
	}
	if tail < 8 || tail > 17 {
		t.Errorf("p99.9 speedup at 1e-2 = %.2fx, want ≈12x (paper)", tail)
	}
	if tail < mean {
		t.Errorf("tail speedup (%g) should exceed mean speedup (%g)", tail, mean)
	}
	// Mid-region sanity: smaller but real speedup at 1e-3, growing
	// with drop rate.
	meanMid, _ := speedups(1e-3, 5000)
	if meanMid < 2 {
		t.Errorf("mean speedup at 1e-3 = %.2fx, want >2x", meanMid)
	}
	if meanMid >= mean {
		t.Errorf("speedup should grow with drop rate: %.2f (1e-3) vs %.2f (1e-2)", meanMid, mean)
	}
}

func TestEncodeThroughputStall(t *testing.T) {
	ch := fig3Channel(0)
	fast := NewMDS(ch)
	slow := NewMDS(ch)
	slow.EncodeBps = 50e9 // encoder 8× slower than the 400G line
	size := int64(128 << 20)
	rng := rand.New(rand.NewSource(1))
	tf := fast.SampleCompletion(rng, size)
	ts := slow.SampleCompletion(rng, size)
	if ts <= tf {
		t.Fatalf("stalled encoder (%g) not slower than overlapped (%g)", ts, tf)
	}
}

func TestSampleBinomialMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := []struct {
		n int64
		p float64
	}{
		{100, 0.3},      // exact path
		{1 << 20, 1e-5}, // Poisson path
		{1 << 20, 0.3},  // normal path
	}
	for _, c := range cases {
		const draws = 20000
		sum := 0.0
		for i := 0; i < draws; i++ {
			sum += float64(sampleBinomial(rng, c.n, c.p))
		}
		mean := sum / draws
		want := float64(c.n) * c.p
		tol := 4 * math.Sqrt(want*(1-c.p)/draws) // ±4 standard errors
		if math.Abs(mean-want) > tol+1e-9 {
			t.Errorf("Binomial(%d, %g) sample mean %g, want %g ± %g", c.n, c.p, mean, want, tol)
		}
	}
	if got := sampleBinomial(rng, 100, 0); got != 0 {
		t.Errorf("Binomial(100, 0) = %d", got)
	}
	if got := sampleBinomial(rng, 100, 1); got != 100 {
		t.Errorf("Binomial(100, 1) = %d", got)
	}
}

func TestGeometricExtraMean(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const p = 0.25
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		sum += float64(sampleGeometricExtra(rng, p))
	}
	mean := sum / draws
	want := 1 / (1 - p) // E[Geom(1-p)] = 1/(1-p)
	if math.Abs(mean-want) > 0.01 {
		t.Fatalf("geometric mean = %g, want %g", mean, want)
	}
}

func BenchmarkSRSample128MiB(b *testing.B) {
	s := NewSRRTO(fig3Channel(1e-4))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		s.SampleCompletion(rng, 128<<20)
	}
}

func BenchmarkSRAnalytic128MiB(b *testing.B) {
	s := NewSRRTO(fig3Channel(1e-4))
	for i := 0; i < b.N; i++ {
		s.MeanCompletion(128 << 20)
	}
}

func BenchmarkECSample128MiB(b *testing.B) {
	e := NewMDS(fig3Channel(1e-4))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		e.SampleCompletion(rng, 128<<20)
	}
}
