package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// The constructors compute P_EC once; an EC that no longer matches the
// parameters it was computed from — built as a literal, or changed after
// construction — computes it afresh. Either way a draw sees the same
// P_EC, so the samples are identical bit for bit.
func TestECSuccessProbMemo(t *testing.T) {
	ch := fig3Channel(1e-2)
	const size, n, seed = 32 << 20, 200, 5
	for _, built := range []EC{NewMDS(ch), NewXOR(ch)} {
		literal := EC{Ch: built.Ch, K: built.K, M: built.M, Scheme: built.Scheme}
		if got, want := built.submessageSuccessProb(), literal.computeSuccessProb(); got != want {
			t.Fatalf("%s: memoized P_EC %v, computed %v", built.Name(), got, want)
		}
		if !slices.Equal(Sample(built, size, n, seed), Sample(literal, size, n, seed)) {
			t.Fatalf("%s: samples differ from the literal's", built.Name())
		}
		changed := built
		changed.K, changed.Ch.PDrop = 16, 3e-2
		fresh := EC{Ch: changed.Ch, K: changed.K, M: changed.M, Scheme: changed.Scheme}
		if got, want := changed.submessageSuccessProb(), fresh.computeSuccessProb(); got != want {
			t.Fatalf("%s changed after construction: P_EC %v, want %v", built.Name(), got, want)
		}
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

// refSampleChunks is the per-chunk Bernoulli loop the record walk
// replaced, kept as its reference: one draw per chunk and one more per
// extra transmission, O(M) per sample.
func refSampleChunks(s SR, rng *rand.Rand, m int64) float64 {
	tinj, p := s.Ch.ChunkInjectionTime(), s.Ch.PDrop
	overhead := s.rto() + tinj
	maxX := float64(m) * tinj
	for i := int64(1); i <= m; i++ {
		if rng.Float64() < p {
			y := 2
			for rng.Float64() < p {
				y++
			}
			maxX = max(maxX, float64(i)*tinj+overhead*float64(y-1))
		}
	}
	return maxX + s.Ch.RTT()
}

// ksReject reports whether a two-sample Kolmogorov–Smirnov test rejects
// at α = 0.01 that a and b come from one distribution, with the
// statistic D = sup |F_a − F_b|. Tied values step both empirical CDFs
// at once, which keeps the asymptotic critical value conservative for
// the atoms of max_i X_i.
func ksReject(a, b []float64) (bool, float64) {
	a, b = slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))
	na, nb := float64(len(a)), float64(len(b))
	d := 0.0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x := min(a[i], b[j])
		for ; i < len(a) && a[i] == x; i++ {
		}
		for ; j < len(b) && b[j] == x; j++ {
		}
		d = max(d, math.Abs(float64(i)/na-float64(j)/nb))
	}
	return d > 1.628*math.Sqrt((na+nb)/(na*nb)), d
}

// multiLevelChannel is a 10 Gbit/s, 75 km link: 4096 chunks take
// 13.4 ms to inject against a 2.25 ms RTO, so one threshold finds the
// chunks spread over several retransmission levels.
func multiLevelChannel(pdrop float64) wan.Params {
	return wan.Params{BandwidthBps: 10e9, DistanceKm: 75, PDrop: pdrop, MTUBytes: 4096, ChunkBytes: 4096}
}

// The record walk draws from the same law as the per-chunk loop, for
// SR RTO and SR NACK, from a single chunk to thousands, at 0.5 to 460
// expected drops, and with the chunks spread over one or many
// retransmission levels.
func TestSRSamplerMatchesPerChunkLoop(t *testing.T) {
	points := []struct {
		ch wan.Params
		m  int64
	}{
		{fig3Channel(0.5), 1},
		{fig3Channel(0.3), 100},
		{fig3Channel(1e-3), 4096},
		{fig3Channel(0.03), 4096},
		{fig3Channel(0.1), 2048},
		{fig3Channel(0.9), 512},
		{multiLevelChannel(2e-3), 4096},
		{multiLevelChannel(0.05), 4096},
	}
	for _, pt := range points {
		for _, s := range []SR{NewSRRTO(pt.ch), NewSRNACK(pt.ch)} {
			const n = 2000
			rng, ref := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(6))
			got, want := make([]float64, n), make([]float64, n)
			for i := range got {
				got[i] = s.sampleCompletionChunks(rng, pt.m)
				want[i] = refSampleChunks(s, ref, pt.m)
			}
			if reject, d := ksReject(got, want); reject {
				t.Errorf("%s, M=%d, P=%g, RTT %.2f ms: KS D = %.4f rejects the per-chunk law",
					s.Name(), pt.m, pt.ch.PDrop, pt.ch.RTT()*1e3, d)
			}
		}
	}
}

// The sampled tail matches the survival function computed chunk by
// chunk, P(max_i X_i ≥ x) = 1 − ∏_i (1 − P^⌈(x − t_start(i))/O⌉), down
// to the 10⁻³ tail, where p99.9 lives and the KS test is blind; and so
// does the level-grouped survival MeanCompletion integrates. The
// thresholds sit just below sampled values, so none falls on an atom.
func TestSRTailMatchesChunkwiseSurvival(t *testing.T) {
	exact := func(s SR, m int64, x float64) float64 {
		tinj, o := s.Ch.ChunkInjectionTime(), s.rto()+s.Ch.ChunkInjectionTime()
		logF := 0.0
		for i := int64(1); i <= m; i++ {
			logF += math.Log1p(-math.Pow(s.Ch.PDrop, math.Ceil((x-float64(i)*tinj)/o)))
		}
		return -math.Expm1(logF)
	}
	for _, pt := range []struct {
		s SR
		m int64
	}{
		{NewSRRTO(fig3Channel(0.9)), 1},
		{NewSRRTO(fig3Channel(0.9)), 512},
		{NewSRRTO(fig3Channel(1e-3)), 4096},
		{NewSRNACK(multiLevelChannel(0.05)), 4096},
	} {
		const n = 40000
		samples := make([]float64, n)
		rng := rand.New(rand.NewSource(10))
		for i := range samples {
			samples[i] = pt.s.sampleCompletionChunks(rng, pt.m) - pt.s.Ch.RTT()
		}
		slices.Sort(samples)
		tinj := pt.s.Ch.ChunkInjectionTime()
		for _, v := range []float64{0.3, 0.03, 0.003, 1e-3} {
			x := samples[n-int(v*n)] - tinj*1e-6
			sx := exact(pt.s, pt.m, x)
			if tM := float64(pt.m) * tinj; x > tM {
				if got := pt.s.tail(pt.m).survival(x - tM); math.Abs(got-sx) > 1e-9*sx {
					t.Errorf("%s, M=%d, P=%g: survival(%.9g s) = %.12g, chunk by chunk %.12g",
						pt.s.Name(), pt.m, pt.s.Ch.PDrop, x, got, sx)
				}
			}
			first, _ := slices.BinarySearch(samples, x)
			got, want := float64(n-first), n*sx
			if math.Abs(got-want) > 4*math.Sqrt(want)+1 {
				t.Errorf("%s, M=%d, P=%g: %g of %d samples reach %.9g s, want %.1f",
					pt.s.Name(), pt.m, pt.s.Ch.PDrop, got, n, x, want)
			}
		}
	}
}

// EC's failed-submessage count is Binomial(L, P_fail) drawn by skips;
// it matches one Bernoulli draw per submessage.
func TestBinomialMatchesBernoulli(t *testing.T) {
	for _, c := range []struct {
		n int64
		p float64
	}{{1024, 1e-3}, {64, 0.3}, {512, 0.9}, {8, 1}} {
		const draws = 5000
		rng, ref := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(8))
		got, want := make([]float64, draws), make([]float64, draws)
		for i := range got {
			got[i] = float64(binomial(rng, c.n, c.p))
			for range c.n {
				if ref.Float64() < c.p {
					want[i]++
				}
			}
		}
		if reject, d := ksReject(got, want); reject {
			t.Errorf("Binomial(%d, %g): KS D = %.4f rejects the Bernoulli law", c.n, c.p, d)
		}
	}
}

// The sample mean agrees with MeanCompletion's quadrature at every
// size, 2^29 chunks included, and at drop rates where the retransmission
// tail runs to hundreds of RTOs.
func TestSampleMeanMatchesMeanCompletion(t *testing.T) {
	longHaul := func(p float64) wan.Params { // 64 MiB = 1024 chunks of 64 KiB
		return wan.Params{BandwidthBps: 100e9, DistanceKm: 1000, PDrop: p, MTUBytes: 4096, ChunkBytes: 64 << 10}
	}
	cases := []struct {
		ch      wan.Params
		size    int64
		samples int
		tol     float64
	}{
		{fig3Channel(1e-5), 4096 << 16, 40000, 0.01},
		{fig3Channel(1e-4), 4096 << 16, 20000, 0.01},
		{fig3Channel(1e-5), 4096 << 20, 20000, 0.01},
		{fig3Channel(1e-3), 4096 << 20, 5000, 0.01},
		{fig3Channel(1e-5), 4096 << 29, 1000, 0.01},
		{longHaul(0.5), 64 << 20, 20000, 0.005},
		{longHaul(0.9), 64 << 20, 20000, 0.005},
		{longHaul(0.99), 64 << 20, 20000, 0.005},
	}
	for _, c := range cases {
		s := NewSRRTO(c.ch)
		mean := stats.Mean(Sample(s, c.size, c.samples, 9))
		analytic := s.MeanCompletion(c.size)
		if rel := math.Abs(mean-analytic) / analytic; rel > c.tol {
			t.Errorf("P=%g, %d chunks: sample mean %.6g vs MeanCompletion %.6g (%.2f%% off, want ≤ %.1f%%)",
				c.ch.PDrop, c.ch.ChunksIn(c.size), mean, analytic, rel*100, c.tol*100)
		}
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

// BenchmarkSRSample times one SR RTO sample from 4096 to 2^29 chunks
// (the paper's 2 TiB), at 3.3 to 5369 expected drops; 32768 chunks at
// 1e-4 is ablation-rto's 128 MiB.
func BenchmarkSRSample(b *testing.B) {
	for _, pt := range []struct {
		m int64
		p float64
	}{{4096, 1e-3}, {4096, 0.1}, {32768, 1e-4}, {32768, 1e-2}, {1 << 21, 1e-5}, {1 << 21, 1e-4}, {1 << 29, 1e-5}} {
		s := NewSRRTO(fig3Channel(pt.p))
		b.Run(fmt.Sprintf("m=%d,p=%g", pt.m, pt.p), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				s.sampleCompletionChunks(rng, pt.m)
			}
		})
	}
}
