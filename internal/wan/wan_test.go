package wan

import (
	"math"
	"math/rand"
	"testing"

	"sdrrdma/internal/stats"
)

func TestPaperCalibration(t *testing.T) {
	p := Params{}.WithDefaults()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3750 km must give the paper's 25 ms RTT.
	if rtt := p.RTT(); math.Abs(rtt-25e-3) > 1e-9 {
		t.Fatalf("RTT(3750 km) = %g s, want 0.025", rtt)
	}
	// "1000 km corresponds to approximately 6.5 ms of added RTT" (§2.1)
	added := Params{DistanceKm: 1000}.WithDefaults().RTT()
	if added < 6e-3 || added > 7e-3 {
		t.Fatalf("RTT(1000 km) = %g s, want ≈6.5 ms", added)
	}
	// 64 KiB chunk at 400 Gbit/s
	tinj := p.ChunkInjectionTime()
	want := 65536.0 * 8 / 400e9
	if math.Abs(tinj-want) > 1e-15 {
		t.Fatalf("T_INJ = %g, want %g", tinj, want)
	}
	// BDP at 400G/25ms = 1.25 GB; the paper calls 8 GiB ≈ 8×BDP⁻¹...
	// Actually: "An 8 GiB message, ≈8× smaller than BDP" is inverted in
	// the paper's phrasing; BDP here is 1.25e9 B and 8 GiB ≈ 6.9×BDP.
	if bdp := p.BDPBytes(); math.Abs(bdp-1.25e9) > 1 {
		t.Fatalf("BDP = %g B, want 1.25e9", bdp)
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{BandwidthBps: -1, DistanceKm: 1, MTUBytes: 4096, ChunkBytes: 4096},
		{BandwidthBps: 1e9, DistanceKm: -1, MTUBytes: 4096, ChunkBytes: 4096},
		{BandwidthBps: 1e9, DistanceKm: 1, PDrop: 1.0, MTUBytes: 4096, ChunkBytes: 4096},
		{BandwidthBps: 1e9, DistanceKm: 1, PDrop: -0.1, MTUBytes: 4096, ChunkBytes: 4096},
		{BandwidthBps: 1e9, DistanceKm: 1, PDrop: math.NaN(), MTUBytes: 4096, ChunkBytes: 4096},
		{BandwidthBps: 1e9, DistanceKm: 1, MTUBytes: 0, ChunkBytes: 4096},
		{BandwidthBps: 1e9, DistanceKm: 1, MTUBytes: 4096, ChunkBytes: 1024},
		{BandwidthBps: 1e9, DistanceKm: 1, MTUBytes: 4096, ChunkBytes: 6000},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted invalid params %+v", i, p)
		}
	}
}

func TestChunksIn(t *testing.T) {
	p := Params{}.WithDefaults() // 64 KiB chunks
	cases := []struct {
		bytes int64
		want  int
	}{
		{1, 1}, {65536, 1}, {65537, 2}, {128 << 20, 2048}, {0, 1},
	}
	for _, c := range cases {
		if got := p.ChunksIn(c.bytes); got != c.want {
			t.Fatalf("ChunksIn(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestChunkDropProb(t *testing.T) {
	// Fig 15's theoretical annotation: with P_drop=1e-5 per MTU,
	// 1-packet chunks drop at 1e-5 and 64-packet chunks at ≈6.4e-4.
	if got := ChunkDropProb(1e-5, 1); math.Abs(got-1e-5) > 1e-12 {
		t.Fatalf("ChunkDropProb(1e-5, 1) = %g", got)
	}
	if got := ChunkDropProb(1e-5, 64); math.Abs(got-6.4e-4) > 1e-6 {
		t.Fatalf("ChunkDropProb(1e-5, 64) = %g, want ≈6.4e-4", got)
	}
	// monotone in N
	prev := 0.0
	for n := 1; n <= 64; n *= 2 {
		got := ChunkDropProb(1e-3, n)
		if got <= prev {
			t.Fatalf("ChunkDropProb not increasing at N=%d", n)
		}
		prev = got
	}
}

func TestIIDLossRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := IIDLoss{P: 0.1}
	drops := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if l.Drop(rng) {
			drops++
		}
	}
	rate := float64(drops) / n
	if math.Abs(rate-0.1) > 0.005 {
		t.Fatalf("IID loss rate = %g, want 0.1", rate)
	}
}

func TestGilbertElliottStationaryRateAndBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := mustGE(t, 0.01, 8)
	const n = 2000000
	drops, bursts, inBurst := 0, 0, false
	for i := 0; i < n; i++ {
		if g.Drop(rng) {
			drops++
			if !inBurst {
				bursts++
				inBurst = true
			}
		} else {
			inBurst = false
		}
	}
	rate := float64(drops) / n
	if rate < 0.005 || rate > 0.02 {
		t.Fatalf("GE stationary loss = %g, want ≈0.01", rate)
	}
	meanBurst := float64(drops) / float64(bursts)
	if meanBurst < 3 || meanBurst > 12 {
		t.Fatalf("GE mean burst length = %g, want ≈8", meanBurst)
	}
}

// Fig 2 reproduction: drop rate grows with payload size and spreads
// over ≥2 orders of magnitude across trials.
func TestISPCampaignShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	res := RunISPCampaign(rng, []int{1024, 2048, 4096, 8192}, 200)

	med := func(sz int) float64 { return stats.PercentileUnsorted(res[sz], 50) }
	// monotone in payload size
	if !(med(1024) < med(2048) && med(2048) < med(4096) && med(4096) < med(8192)) {
		t.Fatalf("median drop rates not increasing with payload: %g %g %g %g",
			med(1024), med(2048), med(4096), med(8192))
	}
	// 1 KiB envelope ≈ [1e-4, 1e-2]
	lo := stats.PercentileUnsorted(res[1024], 5)
	hi := stats.PercentileUnsorted(res[1024], 95)
	if lo > 1e-3 || hi < 3e-3 || hi/math.Max(lo, 1e-9) < 30 {
		t.Fatalf("1 KiB trial spread [%g, %g] too narrow for Fig 2", lo, hi)
	}
	// 8 KiB high tail exceeds 1e-1 in some trials (paper: "over 10^-1")
	if mx := stats.PercentileUnsorted(res[8192], 99); mx < 5e-2 {
		t.Fatalf("8 KiB p99 drop rate = %g, want >5e-2", mx)
	}
}

func TestFramesPerPayload(t *testing.T) {
	for _, tc := range []struct{ bytes, want int }{
		{1, 1}, {1500, 1}, {1501, 2}, {8192, 6}, {0, 1},
	} {
		if got := framesPerPayload(tc.bytes); got != tc.want {
			t.Fatalf("FramesPerPayload(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}
