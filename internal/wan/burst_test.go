package wan

import (
	"math"
	"math/rand"
	"testing"
)

// Burst-loss analysis for the bitmap chunk-size choice (§3.1.1): "the
// bitmap resolution can be chosen to mask drop bursts within the same
// chunk; with a chunk size of 16 packets, dropping 7 packets inside a
// chunk would appear to the upper layer as a single chunk drop."
//
// Under i.i.d. loss, P_chunk = 1-(1-p)^N grows almost linearly with
// the chunk size N. Under bursty loss at the same average rate,
// consecutive drops cluster inside few chunks, so the effective
// chunk-drop probability — and with it the number of retransmitted
// chunks — grows much more slowly. measureChunkLoss quantifies this.

// chunkLossStats summarizes a burst-loss measurement over a packet
// stream partitioned into chunks.
type chunkLossStats struct {
	// PacketLossRate is the measured per-packet drop fraction.
	PacketLossRate float64
	// ChunkLossRate is the fraction of chunks with >=1 dropped packet
	// — what the SDR bitmap reports to the reliability layer.
	ChunkLossRate float64
	// MeanDropsPerLostChunk is the burst-masking factor: how many
	// packet drops the average lost chunk absorbs.
	MeanDropsPerLostChunk float64
}

// measureChunkLoss streams packets chunks×pktsPerChunk packets through
// the loss model and returns the chunk-level view.
func measureChunkLoss(model LossModel, rng *rand.Rand, chunks, pktsPerChunk int) chunkLossStats {
	totalPkts := chunks * pktsPerChunk
	droppedPkts := 0
	lostChunks := 0
	dropsInLost := 0
	for c := 0; c < chunks; c++ {
		drops := 0
		for i := 0; i < pktsPerChunk; i++ {
			if model.Drop(rng) {
				drops++
			}
		}
		droppedPkts += drops
		if drops > 0 {
			lostChunks++
			dropsInLost += drops
		}
	}
	st := chunkLossStats{
		PacketLossRate: float64(droppedPkts) / float64(totalPkts),
		ChunkLossRate:  float64(lostChunks) / float64(chunks),
	}
	if lostChunks > 0 {
		st.MeanDropsPerLostChunk = float64(dropsInLost) / float64(lostChunks)
	}
	return st
}

// mustGE builds a Gilbert–Elliott channel from parameters the test
// knows to be valid.
func mustGE(t *testing.T, pAvg, burstLen float64) *GilbertElliott {
	t.Helper()
	g, err := NewGilbertElliott(pAvg, burstLen)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// §3.1.1's burst-masking claim, quantified: at equal average packet
// loss, bursty drops produce far fewer lost chunks than i.i.d. drops,
// because a 16-packet chunk absorbs a whole burst as one bitmap bit.
func TestBurstMaskingByChunks(t *testing.T) {
	const (
		pAvg         = 0.01
		pktsPerChunk = 16
		chunks       = 200000
	)
	rng := rand.New(rand.NewSource(1))
	iid := measureChunkLoss(IIDLoss{P: pAvg}, rng, chunks, pktsPerChunk)
	ge := measureChunkLoss(mustGE(t, pAvg, 8), rng, chunks, pktsPerChunk)

	// both hit the configured average packet loss
	if math.Abs(iid.PacketLossRate-pAvg) > 0.002 {
		t.Fatalf("iid packet loss %g, want %g", iid.PacketLossRate, pAvg)
	}
	if math.Abs(ge.PacketLossRate-pAvg) > 0.004 {
		t.Fatalf("GE packet loss %g, want ≈%g", ge.PacketLossRate, pAvg)
	}
	// i.i.d. chunk loss matches the closed form 1-(1-p)^N
	want := ChunkDropProb(pAvg, pktsPerChunk)
	if math.Abs(iid.ChunkLossRate-want) > 0.005 {
		t.Fatalf("iid chunk loss %g, want %g", iid.ChunkLossRate, want)
	}
	// bursty loss is masked: materially fewer lost chunks, each
	// absorbing several drops
	if ge.ChunkLossRate > iid.ChunkLossRate*0.65 {
		t.Fatalf("burst masking absent: GE chunk loss %g vs iid %g",
			ge.ChunkLossRate, iid.ChunkLossRate)
	}
	if ge.MeanDropsPerLostChunk < 2 {
		t.Fatalf("GE lost chunks absorb only %.2f drops, want >=2",
			ge.MeanDropsPerLostChunk)
	}
	if iid.MeanDropsPerLostChunk > 1.2 {
		t.Fatalf("iid lost chunks absorb %.2f drops, want ≈1",
			iid.MeanDropsPerLostChunk)
	}
}

// Masking grows with chunk size for bursty channels.
func TestBurstMaskingGrowsWithChunkSize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prevRatio := 0.0
	for _, ppc := range []int{1, 4, 16, 64} {
		ge := measureChunkLoss(mustGE(t, 0.01, 8), rng, 100000, ppc)
		iidChunk := ChunkDropProb(0.01, ppc)
		ratio := iidChunk / math.Max(ge.ChunkLossRate, 1e-9)
		if ppc > 1 && ratio < prevRatio*0.8 {
			t.Fatalf("masking ratio shrank at %d pkts/chunk: %.2f after %.2f",
				ppc, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if prevRatio < 2 {
		t.Fatalf("64-packet chunks mask bursts only %.2fx, want >2x", prevRatio)
	}
}

// Parameter validation: netem configs must fail fast instead of
// producing NaN transition probabilities or chains whose realized
// loss rate cannot match pAvg.
func TestGilbertElliottValidation(t *testing.T) {
	bad := []struct{ pAvg, burstLen float64 }{
		{0, 8},              // never enters the bad state
		{-0.1, 8},           // negative rate
		{1, 8},              // divides by zero deriving pGoodToBad
		{1.5, 8},            // negative pGoodToBad
		{math.NaN(), 8},     // NaN propagates into both transitions
		{math.Inf(1), 8},    //
		{0.01, 0.5},         // sub-packet burst
		{0.01, -1},          //
		{0.01, math.NaN()},  //
		{0.01, math.Inf(1)}, // chain frozen in the good state
	}
	for _, c := range bad {
		if err := ValidateGilbertElliott(c.pAvg, c.burstLen); err == nil {
			t.Errorf("ValidateGilbertElliott(%g, %g) accepted", c.pAvg, c.burstLen)
		}
		if _, err := NewGilbertElliott(c.pAvg, c.burstLen); err == nil {
			t.Errorf("NewGilbertElliott(%g, %g) accepted", c.pAvg, c.burstLen)
		}
	}
	good := []struct{ pAvg, burstLen float64 }{
		{1e-6, 1}, {0.01, 8}, {0.5, 100}, {0.999, 2},
	}
	for _, c := range good {
		if err := ValidateGilbertElliott(c.pAvg, c.burstLen); err != nil {
			t.Errorf("ValidateGilbertElliott(%g, %g) rejected: %v", c.pAvg, c.burstLen, err)
		}
		g, err := NewGilbertElliott(c.pAvg, c.burstLen)
		if err != nil || g == nil {
			t.Errorf("NewGilbertElliott(%g, %g) failed: %v", c.pAvg, c.burstLen, err)
			continue
		}
		if math.IsNaN(g.PGoodToBad) || g.PGoodToBad <= 0 || g.PBadToGood <= 0 {
			t.Errorf("checked chain (%g, %g) has degenerate transitions %+v", c.pAvg, c.burstLen, g)
		}
	}
	// A checked chain must realize its configured average.
	g, err := NewGilbertElliott(0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	drops := 0
	const n = 500000
	for i := 0; i < n; i++ {
		if g.Drop(rng) {
			drops++
		}
	}
	if rate := float64(drops) / n; math.Abs(rate-0.02) > 0.004 {
		t.Fatalf("checked chain realized loss %g, want ≈0.02", rate)
	}
}
