// Package wan models the long-haul inter-datacenter channel the paper
// targets (§2.1): bandwidth, propagation delay derived from cable
// distance, MTU/chunk injection times, and packet-loss processes.
//
// The paper's working example is a 3750 km, 400 Gbit/s link with a
// 25 ms RTT; that calibration (RTT = 2 · distance / 300000 km/s,
// ≈3.33 µs per km each way — consistent with the paper's "1000 km ⇒
// ≈6.5 ms added RTT") is the default here.
package wan

import (
	"fmt"
	"math"
	"math/rand"
)

// PropagationSecPerKm is the one-way propagation delay per kilometre of
// cable used throughout the paper's analysis (3750 km ⇔ 25 ms RTT).
const PropagationSecPerKm = 1.0 / 300000.0

// DefaultMTU is the paper's 4 KiB MTU (§3.2.4).
const DefaultMTU = 4096

// Params describes one sender→receiver long-haul channel.
type Params struct {
	// BandwidthBps is the line rate in bits per second (e.g. 400e9).
	BandwidthBps float64
	// DistanceKm is the one-way cable distance.
	DistanceKm float64
	// PDrop is the i.i.d. drop probability per chunk (§4.2.1). The
	// model treats chunks as the loss unit, exactly as the paper does.
	PDrop float64
	// MTUBytes is the packet payload size; defaults to DefaultMTU.
	MTUBytes int
	// ChunkBytes is the bitmap chunk size; defaults to 16 MTUs (64 KiB).
	ChunkBytes int
}

// WithDefaults returns p with zero fields replaced by the paper's
// defaults: 400 Gbit/s, 3750 km, 4 KiB MTU, 64 KiB chunks.
func (p Params) WithDefaults() Params {
	if p.BandwidthBps == 0 {
		p.BandwidthBps = 400e9
	}
	if p.DistanceKm == 0 {
		p.DistanceKm = 3750
	}
	if p.MTUBytes == 0 {
		p.MTUBytes = DefaultMTU
	}
	if p.ChunkBytes == 0 {
		p.ChunkBytes = 16 * p.MTUBytes
	}
	return p
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.BandwidthBps <= 0:
		return fmt.Errorf("wan: bandwidth %g <= 0", p.BandwidthBps)
	case p.DistanceKm < 0:
		return fmt.Errorf("wan: distance %g < 0", p.DistanceKm)
	case !(p.PDrop >= 0 && p.PDrop < 1): // NaN fails both
		return fmt.Errorf("wan: PDrop %g outside [0,1)", p.PDrop)
	case p.MTUBytes <= 0:
		return fmt.Errorf("wan: MTU %d <= 0", p.MTUBytes)
	case p.ChunkBytes < p.MTUBytes:
		return fmt.Errorf("wan: chunk %d smaller than MTU %d", p.ChunkBytes, p.MTUBytes)
	case p.ChunkBytes%p.MTUBytes != 0:
		return fmt.Errorf("wan: chunk %d not a multiple of MTU %d (§3.1.1)", p.ChunkBytes, p.MTUBytes)
	}
	return nil
}

// RTT returns the round-trip propagation time in seconds.
func (p Params) RTT() float64 { return 2 * p.DistanceKm * PropagationSecPerKm }

// ChunkInjectionTime returns T_INJ: the serialization time of one chunk
// at line rate (§4.2.1).
func (p Params) ChunkInjectionTime() float64 {
	return float64(p.ChunkBytes) * 8 / p.BandwidthBps
}

// BDPBytes returns the bandwidth-delay product in bytes, the quantity
// that separates the paper's "large" messages (injection-dominated,
// where SR wins) from "small" ones (RTT-dominated, where EC wins).
func (p Params) BDPBytes() float64 { return p.BandwidthBps * p.RTT() / 8 }

// ChunksIn returns the number of bitmap chunks in a message of size
// bytes (last chunk may be partial).
func (p Params) ChunksIn(bytes int64) int {
	c := (bytes + int64(p.ChunkBytes) - 1) / int64(p.ChunkBytes)
	if c < 1 {
		c = 1
	}
	return int(c)
}

// ChunkDropProb converts a per-packet (MTU) drop probability into the
// per-chunk drop probability P_chunk = 1-(1-p)^N observed by the
// reliability layer (Fig 15).
func ChunkDropProb(pPacket float64, packetsPerChunk int) float64 {
	return 1 - math.Pow(1-pPacket, float64(packetsPerChunk))
}

// --- loss processes -------------------------------------------------------

// LossModel decides the fate of each transmitted unit.
type LossModel interface {
	// Drop reports whether the next unit is lost.
	Drop(rng *rand.Rand) bool
}

// IIDLoss drops each unit independently with probability P, the
// assumption of the paper's analytical framework (§4.2.1).
type IIDLoss struct{ P float64 }

func (l IIDLoss) Drop(rng *rand.Rand) bool { return rng.Float64() < l.P }

// GilbertElliott is the classic two-state burst-loss channel: a Good
// state with loss PGood and a Bad state with loss PBad, switching with
// probabilities PGoodToBad and PBadToGood per unit. It models the
// correlated drop bursts that motivate multi-MTU bitmap chunks
// ("dropping 7 packets inside a chunk appears as a single chunk drop",
// §3.1.1).
type GilbertElliott struct {
	PGoodToBad float64
	PBadToGood float64
	PGood      float64
	PBad       float64
	bad        bool
}

// ValidateGilbertElliott reports whether (pAvg, burstLen) define a
// proper two-state chain: pAvg must lie in (0,1) and burstLen in
// [1,∞), both finite. Outside that range the derived transition
// probabilities degenerate — pAvg ≥ 1 divides by ≤0 (NaN/negative
// pGoodToBad), pAvg ≤ 0 or an infinite burstLen pin the chain in one
// state so the realized loss rate can never match pAvg. Topology
// configs (internal/netem) validate through this before building loss
// processes, so a bad scenario fails at construction instead of
// producing a silently wrong packet trace.
func ValidateGilbertElliott(pAvg, burstLen float64) error {
	switch {
	case math.IsNaN(pAvg) || math.IsInf(pAvg, 0) || pAvg <= 0 || pAvg >= 1:
		return fmt.Errorf("wan: gilbert-elliott pAvg %g outside (0,1)", pAvg)
	case math.IsNaN(burstLen) || math.IsInf(burstLen, 0) || burstLen < 1:
		return fmt.Errorf("wan: gilbert-elliott burstLen %g outside [1,inf)", burstLen)
	}
	return nil
}

// NewGilbertElliott builds a burst channel whose stationary loss rate is
// pAvg with mean burst length burstLen units, rejecting the parameters
// ValidateGilbertElliott rejects.
func NewGilbertElliott(pAvg, burstLen float64) (*GilbertElliott, error) {
	if err := ValidateGilbertElliott(pAvg, burstLen); err != nil {
		return nil, err
	}
	// In the bad state everything drops; dwell time sets burst length.
	pBadToGood := 1 / burstLen
	// stationary P(bad) = pGB / (pGB + pBG) = pAvg (with PBad=1, PGood=0)
	pGoodToBad := pAvg * pBadToGood / (1 - pAvg)
	return &GilbertElliott{
		PGoodToBad: pGoodToBad,
		PBadToGood: pBadToGood,
		PGood:      0,
		PBad:       1,
	}, nil
}

func (g *GilbertElliott) Drop(rng *rand.Rand) bool {
	if g.bad {
		if rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else {
		if rng.Float64() < g.PGoodToBad {
			g.bad = true
		}
	}
	p := g.PGood
	if g.bad {
		p = g.PBad
	}
	return rng.Float64() < p
}
