package model

import (
	"fmt"
	"math"
	"math/rand"

	"sdrrdma/internal/wan"
)

// SR models the Selective Repeat reliability scheme of §4.1.1/§4.2.2.
//
// For a message of M chunks, chunk i (1-based) completes at
//
//	X_i = t_start(i) + O·(Y_i − 1),   t_start(i) = i·T_INJ,
//	O   = RTO + T_INJ,                Y_i ~ Geom(1 − P_drop),
//
// and the Write completes at T_SR = max_i X_i + RTT.
type SR struct {
	Ch wan.Params
	// RTOFactor sets RTO = RTOFactor·RTT. The paper's "SR RTO"
	// scenario uses 3 (α = 2 in RTO = RTT + α·RTT); "SR NACK" uses 1,
	// the best-case negative-acknowledgment approximation (§5.1.1).
	RTOFactor float64
}

// NewSRRTO returns the paper's timeout-driven SR with RTO = 3·RTT.
func NewSRRTO(ch wan.Params) SR { return SR{Ch: ch.WithDefaults(), RTOFactor: 3} }

// NewSRNACK returns the paper's NACK-optimized SR with 1-RTT recovery.
func NewSRNACK(ch wan.Params) SR { return SR{Ch: ch.WithDefaults(), RTOFactor: 1} }

// Name implements Scheme.
func (s SR) Name() string {
	if s.RTOFactor <= 1 {
		return "SR NACK"
	}
	return fmt.Sprintf("SR RTO(%g RTT)", s.RTOFactor)
}

// rto returns the per-chunk retransmission timeout in seconds.
func (s SR) rto() float64 { return s.RTOFactor * s.Ch.RTT() }

// SampleCompletion implements Scheme for a message of msgBytes.
func (s SR) SampleCompletion(rng *rand.Rand, msgBytes int64) float64 {
	return s.sampleCompletionChunks(rng, int64(s.Ch.ChunksIn(msgBytes)))
}

// exactSampleThreshold bounds the per-chunk sampling loop; above it the
// dropped-chunk subset is sampled directly, which is what makes 2-TiB
// messages (2^29 chunks) cheap to sample.
const exactSampleThreshold = 4096

// sampleCompletionChunks draws one completion-time sample for a
// message of m chunks. Chunks with Y_i = 1 finish at t_start(i), whose
// maximum is t_start(M); for large m only the Binomial(m, P) chunks
// whose first transmission dropped need individual sampling.
func (s SR) sampleCompletionChunks(rng *rand.Rand, m int64) float64 {
	if m <= 0 {
		return s.Ch.RTT()
	}
	tinj := s.Ch.ChunkInjectionTime()
	p := s.Ch.PDrop
	maxX := float64(m) * tinj // chunk M delivered first try
	if p > 0 {
		overhead := s.rto() + tinj
		if m <= exactSampleThreshold {
			for i := int64(1); i <= m; i++ {
				if rng.Float64() < p {
					y := 1 + sampleGeometricExtra(rng, p) // Y_i | Y_i >= 2
					if x := float64(i)*tinj + overhead*float64(y-1); x > maxX {
						maxX = x
					}
				}
			}
		} else {
			dropped := sampleBinomial(rng, m, p)
			for j := int64(0); j < dropped; j++ {
				i := rng.Int63n(m) + 1
				y := 1 + sampleGeometricExtra(rng, p)
				if x := float64(i)*tinj + overhead*float64(y-1); x > maxX {
					maxX = x
				}
			}
		}
	}
	return maxX + s.Ch.RTT()
}

// MeanCompletion returns the analytical expectation of T_SR from
// Appendix A:
//
//	E[T_SR(M)] = E[max_i X_i] + RTT,
//	E[max X_i] = ∫_0^∞ P(max X_i ≥ q) dq
//	           = t_start(M) + ∫_{t_M}^∞ P(max X_i ≥ q) dq,
//
// evaluated by midpoint quadrature over the monotone survival
// function. Chunks sharing the same retransmission level
// j = ⌈(q − t_start(i))/O⌉ are grouped, so each abscissa costs
// O(levels) instead of O(M).
func (s SR) MeanCompletion(msgBytes int64) float64 {
	return s.meanCompletionChunks(int64(s.Ch.ChunksIn(msgBytes)))
}

// meanCompletionChunks is MeanCompletion for an explicit chunk count.
func (s SR) meanCompletionChunks(m int64) float64 {
	if m <= 0 {
		return s.Ch.RTT()
	}
	p := s.Ch.PDrop
	tinj := s.Ch.ChunkInjectionTime()
	tM := float64(m) * tinj
	if p <= 0 {
		return tM + s.Ch.RTT()
	}
	overhead := s.rto() + tinj

	// Midpoint quadrature; the survival function is monotone
	// non-increasing, so the absolute error is bounded by step/2
	// regardless of how many t_start breakpoints a step straddles.
	step := overhead / 8192
	integral := 0.0
	for q := tM + step/2; q < tM+overhead*80; q += step {
		surv := survivalMax(q, m, tinj, overhead, p)
		integral += surv * step
		if surv < 1e-12 {
			break
		}
	}
	return tM + integral + s.Ch.RTT()
}

// survivalMax returns P(max_i X_i ≥ q) for q > t_start(M).
//
// P(X_i ≥ q) = p^j with j = ⌈(q − i·tinj)/O⌉ (Appendix A), so chunks
// fall into level groups: level j covers the i-range
// (q − j·O)/tinj ≤ i < (q − (j−1)·O)/tinj, clamped to [1, M].
func survivalMax(q float64, m int64, tinj, overhead, p float64) float64 {
	logProd := 0.0
	pj := 1.0
	for j := 1; ; j++ {
		pj *= p
		if pj < 1e-18 {
			break
		}
		lo := int64(math.Ceil((q - float64(j)*overhead) / tinj))
		hi := int64(math.Ceil((q-float64(j-1)*overhead)/tinj)) - 1
		if lo < 1 {
			lo = 1
		}
		if hi > m {
			hi = m
		}
		if hi >= lo {
			logProd += float64(hi-lo+1) * math.Log1p(-pj)
		}
	}
	return 1 - math.Exp(logProd)
}
