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

// sampleCompletionChunks draws one completion-time sample for a
// message of m chunks, exactly and without visiting every chunk.
// Scanning from chunk M down, only a record — a chunk with more extra
// transmissions k = Y_i − 1 than every later chunk — can hold
// max_i X_i. Past a record at k, the next one is the first chunk with
// Y_i − 1 > k, which each chunk is with probability q = P^{k+1}, so it
// lies a Geom(1 − q) skip away; its own k is k + 1 + Geom(P). A sample
// costs a few draws per record, and a message of M chunks holds
// O(log M) records in expectation, whatever the drop rate.
func (s SR) sampleCompletionChunks(rng *rand.Rand, m int64) float64 {
	tinj, p := s.Ch.ChunkInjectionTime(), s.Ch.PDrop
	o := s.rto() + tinj
	maxX, k, q := 0.0, -1.0, 1.0
	for c := float64(m); c >= 1; c -= 1 + geomSkip(rng, math.Log1p(-q)) {
		k, q = k+1, q*p
		if rng.Float64() < p {
			logp := math.Log(p)
			k += 1 + geomSkip(rng, logp)
			q = math.Exp((k + 1) * logp)
		}
		maxX = max(maxX, c*tinj+o*k)
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
// evaluated by midpoint quadrature over the survival function.
func (s SR) MeanCompletion(msgBytes int64) float64 {
	return s.meanCompletionChunks(int64(s.Ch.ChunksIn(msgBytes)))
}

// meanCompletionChunks is MeanCompletion for an explicit chunk count.
func (s SR) meanCompletionChunks(m int64) float64 {
	if m <= 0 {
		return s.Ch.RTT()
	}
	t := s.tail(m)
	tM := t.m * t.tinj
	if s.Ch.PDrop <= 0 {
		return tM + s.Ch.RTT()
	}
	// The survival function is monotone non-increasing, so each step's
	// error is bounded by the step times the survival's drop across it.
	// The step is O/8192 over the first 80·O and then grows with the
	// distance, which keeps the error of the tail relative to its mean.
	integral := 0.0
	for a, step := 0.0, t.o/8192; ; a += step {
		step = max(step, (a-80*t.o)/4096)
		surv := t.survival(a + step/2)
		integral += surv * step
		if surv < 1e-12 {
			break
		}
	}
	return tM + integral + s.Ch.RTT()
}

// tail is the law of max_i X_i for a message of m chunks (Appendix A).
// Chunk M − d reaches t_start(M) + s only through
// j = ⌈(s + d·T_INJ)/O⌉ retransmissions, which happen with probability
// P^j, so for s > 0
//
//	P(max_i X_i ≥ t_start(M) + s) = 1 − ∏_j (1 − P^j)^{n_j(s)}
//
// with n_j(s) the chunks at retransmission level j. Only the levels
// that hold chunks are visited, up to top: the levels above it hold
// less than 2^-60 of survival.
type tail struct {
	m, tinj, o, logp, top float64
	lq                    []float64 // log(1 − P^j) for j ≤ 1024: read, not recomputed, at every quadrature step
}

func (s SR) tail(m int64) *tail {
	t := &tail{m: float64(m), tinj: s.Ch.ChunkInjectionTime(), logp: math.Log(s.Ch.PDrop)}
	t.o = s.rto() + t.tinj
	t.top = math.Floor((math.Log(0x1p-60) - math.Log(t.m)) / t.logp)
	for j := 1.0; j <= min(t.top, 1024); j++ {
		t.lq = append(t.lq, log1mexp(j*t.logp))
	}
	return t
}

// logq returns log(1 − P^j), the log-probability that a chunk stays
// below retransmission level j.
func (t *tail) logq(j float64) float64 {
	if int(j) <= len(t.lq) {
		return t.lq[int(j)-1]
	}
	return log1mexp(j * t.logp)
}

// below returns how many chunks sit at retransmission level ≤ j at s:
// those with d ≤ (j·O − s)/T_INJ.
func (t *tail) below(j, s float64) float64 {
	return max(0, min(t.m, math.Floor((j*t.o-s)/t.tinj)+1))
}

// survival returns P(max_i X_i ≥ t_start(M) + s) for s > 0.
func (t *tail) survival(s float64) float64 {
	logF, n := 0.0, 0.0
	for j := max(1, math.Ceil(s/t.o)); n < t.m && j <= t.top; j++ {
		nj := t.below(j, s)
		logF += (nj - n) * t.logq(j)
		n = nj
	}
	return 1 - math.Exp(logF)
}
