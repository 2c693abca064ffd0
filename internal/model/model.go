// Package model implements the paper's message-completion-time
// framework (§4.2, Appendices A and B): stochastic and analytical
// models for RDMA Write completion time under Selective Repeat and
// Erasure Coding reliability over a lossy, high-delay channel.
//
// This is the Go port of the open-source Python library the authors
// used to produce Figures 3 and 9–13. Time is in seconds; message
// sizes in bytes; the loss unit is the bitmap chunk, with P_drop
// i.i.d. per chunk (§4.2.1).
//
// Sampling is exact at every message size and drop rate: no draw
// falls back on a Poisson or normal approximation, and no chunk count
// or retransmission level is capped.
package model

import (
	"math"
	"math/rand"

	"sdrrdma/internal/wan"
)

// Scheme is a reliability algorithm whose completion time can be
// sampled from the stochastic model.
type Scheme interface {
	// SampleCompletion draws one sample of the sender-side Write
	// completion time for a message of msgBytes.
	SampleCompletion(rng *rand.Rand, msgBytes int64) float64
	// Name identifies the scheme in experiment output.
	Name() string
}

// LosslessTime returns the Write completion time on an ideal channel:
// injection of all chunks plus the final acknowledgment round trip.
// Figures 3 and 12 normalize ("slowdown") against this.
func LosslessTime(ch wan.Params, msgBytes int64) float64 {
	m := ch.ChunksIn(msgBytes)
	return float64(m)*ch.ChunkInjectionTime() + ch.RTT()
}

// Sample draws n completion-time samples for the scheme with a
// deterministic seed and returns them.
func Sample(s Scheme, msgBytes int64, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = s.SampleCompletion(rng, msgBytes)
	}
	return out
}

// --- random variate helpers ------------------------------------------------

// geomSkip draws the run length G, with P(G ≥ g) = q^g, of trials
// that each go one way with probability q = e^logq before the first
// goes the other: ⌊E / −ln q⌋ for a standard exponential E, which
// costs no log. The result is a float64 so that a q near 1 cannot
// overflow an integer.
func geomSkip(rng *rand.Rand, logq float64) float64 {
	return math.Floor(rng.ExpFloat64() / -logq)
}

// binomial draws Binomial(n, p) by skipping from one success to the
// next: one draw per success.
func binomial(rng *rand.Rand, n int64, p float64) (k int64) {
	if p <= 0 {
		return 0
	}
	skip := math.Log1p(-p)
	for i := geomSkip(rng, skip); i < float64(n); i += 1 + geomSkip(rng, skip) {
		k++
	}
	return k
}

// log1mexp returns log(1 − e^x) for x < 0 without cancellation at
// either end.
func log1mexp(x float64) float64 {
	if x > -math.Ln2 {
		return math.Log(-math.Expm1(x))
	}
	return math.Log1p(-math.Exp(x))
}
