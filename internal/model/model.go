// Package model implements the paper's message-completion-time
// framework (§4.2, Appendices A and B): stochastic and analytical
// models for RDMA Write completion time under Selective Repeat and
// Erasure Coding reliability over a lossy, high-delay channel.
//
// This is the Go port of the open-source Python library the authors
// used to produce Figures 3 and 9–13. Time is in seconds; message
// sizes in bytes; the loss unit is the bitmap chunk, with P_drop
// i.i.d. per chunk (§4.2.1).
package model

import (
	"fmt"
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

// sampleBinomial draws from Binomial(n, p) using the cheapest adequate
// method: exact Bernoulli summation for small n, Poisson approximation
// when p is tiny (the paper's regime, p down to 1e-8 over up to 2^29
// chunks), and a clamped normal approximation for large means.
func sampleBinomial(rng *rand.Rand, n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	switch {
	case n <= 4096:
		var k int64
		for i := int64(0); i < n; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	case p < 0.01 && mean < 1e6:
		// Binomial → Poisson for small p; error O(p) per event.
		return samplePoisson(rng, mean)
	default:
		variance := mean * (1 - p)
		k := int64(mean + rng.NormFloat64()*math.Sqrt(variance) + 0.5)
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
}

// samplePoisson draws from Poisson(lambda) via inversion for small
// lambda and normal approximation for large lambda.
func samplePoisson(rng *rand.Rand, lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		k := int64(lambda + rng.NormFloat64()*math.Sqrt(lambda) + 0.5)
		if k < 0 {
			k = 0
		}
		return k
	}
	// Knuth inversion in log space to avoid underflow.
	l := math.Exp(-lambda)
	k := int64(0)
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// sampleGeometricExtra returns the number of transmissions needed for
// success (>= 1) for a unit that fails with probability p per attempt:
// the paper's Y_i ~ Geom(1-p).
func sampleGeometricExtra(rng *rand.Rand, p float64) int {
	y := 1
	for rng.Float64() < p {
		y++
		if y > 1<<20 {
			panic(fmt.Sprintf("model: geometric sample diverged at p=%g", p))
		}
	}
	return y
}
