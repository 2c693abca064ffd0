// Package collective models inter-datacenter collective operations on
// top of reliable point-to-point Writes (§5.3, Appendix C).
//
// The ring Allreduce across N datacenters executes 2N−2 sequential
// rounds (a reduce-scatter followed by an allgather), each moving a
// 1/N fraction of the buffer between ring neighbours. Under lossy
// long-haul links the per-stage reliability cost compounds across the
// dependency chain, which is what amplifies the EC-vs-SR gap in
// Fig 13.
package collective

import (
	"fmt"
	"math/rand"

	"sdrrdma/internal/model"
)

// Ring describes a ring Allreduce deployment.
type Ring struct {
	// N is the number of datacenters on the ring (N >= 2).
	N int
	// BufferBytes is the Allreduce buffer size; each stage moves
	// BufferBytes/N between neighbours.
	BufferBytes int64
	// Scheme is the reliability scheme used for every point-to-point
	// stage.
	Scheme model.Scheme
}

// stages returns the number of sequential rounds, 2N−2.
func (r Ring) stages() int { return 2*r.N - 2 }

// stageBytes returns the per-stage message size, BufferBytes/N.
func (r Ring) stageBytes() int64 {
	b := r.BufferBytes / int64(r.N)
	if b < 1 {
		b = 1
	}
	return b
}

// sample draws one Allreduce completion-time sample by simulating the
// schedule recurrence of Appendix C:
//
//	T(i, r) = max(T(i−1, r−1), T(i, r−1)) + t(i, r−1)
//
// with per-stage durations t sampled i.i.d. from the reliability
// scheme's completion-time distribution, and returns
// max_i T(i, 2N−2).
func (r Ring) sample(rng *rand.Rand) float64 {
	if r.N < 2 {
		panic(fmt.Sprintf("collective: ring needs >=2 datacenters, got %d", r.N))
	}
	stageBytes := r.stageBytes()
	n := r.N
	cur := make([]float64, n)
	next := make([]float64, n)
	for round := 0; round < r.stages(); round++ {
		for i := 0; i < n; i++ {
			pred := cur[(i-1+n)%n]
			start := cur[i]
			if pred > start {
				start = pred
			}
			next[i] = start + r.Scheme.SampleCompletion(rng, stageBytes)
		}
		cur, next = next, cur
	}
	maxT := cur[0]
	for _, v := range cur[1:] {
		if v > maxT {
			maxT = v
		}
	}
	return maxT
}

// SampleN draws n completion-time samples with a deterministic seed.
func (r Ring) SampleN(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = r.sample(rng)
	}
	return out
}
