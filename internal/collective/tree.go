package collective

import (
	"fmt"
	"math/rand"

	"sdrrdma/internal/model"
)

// Tree models stage-based tree collectives (§5.3: "Our analysis
// generalizes to other stage-based collective algorithms with schedule
// dependencies, such as tree algorithms"). A binomial tree over N
// datacenters completes a broadcast in ⌈log2 N⌉ rounds; in round r,
// every node that already holds the data forwards the full buffer to
// one new peer, so the critical path is the chain of ⌈log2 N⌉
// dependent reliable Writes.
type Tree struct {
	// N is the number of datacenters (N >= 2).
	N int
	// BufferBytes is the broadcast payload (each stage moves the whole
	// buffer, unlike the ring's 1/N segments).
	BufferBytes int64
	// Scheme is the per-stage reliability scheme.
	Scheme model.Scheme
}

// Rounds returns ⌈log2 N⌉.
func (t Tree) Rounds() int {
	r := 0
	for n := 1; n < t.N; n <<= 1 {
		r++
	}
	return r
}

// sample draws one broadcast completion time: the finish time of the
// last node to receive the buffer. Each edge transfer is an
// independent draw from the scheme's completion-time distribution;
// node completion respects the binomial schedule (a node can only
// forward after it has received).
func (t Tree) sample(rng *rand.Rand) float64 {
	if t.N < 2 {
		panic(fmt.Sprintf("collective: tree needs >=2 datacenters, got %d", t.N))
	}
	// have[i] is the time node i obtained the buffer; root at 0.
	have := make([]float64, t.N)
	for i := range have {
		have[i] = -1
	}
	have[0] = 0
	// binomial broadcast: at the start of round r the holders are
	// nodes [0, dist); holder i forwards to i+dist, doubling the
	// holder set each round.
	for dist := 1; dist < t.N; dist <<= 1 {
		for i := 0; i < dist && i+dist < t.N; i++ {
			if have[i] < 0 {
				continue
			}
			dst := i + dist
			tEdge := t.Scheme.SampleCompletion(rng, t.BufferBytes)
			arrive := have[i] + tEdge
			if have[dst] < 0 || arrive < have[dst] {
				have[dst] = arrive
			}
		}
	}
	maxT := 0.0
	for _, v := range have {
		if v > maxT {
			maxT = v
		}
	}
	return maxT
}

// SampleN draws n samples with a deterministic seed.
func (t Tree) SampleN(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = t.sample(rng)
	}
	return out
}
