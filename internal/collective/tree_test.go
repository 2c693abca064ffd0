package collective

import (
	"math"
	"math/rand"
	"testing"

	"sdrrdma/internal/model"
	"sdrrdma/internal/stats"
)

func TestTreeRounds(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4},
	} {
		tr := Tree{N: tc.n}
		if got := tr.Rounds(); got != tc.want {
			t.Fatalf("Rounds(N=%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestTreeDeterministic(t *testing.T) {
	// constant stage duration: completion = rounds · d exactly
	for _, n := range []int{2, 4, 8, 16} {
		tr := Tree{N: n, BufferBytes: 1 << 20, Scheme: constScheme{d: 2.0}}
		got := tr.sample(rand.New(rand.NewSource(1)))
		want := float64(tr.Rounds()) * 2.0
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("N=%d: tree time %g, want %g", n, got, want)
		}
	}
}

func TestTreeAllNodesReached(t *testing.T) {
	// N not a power of two exercises the partial last round.
	for _, n := range []int{3, 5, 6, 7, 9, 13} {
		tr := Tree{N: n, BufferBytes: 1 << 20, Scheme: constScheme{d: 1.0}}
		got := tr.sample(rand.New(rand.NewSource(2)))
		if got <= 0 || got > float64(tr.Rounds())+1e-9 {
			t.Fatalf("N=%d: completion %g outside (0, rounds]", n, got)
		}
	}
}

func TestTreeRespectsLowerBound(t *testing.T) {
	ch := ringChannel(1e-3)
	sr := model.NewSRRTO(ch)
	tr := Tree{N: 8, BufferBytes: 128 << 20, Scheme: sr}
	mean := stats.Mean(tr.SampleN(600, 5))
	lb := float64(tr.Rounds()) * sr.MeanCompletion(tr.BufferBytes)
	if mean < lb*0.98 {
		t.Fatalf("tree mean %g below lower bound %g", mean, lb)
	}
}

// The §5.3 argument extends: EC's per-stage advantage compounds along
// the tree's critical path too.
func TestTreeECSpeedup(t *testing.T) {
	ch := ringChannel(1e-3)
	srTree := Tree{N: 8, BufferBytes: 128 << 20, Scheme: model.NewSRRTO(ch)}
	ecTree := Tree{N: 8, BufferBytes: 128 << 20, Scheme: model.NewMDS(ch)}
	sr := stats.Summarize(srTree.SampleN(2000, 7)).P999
	ecv := stats.Summarize(ecTree.SampleN(2000, 8)).P999
	if sr/ecv < 2 {
		t.Fatalf("tree p99.9 EC speedup = %.2f, want >2 at 1e-3", sr/ecv)
	}
}

// Ring vs tree trade-off: the tree moves the full buffer per stage but
// has only log2 N stages; the ring moves 1/N per stage over 2N-2
// stages. For injection-dominated (huge) buffers the ring's bandwidth
// optimality wins; for RTT-dominated (small) buffers the tree's short
// critical path wins.
func TestRingVsTreeCrossover(t *testing.T) {
	ch := ringChannel(0) // lossless: pure bandwidth/latency comparison
	sr := model.NewSRRTO(ch)
	rng := rand.New(rand.NewSource(1))
	run := func(buf int64) (ringT, treeT float64) {
		ring := Ring{N: 8, BufferBytes: buf, Scheme: sr}
		tree := Tree{N: 8, BufferBytes: buf, Scheme: sr}
		return ring.sample(rng), tree.sample(rng)
	}
	ringBig, treeBig := run(64 << 30) // injection-dominated
	if ringBig >= treeBig {
		t.Fatalf("ring (%g) should beat tree (%g) for 64 GiB on 8 nodes", ringBig, treeBig)
	}
	ringSmall, treeSmall := run(1 << 20) // RTT-dominated
	if treeSmall >= ringSmall {
		t.Fatalf("tree (%g) should beat ring (%g) for 1 MiB on 8 nodes", treeSmall, ringSmall)
	}
}

func TestTreePanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N=1 tree did not panic")
		}
	}()
	Tree{N: 1, BufferBytes: 1, Scheme: constScheme{1}}.sample(rand.New(rand.NewSource(1)))
}
