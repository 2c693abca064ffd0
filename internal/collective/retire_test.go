package collective

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
)

// A receive retires its slots at its completion instant and returns, so
// nothing after completion sits on the collective critical path: with
// 2N−2 dependent stages, a receive that waited out a final-ACK window
// before returning would serialize one such window per stage (54.4 ms
// on this scenario). This regression test pins the ring-4 allreduce
// figure absolutely: the reduction must be element-identical to a
// locally computed sum, and the virtual completion time must stay at
// its 30.0 ms-class value.
func TestRing4AllreduceAsyncRetireFigure(t *testing.T) {
	vc := clock.NewVirtual()
	ring, err := BuildFunctionalRing(4, funcCoreCfg(vc), funcRelCfg(),
		fabric.Config{Latency: time.Millisecond, DropProb: 0.03, Seed: 42, Clock: vc},
		time.Millisecond, 4096*8)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()

	const n, vlen = 4, 4096
	rng := rand.New(rand.NewSource(7))
	inputs := make([][]float64, n)
	want := make([]float64, vlen)
	for i := range inputs {
		inputs[i] = make([]float64, vlen)
		for j := range inputs[i] {
			inputs[i][j] = math.Round(rng.Float64() * 1000)
			want[j] += inputs[i][j] // integers: exact in any order
		}
	}
	got, err := ring.Allreduce(inputs, "sr")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != vlen {
		t.Fatalf("result length %d, want %d", len(got), vlen)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("reduction wrong at element %d: %g, want %g", j, got[j], want[j])
		}
	}
	if elapsed, pinned := vc.Elapsed(), 30*time.Millisecond; elapsed != pinned {
		t.Fatalf("ring-4 allreduce completed at %v, want %v: a receive waits past its completion "+
			"or the wire schedule changed", elapsed, pinned)
	}
}
