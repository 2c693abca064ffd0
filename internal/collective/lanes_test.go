package collective

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/reliability"
)

// collectiveCell runs one lossy collective scenario on a pooled lane
// engine and returns its deterministic signature (virtual completion
// time + packets injected).
func collectiveCell(t *testing.T, v *clock.Virtual, cell int) string {
	t.Helper()
	seed := clock.CellSeed(11, cell)
	fab := fabric.Config{Latency: time.Millisecond, DropProb: 0.05, Seed: seed, Clock: v}
	var sent uint64
	switch cell % 3 {
	case 0, 1: // ring allreduce, sr / ec
		proto := "sr"
		if cell%3 == 1 {
			proto = "ec"
		}
		const n, vlen = 3, 3 * 1024
		ring, err := BuildFunctionalRing(n, funcCoreCfg(v), funcRelCfg(), fab, time.Millisecond, vlen*8)
		if err != nil {
			t.Fatal(err)
		}
		defer ring.Close()
		inputs := make([][]float64, n)
		for i := range inputs {
			inputs[i] = make([]float64, vlen)
			for j := range inputs[i] {
				inputs[i][j] = float64((i*vlen + j) % 797)
			}
		}
		if _, err := ring.Allreduce(inputs, proto); err != nil {
			t.Fatal(err)
		}
		for _, s := range ring.Sessions() {
			sent += s.Pair.A.QP.Stats().PacketsSent
		}
	default: // binomial tree broadcast
		const n, size = 4, 32 << 10
		cfg := funcCoreCfg(v)
		edge := 0
		tree, err := BuildFunctionalTreeWith(n, v, func(parent, child int) (*reliability.Session, error) {
			c := fab
			c.Seed = seed + int64(edge)*7919
			edge++
			return reliability.NewSession(cfg, funcRelCfg(), c, c, time.Millisecond)
		}, size)
		if err != nil {
			t.Fatal(err)
		}
		defer tree.Close()
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(seed) ^ byte(i*31)
		}
		if _, err := tree.Broadcast(data, "sr"); err != nil {
			t.Fatal(err)
		}
		for _, s := range tree.Sessions() {
			sent += s.Pair.A.QP.Stats().PacketsSent
		}
	}
	return fmt.Sprintf("cell%d t=%v sent=%d", cell, v.Elapsed(), sent)
}

// The collectives must give the same multi-lane guarantee as the
// figure sweeps: scenario cells fanned across pooled engines are
// byte-identical to the serial path for any worker count.
func TestCollectiveLanesDeterministic(t *testing.T) {
	const cells = 6
	render := func(workers int) string {
		out := make([]string, cells)
		(&clock.Lanes{Workers: workers}).Run(cells, func(v *clock.Virtual, i int) {
			out[i] = collectiveCell(t, v, i)
		})
		return strings.Join(out, "\n")
	}
	serial := render(1)
	for _, w := range []int{0, 2, 4} {
		if got := render(w); got != serial {
			t.Fatalf("workers=%d diverged:\n%s\n---\n%s", w, got, serial)
		}
	}
}
