// allreduce runs a gradient Allreduce across four simulated
// datacenters on the full stack: ring schedule (§5.3) → reliability
// layer (§4) → SDR bitmap middleware (§3) → simulated UC NICs over
// lossy long-haul links. Every point-to-point stage is a reliable
// Write; the example compares SR and EC end to end.
//
// Each ring runs on its own virtual clock: the times printed are
// simulated completion times, identical on every run, and a
// retransmission can never land in a staging buffer the next stage is
// already reading (on the wall clock it can — the hazard ROADMAP item 3
// closes).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/collective"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/reliability"
)

func main() {
	const (
		nDCs = 4
		vlen = 8192 // float64 gradient elements (divisible by nDCs)
	)
	relCfg := reliability.Config{
		RTT:          2 * time.Millisecond,
		PollInterval: 300 * time.Microsecond,
		AckInterval:  600 * time.Microsecond,
		K:            4, M: 2,
	}

	rng := rand.New(rand.NewSource(2024))
	inputs := make([][]float64, nDCs)
	want := make([]float64, vlen)
	for i := range inputs {
		inputs[i] = make([]float64, vlen)
		for j := range inputs[i] {
			inputs[i][j] = float64(rng.Intn(1000))
			want[j] += inputs[i][j]
		}
	}

	for _, proto := range []string{"sr", "ec"} {
		vc := clock.NewVirtual()
		coreCfg := core.Config{
			MTU: 1024, ChunkBytes: 4096, MaxMsgBytes: 1 << 20,
			Generations: 4, Channels: 2, Clock: vc,
		}
		ring, err := collective.BuildFunctionalRing(nDCs, coreCfg, relCfg,
			fabric.Config{Latency: time.Millisecond, DropProb: 0.02, Seed: 99, Clock: vc},
			time.Millisecond, vlen*8)
		if err != nil {
			log.Fatal(err)
		}
		got, err := ring.Allreduce(inputs, proto)
		if err != nil {
			log.Fatalf("%s allreduce: %v", proto, err)
		}
		for j := range want {
			if got[j] != want[j] {
				log.Fatalf("%s allreduce: element %d = %g, want %g", proto, j, got[j], want[j])
			}
		}
		fmt.Printf("%-3s ring allreduce over %d DCs (2%% loss, %d stages): %7.2f ms — result verified\n",
			proto, nDCs, 2*nDCs-2, vc.Elapsed().Seconds()*1e3)
		ring.Close()
	}
}
