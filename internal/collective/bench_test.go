package collective

import (
	"math"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/reliability"
)

// BenchmarkFunctionalAllreduceVirtual runs a lossy 3-node ring
// allreduce of the real SDR stack as a discrete-event simulation: the
// per-iteration cost is pure CPU (session construction + every packet
// event of the 2N−2 stages), independent of the configured WAN
// latency. Tracked in BENCH_protosim.json.
func BenchmarkFunctionalAllreduceVirtual(b *testing.B) {
	const n, vlen = 3, 3 * 1024
	relCfg := reliability.Config{
		RTT:           2 * time.Millisecond,
		Alpha:         2,
		NACK:          true,
		PollInterval:  300 * time.Microsecond,
		AckInterval:   600 * time.Microsecond,
		GlobalTimeout: 60 * time.Second,
		K:             4, M: 2, Code: "mds",
	}
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = make([]float64, vlen)
		for j := range inputs[i] {
			inputs[i][j] = math.Round(float64((i+j)%97) * 1.0)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vc := clock.NewVirtual()
		ring, err := BuildFunctionalRing(n, funcCoreCfg(vc), relCfg,
			fabric.Config{Latency: time.Millisecond, DropProb: 0.02, Seed: 42, Clock: vc},
			time.Millisecond, vlen*8)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ring.Allreduce(inputs, "sr"); err != nil {
			b.Fatal(err)
		}
		ring.Close()
	}
}
