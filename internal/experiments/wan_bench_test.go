package experiments

import (
	"testing"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/session"
)

// The virtual-vs-real pair below is the headline wall-clock number for
// the virtual-clock migration (tracked in BENCH_protosim.json): the
// identical WAN scenario — one reliable 8 MiB SR transfer at 25 ms RTT
// and P_drop = 1e-2 through the full functional stack — measured on
// each clock backend. The real clock pays the genuine RTTs and RTO
// waits; the virtual clock pays only the CPU cost of the
// packet events. A one-shot pool per iteration keeps the deployment's
// cold build inside the measurement.
func benchWANScenario(b *testing.B, newClock func() clock.Clock) {
	for i := 0; i < b.N; i++ {
		clk := newClock()
		pool, err := session.NewPool(session.Config{Core: wanCoreCfg(clk)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runWANReliability(pool, clk, "sr", 1e-2, wanMsgBytes, 42); err != nil {
			b.Fatal(err)
		}
		if err := pool.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWANVirtual(b *testing.B) {
	benchWANScenario(b, func() clock.Clock { return clock.NewVirtual() })
}

func BenchmarkWANReal(b *testing.B) {
	benchWANScenario(b, func() clock.Clock { return clock.Realtime() })
}
