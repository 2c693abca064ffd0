package experiments

import (
	"testing"
)

// The multidc pair mirrors BenchmarkWANVirtual/Real for topologies:
// the identical reduced multi-DC sweep (ring allreduce + tree
// broadcast + dumbbell contention) on each clock backend. The real
// clock pays every WAN RTT across every collective stage; the virtual
// clock pays only the CPU cost of the packet events. Tracked in
// BENCH_protosim.json.
func benchMultiDC(b *testing.B, real bool) {
	// SweepWorkers pins the serial path so the tracked number stays the
	// per-scenario cost; the multi-lane speedup is tracked separately by
	// BenchmarkMultiDCSweepSerial/Parallel.
	opts := Options{Samples: 100, TailSamples: 100, Seed: 42, DurationSec: 0.1, RealClock: real, SweepWorkers: 1}
	for i := 0; i < b.N; i++ {
		if _, err := Run("multidc-functional", opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiDCVirtual(b *testing.B) { benchMultiDC(b, false) }

func BenchmarkMultiDCReal(b *testing.B) { benchMultiDC(b, true) }
