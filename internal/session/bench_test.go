package session_test

import (
	"runtime"
	"testing"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/session"
)

// churnCoreCfg is the WAN-experiment deployment shape (4 KiB MTU, 4
// channels, deep CQ rings) — the configuration whose churn cost the
// elastic fabric is sized against.
func churnCoreCfg(clk clock.Clock) core.Config {
	return core.Config{
		MTU: 4096, ChunkBytes: 64 << 10, MaxMsgBytes: 16 << 20,
		MsgIDBits: 10, PktOffsetBits: 18, UserImmBits: 4,
		Generations: 2, Channels: 4, CQDepth: 1 << 12,
		Clock: clk,
	}
}

// The connection-churn pair: cold builds the entire deployment per
// session (devices, contexts, QPs, CQ rings, control-plane slabs);
// leased pays only the rebind of a pooled deployment. The elastic
// fabric's contract — leased allocates ≥10x less than cold — is pinned
// by TestLeasedRebindAllocRatio below and tracked in BENCH_protosim.json
// via these benchmarks.

func BenchmarkSessionChurnCold(b *testing.B) {
	clk := clock.NewReal()
	cfg := churnCoreCfg(clk)
	rel := poolRelCfg()
	fabCfg := fabric.Config{Clock: clk}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := reliability.NewSession(cfg, rel, fabCfg, fabCfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

func BenchmarkSessionChurnLeased(b *testing.B) {
	clk := clock.NewReal()
	pool, err := session.NewPool(session.Config{Core: churnCoreCfg(clk)})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	rel := poolRelCfg()
	fabCfg := fabric.Config{Clock: clk}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := pool.LeaseLinked(rel, fabCfg, fabCfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// Leasing a pooled deployment must allocate at least 10x less than a
// cold build — the headline property of the elastic session fabric.
func TestLeasedRebindAllocRatio(t *testing.T) {
	clk := clock.NewReal()
	cfg := churnCoreCfg(clk)
	rel := poolRelCfg()
	fabCfg := fabric.Config{Clock: clk}

	cold := testing.AllocsPerRun(10, func() {
		s, err := reliability.NewSession(cfg, rel, fabCfg, fabCfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	})

	pool, err := session.NewPool(session.Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	leased := testing.AllocsPerRun(50, func() {
		s, err := pool.LeaseLinked(rel, fabCfg, fabCfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	})

	t.Logf("allocs/session: cold=%.0f leased=%.0f (ratio %.1fx)", cold, leased, cold/leased)
	if leased*10 > cold {
		t.Fatalf("leased rebind allocates %.0f/session vs %.0f cold — less than the required 10x reduction", leased, cold)
	}
}

// TestDeploymentFootprint pins the live memory of a pooled deployment,
// the figure that bounds how many concurrent flows one process can
// host (4096 at 256 KiB each is 1 GiB). It builds 64 virtual-clock
// deployments of the flow_churn shape — 64 KiB messages, otherwise the
// churn deployment — and keeps them all leased while it measures.
func TestDeploymentFootprint(t *testing.T) {
	const kept, budget = 64, 256 << 10
	cfg := churnCoreCfg(clock.NewVirtual())
	cfg.MaxMsgBytes = 64 << 10
	pool, err := session.NewPool(session.Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	live := make([]*session.Deployment, kept)
	for i := range live {
		if live[i], err = pool.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / kept
	runtime.KeepAlive(live)
	t.Logf("live heap per deployment: %d KiB", per>>10)
	if per > budget {
		t.Fatalf("a live deployment holds %d KiB, want ≤ %d KiB", per>>10, budget>>10)
	}
}
