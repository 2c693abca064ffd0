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

func BenchmarkSessionChurnCold(b *testing.B) { benchColdBuild(b, clock.NewReal()) }

// BenchmarkSessionChurnColdVirtual is the cold build the repo
// benchmark's setup_s times: on a virtual clock, whose control planes
// post 2 receive buffers instead of 16.
func BenchmarkSessionChurnColdVirtual(b *testing.B) { benchColdBuild(b, clock.NewVirtual()) }

func benchColdBuild(b *testing.B, clk clock.Clock) {
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
// host (4096 at 64 KiB each is 256 MiB). It builds 64 virtual-clock
// deployments of the flow_churn shape — 64 KiB messages, otherwise the
// churn deployment — and keeps them all leased while it measures. A
// cold deployment holds no message-slot or root-key storage (RecvPost
// grows it) and a 2-buffer control ring per side.
func TestDeploymentFootprint(t *testing.T) {
	const kept, budget = 64, 64 << 10
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

// A 20+8+4 immediate split is legal and gives every root key and QP
// 2^20 message slots (§3.3.2), which cost 64 MiB per deployment when
// their storage was allocated at build. Storage follows the slots
// receives reach, so building such a deployment and moving a message
// over it must stay far below that.
func TestWideMessageIDFootprint(t *testing.T) {
	const budget = 256 << 10
	clk := clock.NewVirtual()
	cfg := churnCoreCfg(clk)
	cfg.MsgIDBits, cfg.PktOffsetBits, cfg.UserImmBits = 20, 8, 4
	cfg.MaxMsgBytes = 64 << 10
	data := make([]byte, 16<<10)
	fabCfg := fabric.Config{Clock: clk}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := reliability.NewSession(cfg, poolRelCfg(), fabCfg, fabCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := driveSR(s, data); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(s)
	t.Logf("live heap of a 20+8+4 deployment after one message: %d KiB", live>>10)
	if live > budget {
		t.Fatalf("a 20+8+4 deployment holds %d KiB, want ≤ %d KiB", live>>10, budget>>10)
	}
	s.Close()
}
