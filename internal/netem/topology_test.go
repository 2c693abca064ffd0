package netem

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/reliability"
)

func testEdge() EdgeConfig {
	return EdgeConfig{DistanceKm: 300, BandwidthBps: 10e9, BufferBytes: 1 << 20}
}

func TestRingRoutes(t *testing.T) {
	topo, err := Ring(clock.NewVirtual(), 4, testEdge(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Edges()); got != 4 {
		t.Fatalf("ring-4 has %d edges, want 4", got)
	}
	hops, err := topo.route(0, 1)
	if err != nil || len(hops) != 1 || !hops[0].Forward {
		t.Fatalf("route 0→1 = %v (err %v), want one forward hop", hops, err)
	}
	hops, err = topo.route(0, 3)
	if err != nil || len(hops) != 1 || hops[0].Forward {
		t.Fatalf("route 0→3 = %v (err %v), want one reverse hop (edge 3–0)", hops, err)
	}
	hops, err = topo.route(0, 2)
	if err != nil || len(hops) != 2 {
		t.Fatalf("route 0→2 = %d hops (err %v), want 2", len(hops), err)
	}
	if d := pathDelay(hops); d != 2*time.Millisecond {
		t.Fatalf("0→2 delay %v, want 2ms (2 × 300 km)", d)
	}
}

func TestRingTwoNodes(t *testing.T) {
	topo, err := Ring(clock.NewVirtual(), 2, testEdge(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Edges()); got != 1 {
		t.Fatalf("ring-2 has %d edges, want 1 (no parallel duplicate)", got)
	}
	if _, err := topo.route(1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTreeAndMeshShapes(t *testing.T) {
	tree, err := Tree(clock.NewVirtual(), 7, testEdge(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tree.Edges()); got != 6 {
		t.Fatalf("tree-7 has %d edges, want 6", got)
	}
	// leaf 3 → leaf 6 crosses the root: 3→1→0→2→6.
	hops, err := tree.route(3, 6)
	if err != nil || len(hops) != 4 {
		t.Fatalf("tree route 3→6 = %d hops (err %v), want 4", len(hops), err)
	}
	mesh := New("mesh-5", clock.NewVirtual(), 1)
	for i := 0; i < 5; i++ {
		mesh.AddNode(fmt.Sprintf("dc%d", i))
		for j := 0; j < i; j++ {
			if _, err := mesh.AddEdge(j, i, testEdge()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := len(mesh.Edges()); got != 10 {
		t.Fatalf("mesh-5 has %d edges, want 10", got)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i == j {
				continue
			}
			hops, err := mesh.route(i, j)
			if err != nil || len(hops) != 1 {
				t.Fatalf("mesh route %d→%d = %d hops (err %v), want 1", i, j, len(hops), err)
			}
		}
	}
}

func TestDumbbellLayout(t *testing.T) {
	d, err := Dumbbell(clock.NewVirtual(), 3, testEdge(), testEdge(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Left) != 3 || len(d.Right) != 3 {
		t.Fatalf("leaves %d/%d, want 3/3", len(d.Left), len(d.Right))
	}
	for i := range d.Left {
		hops, err := d.route(d.Left[i], d.Right[i])
		if err != nil || len(hops) != 3 {
			t.Fatalf("flow %d route = %d hops (err %v), want 3", i, len(hops), err)
		}
		if hops[1].Edge != d.Bottleneck {
			t.Fatalf("flow %d does not cross the bottleneck", i)
		}
		if hops[1].queue() != d.Bottleneck.Fwd {
			t.Fatalf("flow %d uses the wrong bottleneck direction", i)
		}
	}
}

func TestTopologyValidation(t *testing.T) {
	topo := New("bad", clock.NewVirtual(), 1)
	a := topo.AddNode("a")
	b := topo.AddNode("b")
	if _, err := topo.AddEdge(a, 5, testEdge()); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := topo.AddEdge(a, a, testEdge()); err == nil {
		t.Fatal("self-edge accepted")
	}
	bad := testEdge()
	bad.Loss = LossSpec{P: 1.5, BurstLen: 8}
	if _, err := topo.AddEdge(a, b, bad); err == nil {
		t.Fatal("invalid loss spec accepted — netem configs must fail fast")
	}
	c := topo.AddNode("c") // isolated
	if _, err := topo.route(a, c); err == nil {
		t.Fatal("route to disconnected node accepted")
	}
	if _, err := topo.route(a, a); err == nil {
		t.Fatal("self-route accepted")
	}
}

// Edge rates and distances must be finite: a NaN passes a bare `<= 0`
// or `< 0` check, and time.Duration(NaN) is implementation-defined in
// Go. (Queue rates: TestQueueConfigValidation.)
func TestFiniteRatesAndDistances(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	topo := New("finite", clock.NewVirtual(), 1)
	a, b := topo.AddNode("a"), topo.AddNode("b")
	edge, err := topo.AddEdge(a, b, testEdge())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"edge bandwidth NaN", func() error { _, err := topo.AddEdge(a, b, EdgeConfig{BandwidthBps: nan}); return err }()},
		{"edge bandwidth +Inf", func() error { _, err := topo.AddEdge(a, b, EdgeConfig{BandwidthBps: inf}); return err }()},
		{"edge distance NaN", func() error { _, err := topo.AddEdge(a, b, EdgeConfig{DistanceKm: nan, BandwidthBps: 1e9}); return err }()},
		{"edge distance +Inf", func() error { _, err := topo.AddEdge(a, b, EdgeConfig{DistanceKm: inf, BandwidthBps: 1e9}); return err }()},
		{"edge distance -1", func() error { _, err := topo.AddEdge(a, b, EdgeConfig{DistanceKm: -1, BandwidthBps: 1e9}); return err }()},
		{"SetDistance NaN", edge.SetDistance(nan)},
		{"SetDistance +Inf", edge.SetDistance(inf)},
		{"SetDistance -1", edge.SetDistance(-1)},
	} {
		if c.err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if n := len(topo.Edges()); n != 1 {
		t.Errorf("%d edges after the refused builds, want 1", n)
	}
	if got := edge.distanceKm(); got != testEdge().DistanceKm {
		t.Errorf("distance %g km after refused moves, want %g", got, testEdge().DistanceKm)
	}
}

func flowCoreCfg() core.Config {
	return core.Config{
		MTU: 1024, ChunkBytes: 4096, MaxMsgBytes: 1 << 20,
		MsgIDBits: 10, PktOffsetBits: 18, UserImmBits: 4,
		Generations: 2, Channels: 2, CQDepth: 1 << 10,
	}
}

func flowRelCfg() reliability.Config {
	return reliability.Config{Alpha: 2, NACK: true, K: 4, M: 2, Code: "mds"}
}

// A reliable SR-NACK transfer across a multi-hop lossy netem path
// (leaf → agg → bottleneck → agg → leaf) delivers intact data, and the
// whole run is a deterministic function of the seed.
func runDumbbellFlow(t *testing.T, seed int64) string {
	t.Helper()
	clk := clock.NewVirtual()
	access := EdgeConfig{DistanceKm: 50, BandwidthBps: 10e9, BufferBytes: 1 << 20}
	bottleneck := EdgeConfig{DistanceKm: 800, BandwidthBps: 5e9, BufferBytes: 1 << 20,
		Loss: LossSpec{P: 0.02, BurstLen: 4}}
	d, err := Dumbbell(clk, 1, access, bottleneck, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.NewFlow(d.Left[0], d.Right[0], flowCoreCfg(), flowRelCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const size = 256 << 10
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*13 + i>>8)
	}
	driveFlow(t, s, "sr", data)
	if d.Bottleneck.Fwd.ChannelDrops.Load() == 0 {
		t.Fatal("bursty bottleneck never dropped — loss process not exercised")
	}
	return fmt.Sprintf("t=%v sent=%d drops=%d/%d",
		clk.Elapsed(), s.Pair.A.QP.Stats().PacketsSent,
		d.Bottleneck.Fwd.ChannelDrops.Load(), d.Bottleneck.Rev.ChannelDrops.Load())
}

func TestFlowAcrossDumbbell(t *testing.T) {
	first := runDumbbellFlow(t, 11)
	prev := runtime.GOMAXPROCS(1)
	second := runDumbbellFlow(t, 11)
	runtime.GOMAXPROCS(prev)
	if first != second {
		t.Fatalf("netem flow runs diverged:\n%s\n%s", first, second)
	}
	if third := runDumbbellFlow(t, 12); third == first {
		t.Fatal("different seeds produced identical traces — loss stream not seeded")
	}
}
