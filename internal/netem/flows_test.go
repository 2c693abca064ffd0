package netem

import (
	"fmt"
	"runtime"
	"testing"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
)

// smokeDumbbell builds the thousand-flow test shape: one leaf pair
// around a lossless bottleneck.
func smokeDumbbell(t *testing.T, clk clock.Clock, pairs int) *DumbbellTopo {
	t.Helper()
	access := EdgeConfig{DistanceKm: 50, BandwidthBps: 10e9, BufferBytes: 1 << 20}
	bottleneck := EdgeConfig{DistanceKm: 800, BandwidthBps: 5e9, BufferBytes: 1 << 20}
	d, err := Dumbbell(clk, pairs, access, bottleneck, 7)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// driveFlow moves data across an open flow under scheme through the
// shared verified-transfer driver: both sides' errors and the received
// bytes are checked by Outcome.Err.
func driveFlow(t *testing.T, s *reliability.Session, scheme string, data []byte) {
	t.Helper()
	tr, err := s.NewTransfer(scheme, reliability.AdaptorConfig{}, len(data), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Drive("flow", data).Err(); err != nil {
		t.Fatal(err)
	}
}

// runSmokeTransfer pushes size bytes across an open flow and verifies
// delivery.
func runSmokeTransfer(t *testing.T, s *reliability.Session, size int, tag byte) {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = tag ^ byte(i*13)
	}
	driveFlow(t, s, "sr", data)
}

// A dumbbell must sustain a thousand sequential flows on ONE pooled
// deployment: every NewFlow after the first is a lease of the reset
// deployment, so the steady-state cost of flow churn is a rebind, not
// a rebuild. (-short trims the count; the full thousand runs in the
// tier-1 suite.)
func TestDumbbellThousandSequentialFlows(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 100
	}
	clk := clock.NewVirtual()
	d := smokeDumbbell(t, clk, 1)
	for i := 0; i < n; i++ {
		s, err := d.NewFlow(d.Left[0], d.Right[0], flowCoreCfg(), flowRelCfg())
		if err != nil {
			t.Fatalf("flow %d: %v", i, err)
		}
		runSmokeTransfer(t, s, 16<<10, byte(i))
		s.Close()
	}
	built, leased := d.PoolStats()
	if built != 1 {
		t.Fatalf("%d sequential flows built %d deployments, want 1 (pooling broken)", n, built)
	}
	if leased != 0 {
		t.Fatalf("%d deployments still leased after all flows closed", leased)
	}
	if err := d.ClosePools(); err != nil {
		t.Fatalf("ClosePools: %v", err)
	}
}

// A lease's interceptors end with it: chaos arms its control-plane
// faults on a flow's link directions and trusts the next lease of the
// same deployment to run clean. Interceptors that drop every control
// packet, left armed at Close, must never see a packet of the next
// flow, and that flow's transfer must complete.
func TestReleasedFlowLeavesNoInterceptor(t *testing.T) {
	clk := clock.NewVirtual()
	d := smokeDumbbell(t, clk, 1)
	s1, err := d.NewFlow(d.Left[0], d.Right[0], flowCoreCfg(), flowRelCfg())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	dropControl := func(pkt *nicsim.Packet) fabric.Verdict {
		calls++
		if pkt.Opcode == nicsim.OpSend {
			return fabric.Drop
		}
		return fabric.Pass
	}
	s1.Pair.Link.AB.SetInterceptor(dropControl)
	s1.Pair.Link.BA.SetInterceptor(dropControl)
	s1.Close()

	s2, err := d.NewFlow(d.Left[0], d.Right[0], flowCoreCfg(), flowRelCfg())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Pair.Link != s1.Pair.Link {
		t.Fatal("the second flow did not re-lease the first one's deployment")
	}
	runSmokeTransfer(t, s2, 64<<10, 0x5a)
	if calls != 0 {
		t.Fatalf("the released lease's interceptor saw %d packets of the next flow", calls)
	}
	s2.Close()
	if built, leased := d.PoolStats(); built != 1 || leased != 0 {
		t.Fatalf("built=%d leased=%d, want 1/0", built, leased)
	}
	if err := d.ClosePools(); err != nil {
		t.Fatal(err)
	}
}

// A hundred concurrent flows between the same leaf pair all cross the
// shared bottleneck at once: each holds its own pooled deployment, and
// a second wave after closing reuses all of them (built stays flat).
func TestDumbbellHundredConcurrentFlows(t *testing.T) {
	const flows = 100
	clk := clock.NewVirtual()
	d := smokeDumbbell(t, clk, 1)

	wave := func(tag byte) {
		sessions := make([]*reliability.Session, flows)
		for i := range sessions {
			s, err := d.NewFlow(d.Left[0], d.Right[0], flowCoreCfg(), flowRelCfg())
			if err != nil {
				t.Fatalf("flow %d: %v", i, err)
			}
			sessions[i] = s
		}
		if _, leased := d.PoolStats(); leased != flows {
			t.Fatalf("%d flows open but %d deployments leased", flows, leased)
		}
		const size = 8 << 10
		outs := make([]*reliability.Outcome, flows)
		actors := make([]clock.NamedFunc, 0, 2*flows)
		for i, s := range sessions {
			data := make([]byte, size)
			for j := range data {
				data[j] = tag ^ byte(i) ^ byte(j*13)
			}
			tr, err := s.NewTransfer("sr", reliability.AdaptorConfig{}, size, 1)
			if err != nil {
				t.Fatal(err)
			}
			send, recv, out := tr.Actors(fmt.Sprintf("flow%d", i), data)
			outs[i] = out
			actors = append(actors, send, recv)
		}
		clock.JoinNamed(clk, actors...)
		for i, out := range outs {
			if err := out.Err(); err != nil {
				t.Fatalf("flow %d under bottleneck sharing: %v", i, err)
			}
			sessions[i].Close()
		}
	}

	wave(0x00)
	built, leased := d.PoolStats()
	if built != flows || leased != 0 {
		t.Fatalf("after wave 1: built=%d leased=%d, want %d/0", built, leased, flows)
	}
	wave(0xA5) // must reuse, not rebuild
	if built, _ = d.PoolStats(); built != flows {
		t.Fatalf("wave 2 built %d deployments total, want %d (no reuse)", built, flows)
	}
	if err := d.ClosePools(); err != nil {
		t.Fatalf("ClosePools: %v", err)
	}
}

// Opening and closing a flow on a warm dumbbell leases everything it is
// made of — deployment, link and OOB envelopes, endpoints, paths, close
// hooks, routes — so the steady-state cost of NewFlow + Close is the
// Session value and nothing that scales with the deployment: 1
// allocation and 48 bytes per flow, where the per-flow construction
// this replaced measured 53 and 33 KB over the same 200 flows (two
// seeded generators, two 10 KB endpoints, routes resolved three times,
// a memory table copied per registration and growing with every flow).
// Pinned a small margin above what is measured.
func TestNewFlowChurnSteadyStateAllocs(t *testing.T) {
	clk := clock.NewVirtual()
	d := smokeDumbbell(t, clk, 1)
	churn := func() {
		s, err := d.NewFlow(d.Left[0], d.Right[0], flowCoreCfg(), flowRelCfg())
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	churn() // the pool's one cold build
	churn()
	const flows = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < flows; i++ {
		churn()
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / flows
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / flows
	t.Logf("NewFlow + Close: %.2f allocs, %.0f B per flow", allocs, bytes)
	if allocs > 3 || bytes > 256 {
		t.Fatalf("flow churn allocates %.2f objects / %.0f B per flow, want <= 3 / <= 256", allocs, bytes)
	}
	if built, leased := d.PoolStats(); built != 1 || leased != 0 || len(d.paths) != 0 {
		t.Fatalf("built=%d leased=%d paths=%d after churn, want 1/0/0", built, leased, len(d.paths))
	}
	if err := d.ClosePools(); err != nil {
		t.Fatal(err)
	}
}
