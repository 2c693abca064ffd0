package netem

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/nicsim"
)

// diamond builds S–M1–D (primary, added first so BFS prefers it) and
// S–M2–D (backup): the minimal shape where a flap has somewhere to
// reroute to.
func diamond(t *testing.T, clk clock.Clock, cfg EdgeConfig, seed int64) (topo *Topology, s, d int, primary [2]*Edge) {
	t.Helper()
	topo = New("diamond", clk, seed)
	s = topo.AddNode("S")
	m1 := topo.AddNode("M1")
	m2 := topo.AddNode("M2")
	d = topo.AddNode("D")
	var err error
	if primary[0], err = topo.AddEdge(s, m1, cfg); err != nil {
		t.Fatal(err)
	}
	if primary[1], err = topo.AddEdge(m1, d, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err = topo.AddEdge(s, m2, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err = topo.AddEdge(m2, d, cfg); err != nil {
		t.Fatal(err)
	}
	return topo, s, d, primary
}

func TestScheduleValidateFailFast(t *testing.T) {
	topo, _, _, _ := diamond(t, clock.NewVirtual(), testEdge(), 1)
	h := 100 * time.Millisecond
	ok := Schedule{
		Horizon: h,
		Events:  []Event{{At: 10 * time.Millisecond, Edge: 0, Loss: LossSpec{P: 0.01}}},
		Flaps:   []Flap{{Edge: 1, Down: 20 * time.Millisecond, Up: 40 * time.Millisecond}},
		Drifts:  []Drift{{Edge: 2, Start: 0, Duration: h / 2, RateKmPerSec: 50, Step: 10 * time.Millisecond}},
	}
	if err := ok.validate(topo); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := []struct {
		name string
		s    Schedule
	}{
		{"zero horizon", Schedule{}},
		{"event edge out of range", Schedule{Horizon: h, Events: []Event{{Edge: 99}}}},
		{"event past horizon", Schedule{Horizon: h, Events: []Event{{At: 2 * h, Edge: 0}}}},
		{"event bad loss", Schedule{Horizon: h, Events: []Event{{Edge: 0, Loss: LossSpec{P: 1.5}}}}},
		{"event NaN loss", Schedule{Horizon: h, Events: []Event{{Edge: 0, Loss: LossSpec{P: math.NaN()}}}}},
		{"flap inverted window", Schedule{Horizon: h, Flaps: []Flap{{Edge: 0, Down: 20 * time.Millisecond, Up: 10 * time.Millisecond}}}},
		{"flap negative down", Schedule{Horizon: h, Flaps: []Flap{{Edge: 0, Down: -time.Millisecond, Up: time.Millisecond}}}},
		{"flap past horizon", Schedule{Horizon: h, Flaps: []Flap{{Edge: 0, Down: 0, Up: 2 * h}}}},
		{"drift negative rate", Schedule{Horizon: h, Drifts: []Drift{{Edge: 0, Duration: h, RateKmPerSec: -5, Step: h / 4}}}},
		{"drift NaN rate", Schedule{Horizon: h, Drifts: []Drift{{Edge: 0, Duration: h, RateKmPerSec: math.NaN(), Step: h / 4}}}},
		{"drift window past horizon", Schedule{Horizon: h, Drifts: []Drift{{Edge: 0, Start: h / 2, Duration: h, RateKmPerSec: 5, Step: h / 4}}}},
		{"drift step over duration", Schedule{Horizon: h, Drifts: []Drift{{Edge: 0, Duration: h / 4, RateKmPerSec: 5, Step: h}}}},
		{"drift zero step", Schedule{Horizon: h, Drifts: []Drift{{Edge: 0, Duration: h / 4, RateKmPerSec: 5}}}},
	}
	for _, tc := range bad {
		if err := tc.s.validate(topo); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if _, err := tc.s.Apply(topo); err == nil {
			t.Errorf("%s: Apply armed an invalid schedule", tc.name)
		}
	}
}

func TestScheduleEventsFireAtVirtualTimes(t *testing.T) {
	clk := clock.NewVirtual()
	topo, _, _, _ := diamond(t, clk, testEdge(), 1)
	e := topo.Edges()[0]
	sched := Schedule{
		Horizon: 100 * time.Millisecond,
		Events: []Event{
			{At: 10 * time.Millisecond, Edge: 0, Loss: LossSpec{P: 0.25, BurstLen: 4}},
			{At: 20 * time.Millisecond, Edge: 0},
		},
	}
	ap, err := sched.Apply(topo)
	if err != nil {
		t.Fatal(err)
	}
	clock.Join(clk, func() {
		clk.Sleep(5 * time.Millisecond)
		if got := e.Cfg.Loss; got != (LossSpec{}) || e.Fwd.cfg.Loss != nil {
			t.Errorf("loss %+v at t=5ms, want still lossless", got)
		}
		clk.Sleep(10 * time.Millisecond)
		if got := e.Cfg.Loss; got != (LossSpec{P: 0.25, BurstLen: 4}) || e.Fwd.cfg.Loss == nil || e.Rev.cfg.Loss == nil {
			t.Errorf("loss %+v at t=15ms, want the burst spec on both directions", got)
		}
		clk.Sleep(10 * time.Millisecond)
		if got := e.Cfg.Loss; got != (LossSpec{}) || e.Fwd.cfg.Loss != nil {
			t.Errorf("loss %+v at t=25ms, want lossless again", got)
		}
	})
	if fired, errs := ap.Fired.Load(), ap.Errors.Load(); fired != 2 || errs != 0 {
		t.Fatalf("applied fired=%d errors=%d, want 2/0", fired, errs)
	}
}

func TestScheduleDriftWalksDistance(t *testing.T) {
	clk := clock.NewVirtual()
	topo, _, _, _ := diamond(t, clk, testEdge(), 1)
	e := topo.Edges()[0]
	// 100 km/s for 50ms in 10ms steps: 5 steps of +1 km each.
	sched := Schedule{
		Horizon: 100 * time.Millisecond,
		Drifts:  []Drift{{Edge: 0, Start: 0, Duration: 50 * time.Millisecond, RateKmPerSec: 100, Step: 10 * time.Millisecond}},
	}
	ap, err := sched.Apply(topo)
	if err != nil {
		t.Fatal(err)
	}
	clock.Join(clk, func() {
		clk.Sleep(25 * time.Millisecond)
		if got := e.distanceKm(); got != 302 {
			t.Errorf("distance %g km mid-drift, want 302", got)
		}
		clk.Sleep(75 * time.Millisecond)
	})
	if got := e.distanceKm(); got != 305 {
		t.Fatalf("distance %g km after drift, want 305", got)
	}
	if fired := ap.Fired.Load(); fired != 5 {
		t.Fatalf("drift fired %d steps, want 5", fired)
	}
}

func TestQueueECNMarking(t *testing.T) {
	clk := clock.NewVirtual()
	q, err := NewQueue(QueueConfig{
		BandwidthBps:       8e6, // 1000 wire bytes per ms
		BufferBytes:        10_000,
		MarkThresholdBytes: 3000,
		Clock:              clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{clk: clk}
	port := q.Port(rec)
	var marked []uint32
	sink := markRecorder{rec: rec, marked: &marked}
	port = q.Port(sink)
	clock.Join(clk, func() {
		for i := 0; i < 6; i++ {
			port.Send(pkt(uint32(i), 1000-nicsim.HeaderBytes))
		}
		clk.Sleep(100 * time.Millisecond)
	})
	// Occupancy after each arrival: 1000, 2000, 3000, ... — packets 2+
	// cross the 3000-byte threshold.
	if got := q.Marked.Load(); got != 4 {
		t.Fatalf("Marked = %d, want 4", got)
	}
	if len(marked) != 4 || marked[0] != 2 {
		t.Fatalf("marked PSNs %v, want [2 3 4 5]", marked)
	}
	if got := q.Delivered.Load(); got != 6 {
		t.Fatalf("marking must not drop: delivered %d/6", got)
	}
}

// markRecorder wraps recorder, logging which PSNs arrive marked.
type markRecorder struct {
	rec    *recorder
	marked *[]uint32
}

func (m markRecorder) Deliver(p *nicsim.Packet) {
	if p.Marked {
		*m.marked = append(*m.marked, p.PSN)
	}
	m.rec.Deliver(p)
}

func TestEdgeFlapFailsClosed(t *testing.T) {
	clk := clock.NewVirtual()
	topo, s, d, primary := diamond(t, clk, testEdge(), 1)
	// With the primary's first edge down, routes avoid it.
	primary[0].SetDown(true)
	hops, err := topo.route(s, d)
	if err != nil {
		t.Fatalf("no route around flapped edge: %v", err)
	}
	for _, h := range hops {
		if h.Edge == primary[0] {
			t.Fatal("route crosses a downed edge")
		}
	}
	// The downed queue refuses arrivals and discards buffered packets.
	q := primary[0].Fwd
	rec := &recorder{clk: clk}
	port := q.Port(rec)
	clock.Join(clk, func() {
		port.Send(pkt(0, 512))
		clk.Sleep(50 * time.Millisecond)
	})
	if got := q.LinkDownDrops.Load(); got != 1 {
		t.Fatalf("LinkDownDrops = %d, want 1", got)
	}
	if len(rec.psn) != 0 {
		t.Fatal("downed link delivered a packet")
	}
	// Buffered-then-flapped: enqueue while up, flap before departure.
	primary[0].SetDown(false)
	clock.Join(clk, func() {
		port.Send(pkt(1, 1000-nicsim.HeaderBytes)) // 1ms serialization at 8e6
		primary[0].SetDown(true)
		clk.Sleep(50 * time.Millisecond)
	})
	if got := q.LinkDownDrops.Load(); got != 2 {
		t.Fatalf("buffered packet not discarded at departure: LinkDownDrops = %d, want 2", got)
	}
	primary[0].SetDown(false)
	if _, err := topo.route(s, d); err != nil {
		t.Fatalf("restored edge still unroutable: %v", err)
	}
}

func TestPathRerouteAndBlackhole(t *testing.T) {
	clk := clock.NewVirtual()
	topo, s, d, primary := diamond(t, clk, testEdge(), 1)
	rec := &recorder{clk: clk}
	p, err := topo.newPath(s, d, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.hops) != 2 || p.hops[0].Edge != primary[0] {
		t.Fatalf("fresh path not on primary: %v", p.hops)
	}
	clock.Join(clk, func() {
		p.Send(pkt(0, 512))
		clk.Sleep(20 * time.Millisecond)

		primary[0].SetDown(true)
		topo.ReroutePaths()
		p.Send(pkt(1, 512))
		clk.Sleep(20 * time.Millisecond)

		// Backup down too: the path blackholes rather than panicking.
		be := topo.Edges()[2]
		be.SetDown(true)
		topo.ReroutePaths()
		p.Send(pkt(2, 512))
		clk.Sleep(20 * time.Millisecond)

		// Primary restored: service resumes.
		primary[0].SetDown(false)
		topo.ReroutePaths()
		p.Send(pkt(3, 512))
		clk.Sleep(20 * time.Millisecond)
	})
	if got := []uint32{0, 1, 3}; len(rec.psn) != 3 || rec.psn[0] != got[0] || rec.psn[1] != got[1] || rec.psn[2] != got[2] {
		t.Fatalf("delivered %v, want [0 1 3]", rec.psn)
	}
	if got := p.Blackholed.Load(); got != 1 {
		t.Fatalf("Blackholed = %d, want 1", got)
	}
	if got := p.Reroutes.Load(); got != 3 {
		t.Fatalf("Reroutes = %d, want 3 (backup, blackhole, restore)", got)
	}
	if topo.PathReroutes() != 3 {
		t.Fatalf("PathReroutes aggregate %d, want 3", topo.PathReroutes())
	}
	topo.removePaths(p)
	if len(topo.paths) != 0 {
		t.Fatal("path not unregistered")
	}
}

// TestFlapRerouteInFlightTransfer pins the tentpole robustness story:
// a reliable transfer is mid-flight when its primary path flaps; the
// scheduled reroute steers the flow over the backup, stale packets are
// absorbed, and the transfer completes without a global timeout.
func TestFlapRerouteInFlightTransfer(t *testing.T) {
	clk := clock.NewVirtual()
	cfg := EdgeConfig{DistanceKm: 300, BandwidthBps: 1e9, BufferBytes: 1 << 20}
	topo, s, d, _ := diamond(t, clk, cfg, 7)
	sched := Schedule{
		Horizon: time.Second,
		Flaps:   []Flap{{Edge: 0, Down: 3 * time.Millisecond, Up: 500 * time.Millisecond}},
	}
	ap, err := sched.Apply(topo)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := topo.NewFlow(s, d, flowCoreCfg(), flowRelCfg())
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20 // ~8.4ms serialization per hop at 1 Gbps
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*31 + i>>9)
	}
	driveFlow(t, flow, "sr", data)
	if got := ap.Flapped.Load(); got != 1 {
		t.Fatalf("Flapped = %d, want 1", got)
	}
	if topo.PathReroutes() == 0 {
		t.Fatal("flap triggered no path reroute")
	}
	if topo.LinkDownDrops() == 0 {
		t.Fatal("no in-flight packets were caught by the flap — flap fired after the transfer?")
	}
	flow.Close()
	if len(topo.paths) != 0 {
		t.Fatal("closed flow leaked paths")
	}
	if err := topo.ClosePools(); err != nil {
		t.Fatal(err)
	}
}

// TestFlapDuringECDecode drives the erasure-coded path through a
// mid-transfer flap: the primary arm dies while data and parity
// shards are in flight, the reroute steers the remaining shards (and
// the NACK-driven repairs) over the backup, and the receiver's decode
// still reconstructs the payload bit-exactly.
func TestFlapDuringECDecode(t *testing.T) {
	clk := clock.NewVirtual()
	cfg := EdgeConfig{DistanceKm: 300, BandwidthBps: 1e9, BufferBytes: 1 << 20}
	topo, s, d, _ := diamond(t, clk, cfg, 11)
	sched := Schedule{
		Horizon: time.Second,
		Flaps:   []Flap{{Edge: 0, Down: 3 * time.Millisecond, Up: 500 * time.Millisecond}},
	}
	ap, err := sched.Apply(topo)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := topo.NewFlow(s, d, flowCoreCfg(), flowRelCfg())
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*37 + i>>10)
	}
	driveFlow(t, flow, "ec", data)
	if got := ap.Flapped.Load(); got != 1 {
		t.Fatalf("Flapped = %d, want 1", got)
	}
	if topo.LinkDownDrops() == 0 {
		t.Fatal("no in-flight shards were caught by the flap — flap fired after the transfer?")
	}
	flow.Close()
	if len(topo.paths) != 0 {
		t.Fatal("closed flow leaked paths")
	}
	if err := topo.ClosePools(); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleFlapTransfer flaps the primary down, back up, and down
// again one millisecond later — the second failure lands right as the
// restored route is re-adopted, so the flow must survive two reroutes
// (primary→backup→primary→backup) with data in flight through each.
func TestDoubleFlapTransfer(t *testing.T) {
	clk := clock.NewVirtual()
	cfg := EdgeConfig{DistanceKm: 300, BandwidthBps: 1e9, BufferBytes: 1 << 20}
	topo, s, d, _ := diamond(t, clk, cfg, 13)
	sched := Schedule{
		Horizon: time.Second,
		Flaps: []Flap{
			{Edge: 0, Down: 3 * time.Millisecond, Up: 8 * time.Millisecond},
			{Edge: 0, Down: 9 * time.Millisecond, Up: 500 * time.Millisecond},
		},
	}
	ap, err := sched.Apply(topo)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := topo.NewFlow(s, d, flowCoreCfg(), flowRelCfg())
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*41 + i>>8)
	}
	driveFlow(t, flow, "sr", data)
	if got := ap.Flapped.Load(); got != 2 {
		t.Fatalf("Flapped = %d, want 2", got)
	}
	if got := topo.PathReroutes(); got < 3 {
		t.Fatalf("PathReroutes = %d, want >= 3 (down, up, down again)", got)
	}
	flow.Close()
	if len(topo.paths) != 0 {
		t.Fatal("closed flow leaked paths")
	}
	if err := topo.ClosePools(); err != nil {
		t.Fatal(err)
	}
}

// instantRecorder is a terminal Deliverer logging each packet's
// arrival instant on the clock's scheduling timeline, by PSN.
type instantRecorder struct {
	clk   clock.Clock
	mu    sync.Mutex
	at    map[uint32]int64
	order []uint32
}

func (r *instantRecorder) Deliver(pkt *nicsim.Packet) {
	r.mu.Lock()
	if r.at == nil {
		r.at = map[uint32]int64{}
	}
	r.at[pkt.PSN] = r.clk.NowNanos()
	r.order = append(r.order, pkt.PSN)
	r.mu.Unlock()
}

// A distance change lands between the departures of packets buffered
// behind each other: every packet arrives at its finish instant plus
// the propagation delay in force at that instant. The first change
// shortens the delay, so packets still buffered overtake ones already
// on the wire; the second lengthens it again.
func TestSetDistanceStraddlesBufferedPackets(t *testing.T) {
	clk := clock.NewVirtual()
	topo := New("line", clk, 1)
	a, b := topo.AddNode("A"), topo.AddNode("B")
	// 1000 wire bytes per millisecond; 900 km is 3 ms of propagation.
	e, err := topo.AddEdge(a, b, EdgeConfig{DistanceKm: 900, BandwidthBps: 8e6})
	if err != nil {
		t.Fatal(err)
	}
	rec := &instantRecorder{clk: clk}
	port := e.Fwd.Port(rec)
	const n = 8
	type change struct {
		at time.Duration
		km float64
	}
	changes := []change{{3500 * time.Microsecond, 150}, {5500 * time.Microsecond, 600}}
	var fins [n]int64
	start := clk.NowNanos()
	clock.Join(clk, func() {
		// The finish instants the queue forms: its line rate's
		// serialization time, truncated to whole nanoseconds, added
		// packet by packet to the instant the line went busy.
		size, bps := 1000.0, 8e6
		tx := int64(time.Duration(size * 8 / bps * float64(time.Second)))
		fin := clk.NowNanos()
		for i := range fins {
			port.Send(pkt(uint32(i), 1000-nicsim.HeaderBytes))
			fin += tx
			fins[i] = fin
		}
		for _, c := range changes {
			clk.Sleep(c.at - clk.Elapsed())
			if err := e.SetDistance(c.km); err != nil {
				t.Error(err)
			}
		}
		clk.Sleep(20 * time.Millisecond)
	})
	if len(rec.order) != n {
		t.Fatalf("delivered %d/%d packets", len(rec.order), n)
	}
	for i, fin := range fins {
		km := 900.0
		for _, c := range changes {
			if fin > start+int64(c.at) {
				km = c.km
			}
		}
		want := fin + int64(EdgeConfig{DistanceKm: km}.delay())
		if got := rec.at[uint32(i)]; got != want {
			t.Errorf("packet %d (finish %d ns) arrived at %d ns, want %d ns (%g km)", i, fin-start, got-start, want-start, km)
		}
	}
	if want := []uint32{0, 3, 1, 4, 2, 5, 6, 7}; !slices.Equal(rec.order, want) {
		t.Errorf("arrival order %v, want %v", rec.order, want)
	}
}
