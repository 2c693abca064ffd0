package netem

import (
	"maps"
	"slices"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
)

// laneCountingClock counts the clock events scheduled through it, and
// among them the ones on the lanes in hop, the queues' delivery lanes.
type laneCountingClock struct {
	countingClock
	hop  map[*clock.Lane]bool
	hops int
}

func (c *laneCountingClock) RunAtLane(l *clock.Lane, at int64, fn func()) {
	if c.hop[l] {
		c.hops++
	}
	c.countingClock.RunAtLane(l, at, fn)
}

// One 64 KiB SR-NACK flow across the flow_churn dumbbell (leaf → agg →
// bottleneck → agg → leaf, 10G access and 5G bottleneck edges) costs
// one hop event per device packet: every queue after the first on
// either path has one feeder, so a packet crosses its three queues in
// one clock event, its delivery at the last. The counts are exact per
// seed. Un-fused, the same flow scheduled three hop events per packet
// (3 × 21 = 63 of 64 clock events here); the actors' own wakes are
// scheduled inside the clock and are not counted.
func TestDumbbellFlowHopEventsPerPacket(t *testing.T) {
	vc := clock.NewVirtual()
	clk := &laneCountingClock{countingClock: countingClock{Clock: vc}, hop: map[*clock.Lane]bool{}}
	access := EdgeConfig{DistanceKm: 50, BandwidthBps: 10e9, BufferBytes: 1 << 20}
	bottleneck := EdgeConfig{DistanceKm: 800, BandwidthBps: 5e9, BufferBytes: 1 << 20}
	d, err := Dumbbell(clk, 1, access, bottleneck, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range d.Edges() {
		clk.hop[&e.Fwd.lane], clk.hop[&e.Rev.lane] = true, true
	}
	coreCfg := core.Config{
		MTU: 4096, ChunkBytes: 64 << 10, MaxMsgBytes: 64 << 10,
		MsgIDBits: 10, PktOffsetBits: 18, UserImmBits: 4,
		Generations: 2, Channels: 4, CQDepth: 1 << 12,
	}
	s, err := d.NewFlow(d.Left[0], d.Right[0], coreCfg, reliability.Config{Alpha: 2, NACK: true})
	if err != nil {
		t.Fatal(err)
	}
	clk.n, clk.hops = 0, 0
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 13)
	}
	// The two per-side calls under vc: Drive would join the counting
	// clock, which is not a *clock.Virtual.
	tr, err := s.NewTransfer("sr", reliability.AdaptorConfig{}, len(data), 1)
	if err != nil {
		t.Fatal(err)
	}
	recv := make([]byte, len(data))
	mr := s.Pair.B.Ctx.RegMR(recv)
	var sendErr, recvErr error
	clock.Join(vc,
		func() { sendErr = tr.Write(data) },
		func() { recvErr = tr.Receive(mr, 0, len(data), 0) },
	)
	if sendErr != nil || recvErr != nil || string(recv) != string(data) {
		t.Fatalf("transfer: send %v, receive %v, intact %v", sendErr, recvErr, string(recv) == string(data))
	}
	s.Close()
	d.settle()
	// The device packets are the ones the last queue of either
	// direction handed on.
	pkts := d.Edges()[2].Fwd.Delivered.Load() + d.Edges()[1].Rev.Delivered.Load()
	const wantPkts, wantHops, wantEvents = 21, 21, 22
	if pkts != wantPkts || clk.hops != wantHops || clk.n != wantEvents {
		t.Fatalf("%d device packets, %d hop events, %d clock events; want %d, %d, %d",
			pkts, clk.hops, clk.n, wantPkts, wantHops, wantEvents)
	}
	if per := float64(clk.n) / float64(pkts); per > 1.6 {
		t.Fatalf("%.2f clock events per device packet, want <= 1.6", per)
	}
	if err := d.ClosePools(); err != nil {
		t.Fatal(err)
	}
}

// cutCase is one mid-flight change the differential test makes to a
// two-pair dumbbell while flow 0 streams across it: at instant at,
// change runs; second starts flow 1, which crosses the bottleneck too,
// at that instant instead. shows reports whether a run bears the
// change's mark, so the case cannot pass by changing nothing.
// accessMark, when set, is the access edges' ECN threshold.
type cutCase struct {
	name       string
	bottleneck EdgeConfig
	accessMark int
	at         time.Duration
	change     func(d *DumbbellTopo)
	second     bool
	shows      func(r cutRun) bool
}

// drops sums one drop counter (2 tail, 3 channel, 4 link down) over
// every queue in a sample.
func drops(sample []uint64, kind int) (n uint64) {
	for i := kind; i < len(sample); i += 7 {
		n += sample[i]
	}
	return n
}

// lastDrops reports whether the run's final sample counts a drop of
// kind.
func lastDrops(kind int) func(cutRun) bool {
	return func(r cutRun) bool { return drops(r.samples[len(r.samples)-1], kind) > 0 }
}

// marks reports whether the final sample counts ECN marks on flow 0's
// access queue and on the bottleneck it feeds.
func marks(r cutRun) bool {
	s := r.samples[len(r.samples)-1]
	return s[5] > 0 && s[2*7+5] > 0
}

// markInstants is an instantRecorder that also logs which packets
// arrive with the ECN bit set.
type markInstants struct {
	instantRecorder
	marked []uint32
}

func (r *markInstants) Deliver(pkt *nicsim.Packet) {
	if pkt.Marked {
		r.marked = append(r.marked, pkt.PSN)
	}
	r.instantRecorder.Deliver(pkt)
}

// cutRun is what a cutCase run leaves: each flow's arrivals and the
// ones among them that carry the ECN bit, and the counters of every
// queue, sampled through the topology's reads at instants between the
// run's events and once at the end.
type cutRun struct {
	order   [2][]uint32
	at      [2]map[uint32]int64
	marked  [2][]uint32
	samples [][]uint64
	// hops counts the hop events scheduled by the first sample, before
	// any change.
	hops int
}

// runCutCase runs c on a fresh dumbbell. fused sends through registered
// paths, whose single-feeder hops cut through; otherwise through Port
// chains of the same queues built by hand, which never do.
func runCutCase(t *testing.T, c cutCase, fused bool) cutRun {
	t.Helper()
	vc := clock.NewVirtual()
	clk := &laneCountingClock{countingClock: countingClock{Clock: vc}, hop: map[*clock.Lane]bool{}}
	access := EdgeConfig{DistanceKm: 50, BandwidthBps: 10e9, BufferBytes: 1 << 20, MarkThresholdBytes: c.accessMark}
	d, err := Dumbbell(clk, 2, access, c.bottleneck, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range d.Edges() {
		clk.hop[&e.Fwd.lane], clk.hop[&e.Rev.lane] = true, true
	}
	var run cutRun
	recs := [2]*markInstants{{instantRecorder: instantRecorder{clk: vc}}, {instantRecorder: instantRecorder{clk: vc}}}
	ingress := func(i int) nicsim.Deliverer {
		if fused {
			p, err := d.newPath(d.Left[i], d.Right[i], recs[i])
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		hops, err := d.route(d.Left[i], d.Right[i])
		if err != nil {
			t.Fatal(err)
		}
		return chain(hops, recs[i])
	}
	// Flow 0 sends bursts of 16 packets of 4000 wire bytes every 40 µs
	// for 2 ms, more than the 5G bottleneck drains; flow 1 the same,
	// offset by 7 µs, from the change on.
	t0 := vc.NowNanos()
	send := func(flow int, from time.Duration) {
		in := ingress(flow)
		for k := 0; k < 50; k++ {
			vc.At(t0+int64(from+time.Duration(k)*40*time.Microsecond), func() {
				for j := 0; j < 16; j++ {
					in.Deliver(pkt(uint32(flow<<16|k*16+j), 4000-nicsim.HeaderBytes))
				}
			})
		}
	}
	send(0, 0)
	if c.second {
		vc.At(t0+int64(c.at), func() { send(1, c.at+7*time.Microsecond) })
	} else if c.change != nil {
		vc.At(t0+int64(c.at), func() { c.change(d) })
	}
	sample := func() {
		var s []uint64
		for _, e := range d.Edges() {
			for _, q := range []*Queue{e.Fwd, e.Rev} {
				q.settleRead()
				s = append(s, q.Enqueued.Load(), q.Delivered.Load(), q.TailDrops.Load(),
					q.ChannelDrops.Load(), q.LinkDownDrops.Load(), q.Marked.Load(), uint64(q.HighWatermark()))
			}
		}
		if run.samples = append(run.samples, s); len(run.samples) == 1 {
			run.hops = clk.hops
		}
	}
	for k := 1; k <= 40; k++ {
		vc.At(t0+int64(time.Duration(k)*250*time.Microsecond+3), sample)
	}
	clock.Join(vc, func() { vc.Sleep(50 * time.Millisecond) })
	sample()
	for i, r := range recs {
		run.order[i], run.at[i], run.marked[i] = r.order, r.at, r.marked
	}
	return run
}

// A path whose hops cut through delivers every packet at the instant,
// and leaves every queue counter as, the same queues chained by hand
// with Ports, which schedule one event per hop — through a flap, a
// distance change, a loss change and a second flow joining mid-flight,
// through tail drops at a 5G bottleneck fed by a 10G access hop, and
// through a loss change while both of those hops mark ECN.
func TestCutThroughMatchesPortChain(t *testing.T) {
	// The bottleneck marks ECN past a quarter of its buffer, so packets
	// admitted ahead carry marks when they are taken back.
	bottleneck := EdgeConfig{DistanceKm: 800, BandwidthBps: 5e9, BufferBytes: 1 << 20, MarkThresholdBytes: 256 << 10}
	small := bottleneck
	small.BufferBytes, small.MarkThresholdBytes = 64<<10, 16<<10
	// Deep enough that the access hop's backlog passes its threshold
	// while the bottleneck still has room past its own.
	deep := bottleneck
	deep.BufferBytes = 4 << 20
	for _, c := range []cutCase{
		{name: "flap", bottleneck: bottleneck, at: 1100 * time.Microsecond, change: func(d *DumbbellTopo) {
			d.Bottleneck.SetDown(true)
			d.Clock().At(d.Clock().NowNanos()+int64(300*time.Microsecond), func() { d.Bottleneck.SetDown(false) })
		}, shows: lastDrops(4)},
		{name: "distance", bottleneck: bottleneck, at: 1300 * time.Microsecond, change: func(d *DumbbellTopo) {
			if err := d.Bottleneck.SetDistance(400); err != nil {
				t.Error(err)
			}
			if err := d.Edges()[1].SetDistance(90); err != nil {
				t.Error(err)
			}
		}, shows: func(r cutRun) bool { return !slices.IsSorted(r.order[0]) }},
		{name: "loss", bottleneck: bottleneck, at: 900 * time.Microsecond, change: func(d *DumbbellTopo) {
			if err := d.Bottleneck.SetLoss(LossSpec{P: 0.05, BurstLen: 3}); err != nil {
				t.Error(err)
			}
		}, shows: lastDrops(3)},
		{name: "second flow", bottleneck: bottleneck, at: 700 * time.Microsecond, second: true,
			shows: func(r cutRun) bool { return len(r.order[1]) > 0 }},
		{name: "tail drops", bottleneck: small, shows: lastDrops(2)},
		{name: "marks on two hops", bottleneck: deep, accessMark: 512 << 10, at: 1600 * time.Microsecond, change: func(d *DumbbellTopo) {
			if err := d.Bottleneck.SetLoss(LossSpec{P: 0.05, BurstLen: 3}); err != nil {
				t.Error(err)
			}
		}, shows: marks},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, got := runCutCase(t, c, false), runCutCase(t, c, true)
			for i := range want.order {
				if !slices.Equal(got.order[i], want.order[i]) || !maps.Equal(got.at[i], want.at[i]) {
					t.Fatalf("flow %d: %d arrivals cut through, %d chained by hand, or at other instants",
						i, len(got.order[i]), len(want.order[i]))
				}
				if !slices.Equal(got.marked[i], want.marked[i]) {
					t.Fatalf("flow %d: %d arrivals marked cut through, %d chained by hand, or other ones",
						i, len(got.marked[i]), len(want.marked[i]))
				}
			}
			for k := range want.samples {
				if !slices.Equal(got.samples[k], want.samples[k]) {
					t.Fatalf("queue counters of sample %d: cut through %v, chained %v", k, got.samples[k], want.samples[k])
				}
			}
			if got.hops >= want.hops {
				t.Fatalf("%d hop events by the first sample cut through, %d chained: nothing cut through", got.hops, want.hops)
			}
			if !c.shows(got) {
				t.Fatalf("the run shows no trace of the %s", c.name)
			}
		})
	}
}

// A queue's feeder follows the live paths through it: the one queue
// before it on all of them, none while two come from different queues,
// the remaining one when the other leaves, and the last one while no
// path is live.
func TestFeederFollowsLivePaths(t *testing.T) {
	edge := EdgeConfig{DistanceKm: 50, BandwidthBps: 10e9, BufferBytes: 1 << 20}
	d, err := Dumbbell(clock.NewVirtual(), 2, edge, edge, 1)
	if err != nil {
		t.Fatal(err)
	}
	bq := d.Bottleneck.Fwd
	in := [2]*Queue{d.Edges()[1].Fwd, d.Edges()[3].Fwd}
	open := func(i int) *path {
		p, err := d.newPath(d.Left[i], d.Right[i], &instantRecorder{clk: d.Clock()})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	check := func(step string, want *Queue) {
		t.Helper()
		if bq.feeder != want {
			t.Fatalf("%s: the bottleneck's feeder is %p, want %p", step, bq.feeder, want)
		}
	}
	p0 := open(0)
	check("flow 0 open", in[0])
	p1 := open(1)
	check("flows 0 and 1 open", nil)
	p0b := open(0)
	check("flows 0, 0 and 1 open", nil)
	d.removePaths(p1)
	check("flow 1 closed", in[0])
	d.removePaths(p0, p0b)
	check("every flow closed", in[0])
	p1 = open(1)
	check("flow 1 reopened", in[1])
	p0 = open(0)
	d.removePaths(p1)
	check("flow 0 reopened, flow 1 closed", in[0])
	d.removePaths(p0)
}
