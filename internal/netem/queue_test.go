package netem

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/nicsim"
)

// recorder is a terminal Deliverer logging arrival order and times.
type recorder struct {
	clk *clock.Virtual
	mu  sync.Mutex
	at  []time.Duration
	psn []uint32
}

func (r *recorder) Deliver(pkt *nicsim.Packet) {
	r.mu.Lock()
	r.at = append(r.at, r.clk.Elapsed())
	r.psn = append(r.psn, pkt.PSN)
	r.mu.Unlock()
}

func pkt(psn uint32, payload int) *nicsim.Packet {
	return &nicsim.Packet{Opcode: nicsim.OpWriteImm, PSN: psn, Payload: make([]byte, payload)}
}

// A queue on the virtual clock serializes exactly: delivery i lands at
// queueing + own transmission + propagation.
func TestQueueSerializationTiming(t *testing.T) {
	clk := clock.NewVirtual()
	q, err := NewQueue(QueueConfig{
		// 1000 wire bytes (payload + 64B header) per millisecond.
		BandwidthBps: 8e6,
		Latency:      10 * time.Millisecond,
		Clock:        clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{clk: clk}
	port := q.Port(rec)
	clock.Join(clk, func() {
		for i := 0; i < 3; i++ {
			port.Send(pkt(uint32(i), 1000-nicsim.HeaderBytes))
		}
		clk.Sleep(100 * time.Millisecond)
	})
	want := []time.Duration{11 * time.Millisecond, 12 * time.Millisecond, 13 * time.Millisecond}
	if len(rec.at) != 3 {
		t.Fatalf("delivered %d/3 packets", len(rec.at))
	}
	for i, at := range rec.at {
		if at != want[i] {
			t.Fatalf("packet %d delivered at %v, want %v", i, at, want[i])
		}
		if rec.psn[i] != uint32(i) {
			t.Fatalf("packet order broken: slot %d has PSN %d", i, rec.psn[i])
		}
	}
	if got := q.Delivered.Load(); got != 3 {
		t.Fatalf("Delivered = %d, want 3", got)
	}
}

// A full buffer tail-drops arrivals; the transmitting head still
// occupies its bytes (store-and-forward).
func TestQueueTailDrop(t *testing.T) {
	clk := clock.NewVirtual()
	q, err := NewQueue(QueueConfig{
		BandwidthBps: 8e6,
		BufferBytes:  2500, // two 1000-wire-byte packets
		Clock:        clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	var droppedPSN []uint32
	q.SetDropHook(func(p *nicsim.Packet, reason DropReason, _ nicsim.Deliverer) {
		if reason != tailDrop {
			t.Errorf("unexpected drop reason %v", reason)
		}
		droppedPSN = append(droppedPSN, p.PSN)
	})
	rec := &recorder{clk: clk}
	port := q.Port(rec)
	clock.Join(clk, func() {
		for i := 0; i < 5; i++ {
			port.Send(pkt(uint32(i), 1000-nicsim.HeaderBytes))
		}
		clk.Sleep(time.Second)
	})
	if got := q.TailDrops.Load(); got != 3 {
		t.Fatalf("TailDrops = %d, want 3", got)
	}
	if len(rec.psn) != 2 || rec.psn[0] != 0 || rec.psn[1] != 1 {
		t.Fatalf("delivered %v, want [0 1]", rec.psn)
	}
	if len(droppedPSN) != 3 || droppedPSN[0] != 2 {
		t.Fatalf("drop hook saw %v, want [2 3 4]", droppedPSN)
	}
	if hw := q.HighWatermark(); hw != 2000 {
		t.Fatalf("high watermark %d, want 2000", hw)
	}
}

// Two flows share one queue: FIFO across ports, per-flow delivery.
func TestQueueSharedBottleneck(t *testing.T) {
	clk := clock.NewVirtual()
	q, err := NewQueue(QueueConfig{BandwidthBps: 8e6, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	recA := &recorder{clk: clk}
	recB := &recorder{clk: clk}
	portA, portB := q.Port(recA), q.Port(recB)
	clock.Join(clk, func() {
		for i := 0; i < 4; i++ {
			portA.Send(pkt(uint32(100+i), 1000-nicsim.HeaderBytes))
			portB.Send(pkt(uint32(200+i), 1000-nicsim.HeaderBytes))
		}
		clk.Sleep(time.Second)
	})
	if len(recA.psn) != 4 || len(recB.psn) != 4 {
		t.Fatalf("flow deliveries %d/%d, want 4/4", len(recA.psn), len(recB.psn))
	}
	// Interleaved arrivals serialize alternately: A's packet i clears
	// the shared line at slot 2i, B's at slot 2i+1.
	for i := 0; i < 4; i++ {
		wantA := time.Duration(2*i+1) * time.Millisecond
		wantB := time.Duration(2*i+2) * time.Millisecond
		if recA.at[i] != wantA || recB.at[i] != wantB {
			t.Fatalf("slot %d: A at %v (want %v), B at %v (want %v)",
				i, recA.at[i], wantA, recB.at[i], wantB)
		}
	}
}

// Port chains compose multi-hop paths: two queues in sequence add
// their transmission and propagation delays store-and-forward.
func TestQueueChaining(t *testing.T) {
	clk := clock.NewVirtual()
	mk := func(lat time.Duration) *Queue {
		q, err := NewQueue(QueueConfig{BandwidthBps: 8e6, Latency: lat, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	q1, q2 := mk(5*time.Millisecond), mk(7*time.Millisecond)
	rec := &recorder{clk: clk}
	ingress := q1.Port(q2.Port(rec))
	clock.Join(clk, func() {
		ingress.Send(pkt(1, 1000-nicsim.HeaderBytes))
		clk.Sleep(time.Second)
	})
	// tx1 (1ms) + lat1 (5ms) + tx2 (1ms) + lat2 (7ms) = 14ms.
	if len(rec.at) != 1 || rec.at[0] != 14*time.Millisecond {
		t.Fatalf("chained delivery at %v, want 14ms", rec.at)
	}
}

func TestQueueConfigValidation(t *testing.T) {
	for _, cfg := range []QueueConfig{
		{BandwidthBps: 0},
		{BandwidthBps: -1e9},
		{BandwidthBps: 1e9, BufferBytes: -1},
		{BandwidthBps: 1e9, Latency: -time.Second},
	} {
		if _, err := NewQueue(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

func TestLossSpecValidation(t *testing.T) {
	good := []LossSpec{{}, {P: 0.1}, {P: 1e-3, BurstLen: 8}, {P: 0.5, BurstLen: 1}}
	for _, s := range good {
		if err := s.validate(); err != nil {
			t.Fatalf("spec %+v rejected: %v", s, err)
		}
		if _, err := s.build(); err != nil {
			t.Fatalf("spec %+v build failed: %v", s, err)
		}
	}
	bad := []LossSpec{
		{P: -0.1},
		{P: 1},
		{P: 1.5, BurstLen: 8},
		{P: 0.1, BurstLen: -2},
		{P: 0, BurstLen: 8}, // burst channel needs a positive rate
	}
	for _, s := range bad {
		if err := s.validate(); err == nil {
			t.Fatalf("spec %+v accepted", s)
		}
		if _, err := s.build(); err == nil {
			t.Fatalf("spec %+v built", s)
		}
	}
	// Fresh stateful instance per Build.
	s := LossSpec{P: 0.5, BurstLen: 4}
	a, _ := s.build()
	b, _ := s.build()
	if a == b {
		t.Fatal("Build returned a shared loss process")
	}
}

// chunkStats accumulates the chunk-level view of a drop-hook stream:
// the netem analogue of wan.MeasureChunkLoss, with the chunk index
// carried in the packet immediate.
type chunkStats struct {
	mu    sync.Mutex
	drops map[uint32]int
}

func (c *chunkStats) hook(p *nicsim.Packet, _ DropReason, _ nicsim.Deliverer) {
	c.mu.Lock()
	if c.drops == nil {
		c.drops = map[uint32]int{}
	}
	c.drops[p.Imm]++
	c.mu.Unlock()
}

func (c *chunkStats) lostChunks() int { return len(c.drops) }
func (c *chunkStats) totalDrops() int {
	n := 0
	for _, d := range c.drops {
		n += d
	}
	return n
}
func (c *chunkStats) meanDropsPerLostChunk() float64 {
	if len(c.drops) == 0 {
		return 0
	}
	return float64(c.totalDrops()) / float64(len(c.drops))
}

// A Gilbert–Elliott wire loss process on the packet path reproduces
// wan.MeasureChunkLoss's §3.1.1 burst masking at the chunk level:
// equal average packet loss, far fewer lost chunks than the i.i.d.
// closed form, several drops absorbed per lost chunk.
func TestQueueBurstLossChunkMasking(t *testing.T) {
	const (
		chunks = 2000
		ppc    = 16
		pAvg   = 0.01
	)
	run := func(spec LossSpec) (*chunkStats, *Queue) {
		clk := clock.NewVirtual()
		loss, err := spec.build()
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewQueue(QueueConfig{BandwidthBps: 512e6, Loss: loss, Seed: 7, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		st := &chunkStats{}
		q.SetDropHook(st.hook)
		sink := &recorder{clk: clk}
		port := q.Port(sink)
		clock.Join(clk, func() {
			for c := 0; c < chunks; c++ {
				for i := 0; i < ppc; i++ {
					p := pkt(uint32(c*ppc+i), 0)
					p.Imm = uint32(c)
					port.Send(p)
				}
			}
			clk.Sleep(10 * time.Second)
		})
		return st, q
	}

	ge, geq := run(LossSpec{P: pAvg, BurstLen: 8})
	iid, _ := run(LossSpec{P: pAvg})

	total := float64(chunks * ppc)
	geRate := float64(ge.totalDrops()) / total
	if geRate < pAvg/2 || geRate > pAvg*2 {
		t.Fatalf("GE packet loss %g, want ≈%g", geRate, pAvg)
	}
	if delivered := geq.Delivered.Load(); delivered != uint64(total)-uint64(ge.totalDrops()) {
		t.Fatalf("delivered %d + dropped %d != offered %g", delivered, ge.totalDrops(), total)
	}
	iidChunkRate := float64(iid.lostChunks()) / chunks
	geChunkRate := float64(ge.lostChunks()) / chunks
	if geChunkRate > iidChunkRate*0.65 {
		t.Fatalf("burst masking absent: GE chunk loss %g vs iid %g", geChunkRate, iidChunkRate)
	}
	if m := ge.meanDropsPerLostChunk(); m < 2 {
		t.Fatalf("GE lost chunks absorb only %.2f drops, want >=2", m)
	}
	if m := iid.meanDropsPerLostChunk(); m > 1.2 {
		t.Fatalf("iid lost chunks absorb %.2f drops, want ≈1", m)
	}
}

// Tail drops on a finite buffer are bursty by construction — while
// the buffer is full every arrival dies — so chunk-burst arrivals
// into an oversubscribed queue show the same masking without any
// statistical loss model.
func TestQueueTailDropChunkMasking(t *testing.T) {
	const (
		chunks = 400
		ppc    = 16
	)
	clk := clock.NewVirtual()
	// 64-wire-byte packets at 64 MB/s: 1 µs each; buffer holds 24.
	q, err := NewQueue(QueueConfig{BandwidthBps: 512e6, BufferBytes: 24 * 64, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	st := &chunkStats{}
	q.SetDropHook(st.hook)
	sink := &recorder{clk: clk}
	port := q.Port(sink)
	perPkt := time.Microsecond
	clock.Join(clk, func() {
		for c := 0; c < chunks; c++ {
			// Whole chunk arrives back-to-back, then a gap shorter than
			// its service time: 4/3 oversubscription.
			for i := 0; i < ppc; i++ {
				p := pkt(uint32(c*ppc+i), 0)
				p.Imm = uint32(c)
				port.Send(p)
			}
			clk.Sleep(perPkt * ppc * 3 / 4)
		}
		clk.Sleep(time.Second)
	})
	if q.TailDrops.Load() == 0 {
		t.Fatal("oversubscribed queue never tail-dropped")
	}
	if m := st.meanDropsPerLostChunk(); m < 2 {
		t.Fatalf("tail-drop bursts absorb only %.2f drops per lost chunk, want >=2", m)
	}
	if lost := st.lostChunks(); lost == chunks {
		t.Fatalf("every chunk lost — buffer too small to show masking")
	}
}

// digestSink is a terminal Deliverer folding each arrival's PSN,
// virtual arrival time and ECN mark into an FNV-1a digest.
type digestSink struct {
	clk *clock.Virtual
	h   hash.Hash64
	n   int
}

func (d *digestSink) Deliver(p *nicsim.Packet) {
	var b [13]byte
	binary.LittleEndian.PutUint32(b[0:], p.PSN)
	binary.LittleEndian.PutUint64(b[4:], uint64(d.clk.Elapsed()))
	if p.Marked {
		b[12] = 1
	}
	d.h.Write(b[:])
	d.n++
}

// One flow and a Poisson TrafficGen share a queue with every loss
// class live at once: a buffer small enough to tail-drop, an ECN
// threshold, 0.5 % i.i.d. wire loss and a flap mid-run. The flow's
// deliveries (PSN, arrival ns, Marked) and the queue's counters are
// pinned: a change to how background traffic crosses the queue must
// leave every literal untouched.
func TestSharedQueueGolden(t *testing.T) {
	clk := clock.NewVirtual()
	loss, err := LossSpec{P: 0.005}.build()
	if err != nil {
		t.Fatal(err)
	}
	// 10 Gbit/s line offered 6 Gbit/s of flow in 40-packet bursts and
	// 3 Gbit/s of cross traffic: a burst crosses the mark threshold and
	// the tail of some bursts finds the buffer full.
	q, err := NewQueue(QueueConfig{
		BandwidthBps: 10e9, BufferBytes: 64 << 10, MarkThresholdBytes: 32 << 10,
		Latency: 100 * time.Microsecond, Loss: loss, Seed: 3, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTrafficGen(TrafficConfig{Bps: 3e9, PacketBytes: 4096, Poisson: true, Seed: 5, Clock: clk}, q.Port(&counter{}))
	if err != nil {
		t.Fatal(err)
	}
	flow := &digestSink{clk: clk, h: fnv.New64a()}
	port := q.Port(flow)
	const pkts = 4000
	gen.Start()
	clock.Join(clk, func() {
		for i := 0; i < pkts; i++ {
			if i == 2020 {
				q.setDown(true)
			}
			if i == 2210 {
				q.setDown(false)
			}
			port.Send(pkt(uint32(i), 1500-nicsim.HeaderBytes))
			if i%40 == 39 {
				clk.Sleep(80 * time.Microsecond)
			}
		}
		gen.Stop()
		clk.Sleep(10 * time.Millisecond)
	})
	got := fmt.Sprintf("flow=%d digest=%016x enq=%d tail=%d chan=%d down=%d delivered=%d marked=%d hwm=%d sent=%d",
		flow.n, flow.h.Sum64(), q.Enqueued.Load(), q.TailDrops.Load(), q.ChannelDrops.Load(),
		q.LinkDownDrops.Load(), q.Delivered.Load(), q.Marked.Load(), q.HighWatermark(), gen.Sent())
	t.Log(got)
	const want = "flow=3717 digest=5ba76d323f35a9b8 enq=4453 tail=73 chan=20 down=247 delivered=4413 marked=2206 hwm=65460 sent=753"
	if got != want {
		t.Fatalf("shared queue diverged:\n got  %s\n want %s", got, want)
	}
}

// waiting reports whether an entry behind the head of q's buffer is a
// background one, and whether a flow packet waits directly behind one.
func waiting(q *Queue) (background, flowBehind bool) {
	for i := 1; i < q.fifo.n; i++ {
		e := q.fifo.buf[(q.fifo.head+i)&(len(q.fifo.buf)-1)]
		prev := q.fifo.buf[(q.fifo.head+i-1)&(len(q.fifo.buf)-1)]
		background = background || e.pkt == nil
		flowBehind = flowBehind || (e.pkt != nil && prev.pkt == nil)
	}
	return background, flowBehind
}

// TestSharedQueueGolden with constant-bit-rate cross traffic: fixed
// gaps and fixed serialization times put background arrivals and
// departures on recurring instants. The generator starts while a flow
// burst is still queued, and the line rate halves and recovers mid-run
// while background entries, and flow packets behind them, wait behind
// the head — so entries that have not started transmitting change
// their finish instants. Deliveries and counters are pinned like the
// Poisson golden's.
func TestSharedQueueCBRGolden(t *testing.T) {
	clk := clock.NewVirtual()
	loss, err := LossSpec{P: 0.005}.build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(QueueConfig{
		BandwidthBps: 10e9, BufferBytes: 64 << 10, MarkThresholdBytes: 32 << 10,
		Latency: 100 * time.Microsecond, Loss: loss, Seed: 3, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1500-byte wire packets: a 4 µs gap at 3 Gbit/s, 1.2 µs on the wire.
	gen, err := NewTrafficGen(TrafficConfig{Bps: 3e9, PacketBytes: 1500 - nicsim.HeaderBytes, Seed: 5, Clock: clk}, q.Port(nil))
	if err != nil {
		t.Fatal(err)
	}
	flow := &digestSink{clk: clk, h: fnv.New64a()}
	port := q.Port(flow)
	const pkts = 4000
	// Flow bursts of 40 every 60 µs (8 Gbit/s) plus the cross traffic
	// oversubscribe the line, so a backlog stands.
	clock.Join(clk, func() {
		for i := 0; i < pkts; i++ {
			switch i {
			case 20:
				if q.fifo.n == 0 {
					t.Error("generator started on an idle queue")
				}
				gen.Start()
			case 1500, 2500:
				q.HighWatermark() // settles the buffer before it is inspected
				if bg, fl := waiting(q); !bg || !fl {
					t.Errorf("packet %d: rate change with background waiting %v, a flow packet behind it %v", i, bg, fl)
				}
				q.setBandwidth(map[int]float64{1500: 5e9, 2500: 10e9}[i])
			}
			port.Send(pkt(uint32(i), 1500-nicsim.HeaderBytes))
			if i%40 == 39 {
				clk.Sleep(60 * time.Microsecond)
			}
		}
		gen.Stop()
		clk.Sleep(10 * time.Millisecond)
	})
	got := fmt.Sprintf("flow=%d digest=%016x enq=%d tail=%d chan=%d down=%d delivered=%d marked=%d hwm=%d sent=%d",
		flow.n, flow.h.Sum64(), q.Enqueued.Load(), q.TailDrops.Load(), q.ChannelDrops.Load(),
		q.LinkDownDrops.Load(), q.Delivered.Load(), q.Marked.Load(), q.HighWatermark(), gen.Sent())
	t.Log(got)
	const want = "flow=2925 digest=6942f9267dfddbe3 enq=4383 tail=1117 chan=20 down=0 delivered=4363 marked=2949 hwm=64500 sent=1500"
	if got != want {
		t.Fatalf("shared queue diverged:\n got  %s\n want %s", got, want)
	}
}

// Identical configuration and seed replay the identical drop trace.
func TestQueueDeterminism(t *testing.T) {
	run := func() string {
		clk := clock.NewVirtual()
		loss, err := LossSpec{P: 0.05, BurstLen: 4}.build()
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewQueue(QueueConfig{
			BandwidthBps: 512e6, BufferBytes: 1 << 12, Loss: loss, Seed: 42, Clock: clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{clk: clk}
		port := q.Port(rec)
		clock.Join(clk, func() {
			for i := 0; i < 2000; i++ {
				port.Send(pkt(uint32(i), 100))
				if i%64 == 63 {
					clk.Sleep(50 * time.Microsecond)
				}
			}
			clk.Sleep(time.Second)
		})
		return fmt.Sprintf("tail=%d chan=%d delivered=%d first=%v n=%d",
			q.TailDrops.Load(), q.ChannelDrops.Load(), q.Delivered.Load(),
			rec.at[0], len(rec.at))
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("queue runs diverged:\n%s\n%s", a, b)
	}
}
