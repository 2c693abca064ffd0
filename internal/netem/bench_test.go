package netem

import (
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
)

// counter is a minimal terminal Deliverer that keeps what it is handed
// for reuse. As the queue's drop hook it takes dropped packets back too,
// so allocs/op is the queue's and not the harness's.
type counter struct {
	n    int
	free []*nicsim.Packet
}

func (c *counter) Deliver(p *nicsim.Packet) {
	c.n++
	c.free = append(c.free, p)
}

func (c *counter) dropped(p *nicsim.Packet, _ DropReason, _ nicsim.Deliverer) {
	c.free = append(c.free, p)
}

// packet builds the benchmark's next packet, on a recycled envelope
// once the pipeline is full.
func (c *counter) packet(psn uint32, payload []byte) *nicsim.Packet {
	var p *nicsim.Packet
	if k := len(c.free); k > 0 {
		p, c.free = c.free[k-1], c.free[:k-1]
	} else {
		p = new(nicsim.Packet)
	}
	*p = nicsim.Packet{Opcode: nicsim.OpWriteImm, PSN: psn, Payload: payload}
	return p
}

// BenchmarkNetemQueue measures the per-packet cost of the full queue
// pipeline on the virtual clock — enqueue, head-of-line departure
// event, burst-loss draw, propagation event, delivery — the hot path
// every emulated hop charges per packet. Tracked in
// BENCH_protosim.json.
func BenchmarkNetemQueue(b *testing.B) {
	clk := clock.NewVirtual()
	loss, err := LossSpec{P: 0.01, BurstLen: 8}.build()
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewQueue(QueueConfig{
		BandwidthBps: 400e9,
		BufferBytes:  1 << 20,
		Latency:      time.Millisecond,
		Loss:         loss,
		Seed:         1,
		Clock:        clk,
	})
	if err != nil {
		b.Fatal(err)
	}
	sink := &counter{}
	q.SetDropHook(sink.dropped)
	port := q.Port(sink)
	payload := make([]byte, 4096-nicsim.HeaderBytes)
	b.ReportAllocs()
	b.ResetTimer()
	clock.Join(clk, func() {
		for i := 0; i < b.N; i++ {
			port.Send(sink.packet(uint32(i), payload))
			if i%128 == 127 {
				// Let the buffer drain so the benchmark measures the
				// steady pipeline, not tail-drop of an ever-full queue.
				clk.Sleep(20 * time.Microsecond)
			}
		}
		clk.Sleep(10 * time.Millisecond)
	})
	b.StopTimer()
	if sink.n == 0 {
		b.Fatal("nothing delivered")
	}
}

// BenchmarkNetemQueueECN is BenchmarkNetemQueue with the ECN threshold
// engaged and the load held above it, so every enqueue pays the
// congestion-marking check and most deliveries carry the mark — the
// steady-state cost of an emulated hop under standing congestion.
// Tracked in BENCH_protosim.json.
func BenchmarkNetemQueueECN(b *testing.B) {
	clk := clock.NewVirtual()
	q, err := NewQueue(QueueConfig{
		BandwidthBps:       400e9,
		BufferBytes:        1 << 20,
		MarkThresholdBytes: 8 << 10,
		Latency:            time.Millisecond,
		Seed:               1,
		Clock:              clk,
	})
	if err != nil {
		b.Fatal(err)
	}
	sink := &counter{}
	q.SetDropHook(sink.dropped)
	port := q.Port(sink)
	payload := make([]byte, 4096-nicsim.HeaderBytes)
	b.ReportAllocs()
	b.ResetTimer()
	clock.Join(clk, func() {
		for i := 0; i < b.N; i++ {
			port.Send(sink.packet(uint32(i), payload))
			if i%128 == 127 {
				clk.Sleep(20 * time.Microsecond)
			}
		}
		clk.Sleep(10 * time.Millisecond)
	})
	b.StopTimer()
	if sink.n == 0 {
		b.Fatal("nothing delivered")
	}
	// The b.N=1 probe run cannot cross the threshold; only steady runs
	// must actually mark.
	if b.N >= 128 && q.Marked.Load() == 0 {
		b.Fatal("no packets marked: threshold never engaged")
	}
}

// BenchmarkNetemCrossTraffic measures the settlement of one background
// packet: a Poisson TrafficGen offering half the line rate to a
// bottleneck Queue while an actor sleeps through b.N mean gaps. The
// sleep is one engine event; no background packet is one. Stop then
// settles them all — each an arrival draw, admission, departure, loss
// draw and delivered count, with no envelope, propagation event or
// sink. ns/op and allocs/op are per cross packet; the contended
// perftest and benchmark workloads pay this about six times per
// foreground packet. Tracked in BENCH_protosim.json.
func BenchmarkNetemCrossTraffic(b *testing.B) {
	clk := clock.NewVirtual()
	loss, err := LossSpec{P: 0.005}.build()
	if err != nil {
		b.Fatal(err)
	}
	q, err := NewQueue(QueueConfig{
		BandwidthBps:       100e9,
		BufferBytes:        4 << 20,
		MarkThresholdBytes: 2 << 20,
		Latency:            500 * time.Microsecond,
		Loss:               loss,
		Seed:               1,
		Clock:              clk,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewTrafficGen(TrafficConfig{
		Bps: 50e9, PacketBytes: 4096, Poisson: true, Seed: 2, Clock: clk,
	}, q.Port(nil))
	if err != nil {
		b.Fatal(err)
	}
	// Mean gap of a 4160-byte wire packet at 50 Gbit/s.
	const gap = 4160 * 8 * time.Second / 50e9
	b.ReportAllocs()
	b.ResetTimer()
	gen.Start()
	clock.Join(clk, func() { clk.Sleep(time.Duration(b.N) * gap) })
	gen.Stop()
	b.StopTimer()
	if delivered := q.Delivered.Load(); b.N >= 128 && (delivered == 0 || gen.Sent() < uint64(b.N)/2) {
		b.Fatalf("sent %d, delivered %d of ~%d", gen.Sent(), delivered, b.N)
	}
}

// BenchmarkNetemFlowChurn measures one short flow end to end on the
// virtual clock: NewFlow (a lease of the dumbbell's one pooled
// deployment), one 64 KiB SR-NACK message across leaf → agg →
// bottleneck → agg → leaf, Close. ns/op and allocs/op are per flow —
// the control-path cost the repo benchmark's flow_churn workload pays
// 2000 times per rep. Tracked in BENCH_protosim.json.
func BenchmarkNetemFlowChurn(b *testing.B) {
	const size = 64 << 10
	clk := clock.NewVirtual()
	access := EdgeConfig{DistanceKm: 50, BandwidthBps: 10e9, BufferBytes: 1 << 20}
	bottleneck := EdgeConfig{DistanceKm: 800, BandwidthBps: 5e9, BufferBytes: 1 << 20}
	d, err := Dumbbell(clk, 1, access, bottleneck, 1)
	if err != nil {
		b.Fatal(err)
	}
	coreCfg := core.Config{
		MTU: 4096, ChunkBytes: 64 << 10, MaxMsgBytes: size,
		MsgIDBits: 10, PktOffsetBits: 18, UserImmBits: 4,
		Generations: 2, Channels: 4, CQDepth: 1 << 12,
	}
	relCfg := reliability.Config{Alpha: 2, NACK: true}
	data, recvBuf := make([]byte, size), make([]byte, size)
	for i := range data {
		data[i] = byte(i * 13)
	}
	flow := func() {
		s, err := d.NewFlow(d.Left[0], d.Right[0], coreCfg, relCfg)
		if err != nil {
			b.Fatal(err)
		}
		// The two per-side calls, not Drive: the flow lands in one
		// reused buffer so the row stays the control-path cost of a flow.
		tr, err := s.NewTransfer("sr", reliability.AdaptorConfig{}, size, 1)
		if err != nil {
			b.Fatal(err)
		}
		mr := s.Pair.B.Ctx.RegMR(recvBuf)
		var sendErr, recvErr error
		clock.Join(clk,
			func() { sendErr = tr.Write(data) },
			func() { recvErr = tr.Receive(mr, 0, size, 0) },
		)
		if sendErr != nil || recvErr != nil {
			b.Fatalf("transfer failed: send=%v recv=%v", sendErr, recvErr)
		}
		s.Close()
	}
	flow() // the pool's one cold build
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow()
	}
	b.StopTimer()
	if built, leased := d.PoolStats(); built != 1 || leased != 0 {
		b.Fatalf("built=%d leased=%d, want 1/0", built, leased)
	}
	if err := d.ClosePools(); err != nil {
		b.Fatal(err)
	}
}
