package netem

import (
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/nicsim"
)

// The packet FIFO must keep arrival order when it grows with the head
// in the middle of the ring (the live part is split across the wrap)
// and across any number of wrap-arounds without growth.
func TestFifoOrderAcrossGrowthAndWrap(t *testing.T) {
	var f fifo
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			*f.push() = queued{size: next}
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got := f.pop().size; got != want {
				t.Fatalf("popped %d, want %d (head %d, n %d, cap %d)", got, want, f.head, f.n, len(f.buf))
			}
			want++
		}
	}
	push(8) // fills the first ring exactly
	pop(5)  // head = 5
	push(5) // wraps and fills: live part is buf[5:8] + buf[0:5]
	if len(f.buf) != 8 || f.head != 5 {
		t.Fatalf("ring grew or moved before it was full: cap %d head %d", len(f.buf), f.head)
	}
	push(4) // full with head != 0: must grow and unwrap
	if len(f.buf) != 16 {
		t.Fatalf("cap %d after growth, want 16", len(f.buf))
	}
	pop(f.n)
	// Steady state: a standing queue of 10 cycling through a 16-ring
	// wraps many times and never reallocates.
	push(10)
	buf := &f.buf[0]
	for i := 0; i < 1000; i++ {
		push(3)
		pop(3)
	}
	if &f.buf[0] != buf || len(f.buf) != 16 {
		t.Fatalf("steady-state ring reallocated (cap %d)", len(f.buf))
	}
	pop(f.n)
	for i, e := range f.buf {
		if e != (queued{}) {
			t.Fatalf("slot %d not cleared after pop: %+v", i, e)
		}
	}
}

// Packets leave a queue in arrival order through growth and wrap, and
// a drained queue pins none of them: every ring slot is cleared as it
// is popped, not when the buffer next drains or regrows.
func TestQueueFIFOOrderAndNoPinnedPackets(t *testing.T) {
	clk := clock.NewVirtual()
	q, err := NewQueue(QueueConfig{BandwidthBps: 8e9, Latency: time.Microsecond, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{clk: clk}
	port := q.Port(rec)
	const rounds, perRound = 40, 25 // 1 µs per 1000-byte packet
	clock.Join(clk, func() {
		psn := uint32(0)
		for r := 0; r < rounds; r++ {
			for i := 0; i < perRound; i++ {
				port.Send(pkt(psn, 1000-nicsim.HeaderBytes))
				psn++
			}
			// Drain 20 of the 25: the standing backlog grows by 5 a
			// round, so the ring wraps and doubles with a moving head.
			clk.Sleep(20 * time.Microsecond)
		}
		clk.Sleep(time.Millisecond)
	})
	if len(rec.psn) != rounds*perRound {
		t.Fatalf("delivered %d/%d", len(rec.psn), rounds*perRound)
	}
	for i, psn := range rec.psn {
		if psn != uint32(i) {
			t.Fatalf("delivery %d carries PSN %d: FIFO order broken", i, psn)
		}
	}
	if q.fifo.n != 0 || len(q.fifo.buf) < 128 {
		t.Fatalf("queue not drained or ring never grew: n %d cap %d", q.fifo.n, len(q.fifo.buf))
	}
	for i, e := range q.fifo.buf {
		if e.pkt != nil || e.dst != nil {
			t.Fatalf("drained queue still references a packet in slot %d", i)
		}
	}
}

// Steady-state cross traffic — Poisson TrafficGen into a bottleneck
// Queue on a virtual clock — must not allocate per packet: a
// background packet is a bare buffer entry that settle replays from
// the generator's schedule, with no clock event, and the FIFO is a
// ring. Each measured run sleeps through 2 ms of arrivals and then
// reads Sent, which settles them all. No sync.Pool is on the path, so
// the bound holds under -race too. This set-up measured 1.0 allocation
// per packet before the ring and the pooled envelope.
func TestCrossTrafficSteadyStateAllocs(t *testing.T) {
	clk := clock.NewVirtual()
	loss, err := LossSpec{P: 0.005}.build()
	if err != nil {
		t.Fatal(err)
	}
	// Offered load 1.25× the line rate: the queue stands full, so the
	// tail-drop path is in the measured window too.
	q, err := NewQueue(QueueConfig{
		BandwidthBps: 40e9, BufferBytes: 4 << 20, MarkThresholdBytes: 2 << 20,
		Latency: 500 * time.Microsecond, Loss: loss, Seed: 1, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTrafficGen(TrafficConfig{Bps: 50e9, PacketBytes: 4096, Poisson: true, Seed: 2, Clock: clk}, q.Port(nil))
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	defer gen.Stop()
	run := func() {
		clock.Join(clk, func() { clk.Sleep(2 * time.Millisecond) })
		gen.Sent()
	}
	run() // warm-up: the ring reaches its standing size
	run()
	before := gen.Sent()
	allocs := testing.AllocsPerRun(5, run)
	pkts := float64(gen.Sent()-before) / 6 // AllocsPerRun runs once more to warm up
	if pkts < 1000 || q.TailDrops.Load() == 0 || q.Delivered.Load() == 0 {
		t.Fatalf("window too quiet: %.0f pkts/run, %d tail drops, %d delivered", pkts, q.TailDrops.Load(), q.Delivered.Load())
	}
	perPkt := allocs / pkts
	t.Logf("%.0f cross packets per run, %.1f allocs per run = %.5f allocs/packet", pkts, allocs, perPkt)
	if perPkt > 0.02 {
		t.Fatalf("steady-state cross traffic allocates %.4f/packet, want <= 0.02", perPkt)
	}
}
