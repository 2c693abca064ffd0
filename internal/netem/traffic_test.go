package netem

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/nicsim"
)

// A Join that only sleeps does no background work: the generator's
// arrivals wait in its schedule, with no clock event, until something
// reads the queue, and the first settling read replays all of them.
func TestSleepingJoinDefersCrossTraffic(t *testing.T) {
	clk := clock.NewVirtual()
	q, err := NewQueue(QueueConfig{BandwidthBps: 100e9, BufferBytes: 4 << 20, Seed: 1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTrafficGen(TrafficConfig{Bps: 50e9, PacketBytes: 4096, Poisson: true, Seed: 2, Clock: clk}, q.Port(nil))
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	clock.Join(clk, func() { clk.Sleep(time.Millisecond) })
	if n, b := q.Enqueued.Load(), q.fifo.n; n != 0 || b != 0 {
		t.Fatalf("a sleeping Join admitted %d background packets (%d buffered)", n, b)
	}
	// ≈ 1503 arrivals of 4160 wire bytes at 50 Gbit/s in 1 ms.
	sent := gen.Sent()
	if sent < 1300 || sent > 1700 || q.Enqueued.Load() != sent || q.Delivered.Load() == 0 {
		t.Fatalf("settling read: sent %d, enqueued %d, delivered %d", sent, q.Enqueued.Load(), q.Delivered.Load())
	}
}

// countSink is a terminal Deliverer safe for a real clock's timer
// goroutines.
type countSink struct{ n atomic.Int64 }

func (c *countSink) Deliver(*nicsim.Packet) { c.n.Add(1) }

// A generator on a real clock starts and stops while a flow sends into
// its queue from another goroutine. Its arrivals settle under the
// queue's lock, so nothing races; the timer-chain generator it replaced
// could dereference its timer before Start had stored it, when the
// first emission fired first. Run it with -race -count=50.
func TestRealClockGeneratorStartStop(t *testing.T) {
	q, err := NewQueue(QueueConfig{BandwidthBps: 100e9, BufferBytes: 1 << 20, Seed: 1, Clock: clock.NewReal()})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTrafficGen(TrafficConfig{Bps: 50e9, PacketBytes: 4096, Poisson: true, Seed: 5}, q.Port(nil))
	if err != nil {
		t.Fatal(err)
	}
	flow := &countSink{}
	done := make(chan struct{})
	gen.Start()
	go func() {
		defer close(done)
		port := q.Port(flow)
		for i := 0; i < 100; i++ {
			port.Send(pkt(uint32(i), 1000))
			time.Sleep(10 * time.Microsecond)
		}
	}()
	time.Sleep(time.Millisecond)
	gen.Stop()
	<-done
	if gen.Sent() == 0 || q.Enqueued.Load() == 0 {
		t.Fatalf("sent %d, enqueued %d", gen.Sent(), q.Enqueued.Load())
	}
}

// On a real clock the generator offers its configured load: the count
// at Stop is Bps × elapsed / wire size within 2 %, however late the
// clock's timers fire. The timer chain it replaced reached about 4 %.
func TestRealClockGeneratorOffersFullLoad(t *testing.T) {
	q, err := NewQueue(QueueConfig{BandwidthBps: 100e9, BufferBytes: 4 << 20, Seed: 1, Clock: clock.NewReal()})
	if err != nil {
		t.Fatal(err)
	}
	const bps, payload = 50e9, 4096
	gen, err := NewTrafficGen(TrafficConfig{Bps: bps, PacketBytes: payload, Poisson: true, Seed: 5}, q.Port(nil))
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	start := time.Now()
	time.Sleep(50 * time.Millisecond)
	elapsed := time.Since(start)
	gen.Stop()
	want := bps * elapsed.Seconds() / ((payload + nicsim.HeaderBytes) * 8)
	got := float64(gen.Sent())
	t.Logf("sent %.0f in %v, want %.0f", got, elapsed, want)
	if math.Abs(got/want-1) > 0.02 {
		t.Fatalf("sent %.0f packets in %v, want %.0f ± 2 %%", got, elapsed, want)
	}
}

func TestTrafficGenClockMustBeTheQueues(t *testing.T) {
	q, err := NewQueue(QueueConfig{BandwidthBps: 1e9, Clock: clock.NewVirtual()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrafficGen(TrafficConfig{Bps: 1e8, Clock: clock.NewVirtual()}, q.Port(nil)); err == nil {
		t.Fatal("a generator on another clock than its queue's was accepted")
	}
}
