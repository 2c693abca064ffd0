package fabric

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/nicsim"
)

// countingQP records delivered packets.
type countingQP struct {
	delivered atomic.Uint64
}

func registerCounter(dev *nicsim.Device) (*countingQP, uint32) {
	// Use a UD QP with posted buffers as a delivery counter.
	cq := nicsim.NewCQ(1<<16, true)
	ud := nicsim.NewUDQP(dev, 4096, cq)
	c := &countingQP{}
	go func() {
		var buf [64]nicsim.CQE
		for cq.Wait() {
			n := cq.Poll(buf[:])
			c.delivered.Add(uint64(n))
		}
	}()
	// Post enough buffers up front: tests send well under this many.
	buf := make([]byte, 64)
	for i := 0; i < 1<<16; i++ {
		ud.PostRecv(buf, uint64(i))
	}
	return c, ud.QPN()
}

func sendN(dir *Direction, dst uint32, n int) {
	for i := 0; i < n; i++ {
		dir.Send(&nicsim.Packet{Opcode: nicsim.OpSend, DstQPN: dst, Payload: []byte("x"),
			First: true, Last: true})
	}
}

func waitCount(t *testing.T, c *countingQP, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for c.delivered.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d, want %d", c.delivered.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLosslessDirectionDeliversAll(t *testing.T) {
	dev := nicsim.NewDevice("dst")
	c, qpn := registerCounter(dev)
	dir := NewDirectionTo(dev, Config{})
	sendN(dir, qpn, 1000)
	waitCount(t, c, 1000, time.Second)
	if dir.Tx.Load() != 1000 || dir.Dropped.Load() != 0 {
		t.Fatalf("Tx=%d Dropped=%d", dir.Tx.Load(), dir.Dropped.Load())
	}
}

func TestDropRate(t *testing.T) {
	dev := nicsim.NewDevice("dst")
	_, qpn := registerCounter(dev)
	dir := NewDirectionTo(dev, Config{DropProb: 0.3, Seed: 1})
	const n = 20000
	sendN(dir, qpn, n)
	rate := float64(dir.Dropped.Load()) / n
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("drop rate = %g, want ≈0.3", rate)
	}
}

func TestDuplication(t *testing.T) {
	dev := nicsim.NewDevice("dst")
	c, qpn := registerCounter(dev)
	dir := NewDirectionTo(dev, Config{})
	dups := 0
	dir.SetInterceptor(func(*nicsim.Packet) Verdict {
		dups++
		return Duplicate
	})
	sendN(dir, qpn, 100)
	waitCount(t, c, 200, time.Second)
	if dups != 100 || dir.Tx.Load() != 100 {
		t.Fatalf("duplicated %d, Tx %d", dups, dir.Tx.Load())
	}
}

func TestLatencyDelays(t *testing.T) {
	dev := nicsim.NewDevice("dst")
	c, qpn := registerCounter(dev)
	dir := NewDirectionTo(dev, Config{Latency: 20 * time.Millisecond})
	start := time.Now()
	sendN(dir, qpn, 1)
	waitCount(t, c, 1, time.Second)
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("delivery after %v, want ≥20ms", elapsed)
	}
}

func TestInterceptorDropAndHold(t *testing.T) {
	dev := nicsim.NewDevice("dst")
	c, qpn := registerCounter(dev)
	dir := NewDirectionTo(dev, Config{})
	i := 0
	dir.SetInterceptor(func(p *nicsim.Packet) Verdict {
		i++
		switch {
		case i == 1:
			return Drop
		case i == 2:
			return Hold
		default:
			return Pass
		}
	})
	sendN(dir, qpn, 3)
	waitCount(t, c, 1, time.Second) // only the third passed
	if dir.Dropped.Load() != 1 {
		t.Fatalf("Dropped=%d", dir.Dropped.Load())
	}
	if n := dir.ReleaseHeld(); n != 1 {
		t.Fatalf("ReleaseHeld = %d", n)
	}
	waitCount(t, c, 2, time.Second)
	if n := dir.ReleaseHeld(); n != 0 {
		t.Fatalf("second ReleaseHeld = %d", n)
	}
	dir.SetInterceptor(nil) // clearing must not panic
	sendN(dir, qpn, 1)
	waitCount(t, c, 3, time.Second)
}

func TestOOBReliableOrdered(t *testing.T) {
	oob := NewOOB(nil, 0)
	var got []byte
	oob.HandleB(func(msg []byte) { got = append(got, msg...) })
	oob.SendToB([]byte("a"))
	oob.SendToB([]byte("b"))
	oob.SendToB([]byte("c"))
	if string(got) != "abc" {
		t.Fatalf("OOB order = %q", got)
	}
}

func TestOOBBacklogBeforeHandler(t *testing.T) {
	oob := NewOOB(nil, 0)
	oob.SendToA([]byte("early"))
	var got string
	oob.HandleA(func(msg []byte) { got = string(msg) })
	if got != "early" {
		t.Fatalf("backlogged OOB message = %q", got)
	}
}

func TestOOBLatency(t *testing.T) {
	oob := NewOOB(nil, 10*time.Millisecond)
	done := make(chan time.Time, 1)
	oob.HandleB(func([]byte) { done <- time.Now() })
	start := time.Now()
	oob.SendToB([]byte("x"))
	select {
	case at := <-done:
		if at.Sub(start) < 8*time.Millisecond {
			t.Fatalf("OOB delivered after %v, want ≥10ms", at.Sub(start))
		}
	case <-time.After(time.Second):
		t.Fatal("OOB message never delivered")
	}
}

// traceSink records (virtual time, immediate) delivery events through a
// UD QP whose CQ is in synchronous sink mode, so the trace is exact on
// the virtual clock.
type traceSink struct {
	dev  *nicsim.Device
	qpn  uint32
	rows []string
}

func newTraceSink(vc *clock.Virtual) *traceSink {
	ts := &traceSink{dev: nicsim.NewDevice("sink")}
	cq := nicsim.NewCQ(1<<16, true)
	ud := nicsim.NewUDQP(ts.dev, 4096, cq)
	buf := make([]byte, 64)
	for i := 0; i < 1<<12; i++ {
		ud.PostRecv(buf, uint64(i))
	}
	cq.SetSink(func(cqes []nicsim.CQE) {
		ts.rows = append(ts.rows, fmt.Sprintf("%v:%d", vc.Elapsed(), cqes[0].Imm))
	}, true)
	ts.qpn = ud.QPN()
	return ts
}

// Sends through loss plus scripted duplication and late release on the
// virtual clock must yield the exact same delivery trace — instants and
// order — for a fixed seed, on every run and GOMAXPROCS setting.
func TestVirtualImpairmentsDeterministicTrace(t *testing.T) {
	run := func() []string {
		vc := clock.NewVirtual()
		ts := newTraceSink(vc)
		dir := NewDirectionTo(ts.dev, Config{
			Latency:  5 * time.Millisecond,
			DropProb: 0.2,
			Seed:     9,
			Clock:    vc,
		})
		dups, released := 0, 0
		dir.SetInterceptor(func(p *nicsim.Packet) Verdict {
			switch {
			case p.Imm%10 == 3:
				dups++
				return Duplicate
			case p.Imm%100 == 7:
				// 7 ms late: the packets sent in the next 2 ms overtake it.
				vc.At(vc.NowNanos()+int64(12*time.Millisecond), func() { released += dir.ReleaseHeld() })
				return Hold
			}
			return Pass
		})
		clock.Join(vc, func() {
			for i := 0; i < 400; i++ {
				dir.Send(&nicsim.Packet{Opcode: nicsim.OpSend, DstQPN: ts.qpn,
					Imm: uint32(i), HasImm: true, First: true, Last: true,
					Payload: []byte("payload")})
				vc.Sleep(100 * time.Microsecond)
			}
			vc.Sleep(50 * time.Millisecond) // let stragglers land
		})
		if dir.Dropped.Load() == 0 || dups != 40 || released != 4 {
			t.Fatalf("impairments idle: dropped=%d duplicated=%d released=%d",
				dir.Dropped.Load(), dups, released)
		}
		return ts.rows
	}
	first := run()
	prev := runtime.GOMAXPROCS(1)
	second := run()
	runtime.GOMAXPROCS(prev)
	if len(first) == 0 {
		t.Fatal("no deliveries recorded")
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatal("same seed produced different delivery traces")
	}
}

// Interceptor Hold/ReleaseHeld must work identically on the virtual
// clock: the held packet arrives exactly when released — the "late
// packet" generator for §3.3 tests.
func TestInterceptorHoldReleaseVirtual(t *testing.T) {
	vc := clock.NewVirtual()
	ts := newTraceSink(vc)
	dir := NewDirectionTo(ts.dev, Config{Latency: time.Millisecond, Clock: vc})
	held := 0
	dir.SetInterceptor(func(p *nicsim.Packet) Verdict {
		if p.Imm == 1 && held == 0 {
			held++
			return Hold
		}
		return Pass
	})
	clock.Join(vc, func() {
		for i := 0; i < 3; i++ {
			dir.Send(&nicsim.Packet{Opcode: nicsim.OpSend, DstQPN: ts.qpn,
				Imm: uint32(i), HasImm: true, First: true, Last: true})
		}
		vc.Sleep(30 * time.Millisecond)
		if n := dir.ReleaseHeld(); n != 1 {
			t.Errorf("ReleaseHeld = %d, want 1", n)
		}
	})
	want := []string{"1ms:0", "1ms:2", "30ms:1"}
	if fmt.Sprint(ts.rows) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", ts.rows, want)
	}
}

// Bandwidth serialization on the virtual clock is exact: each packet
// occupies the wire for its transmission time before propagating.
func TestBandwidthSerializationVirtual(t *testing.T) {
	vc := clock.NewVirtual()
	ts := newTraceSink(vc)
	// 1000 B frames (936 payload + 64 header) at 1 Mbit/s: 8 ms of
	// wire time each, plus 10 ms propagation.
	dir := NewDirectionTo(ts.dev, Config{
		Latency:      10 * time.Millisecond,
		BandwidthBps: 1e6,
		Clock:        vc,
	})
	clock.Join(vc, func() {
		payload := make([]byte, 936)
		for i := 0; i < 2; i++ {
			dir.Send(&nicsim.Packet{Opcode: nicsim.OpSend, DstQPN: ts.qpn,
				Imm: uint32(i), HasImm: true, First: true, Last: true,
				Payload: payload})
		}
		vc.Sleep(100 * time.Millisecond)
	})
	want := []string{"18ms:0", "26ms:1"}
	if fmt.Sprint(ts.rows) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", ts.rows, want)
	}
}

// arrivalRecorder is a terminal Deliverer that reports each packet's
// PSN and wall arrival time.
type arrivalRecorder chan [2]int64

func (r arrivalRecorder) Deliver(p *nicsim.Packet) {
	r <- [2]int64{int64(p.PSN), time.Now().UnixNano()}
	nicsim.ReleasePacket(p)
}

// On a real clock the wire books time through the same NowNanos path:
// packet k of N back-to-back sends is delivered no earlier than the
// propagation delay plus k transmission times after the first send.
func TestBandwidthSerializationReal(t *testing.T) {
	const n = 6
	const latency = time.Millisecond
	// 1000 B frames at 4 Mbit/s: 2 ms of wire time each.
	const tx = 2 * time.Millisecond
	got := make(arrivalRecorder, n)
	dir := NewDirectionTo(got, Config{Latency: latency, BandwidthBps: 4e6, Clock: clock.NewReal()})
	payload := make([]byte, 1000-nicsim.HeaderBytes)
	start := time.Now().UnixNano()
	for k := 1; k <= n; k++ {
		dir.Send(&nicsim.Packet{Opcode: nicsim.OpSend, PSN: uint32(k), First: true, Last: true, Payload: payload})
	}
	for range n {
		a := <-got
		k, at := a[0], time.Duration(a[1]-start)
		if want := latency + time.Duration(k)*tx; at < want {
			t.Errorf("packet %d delivered %v after the first send, want >= %v", k, at, want)
		}
	}
}

// A Duplicate verdict sends two packets down the pipeline: the copy
// books its own wire slot, one transmission time behind the original,
// and takes its own loss draw. 1000 B frames at 1 Mbit/s are 8 ms of
// wire time each, plus 10 ms propagation, so the eight copies of four
// packets own the slots ending at 18, 26, …, 74 ms; a dropped copy
// leaves its slot empty.
func TestDuplicateVerdictOwnSlotAndLossDraw(t *testing.T) {
	vc := clock.NewVirtual()
	ts := newTraceSink(vc)
	dir := NewDirectionTo(ts.dev, Config{
		Latency:      10 * time.Millisecond,
		BandwidthBps: 1e6,
		DropProb:     0.4,
		Seed:         11,
		Clock:        vc,
	})
	dir.SetInterceptor(func(*nicsim.Packet) Verdict { return Duplicate })
	clock.Join(vc, func() {
		payload := make([]byte, 936)
		for i := 0; i < 4; i++ {
			dir.Send(&nicsim.Packet{Opcode: nicsim.OpSend, DstQPN: ts.qpn,
				Imm: uint32(i), HasImm: true, First: true, Last: true,
				Payload: payload})
		}
		vc.Sleep(100 * time.Millisecond)
	})
	// Seed 11 drops packet 0's original and packet 2's copy.
	want := []string{"26ms:0", "34ms:1", "42ms:1", "50ms:2", "66ms:3", "74ms:3"}
	if fmt.Sprint(ts.rows) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", ts.rows, want)
	}
	if dir.Tx.Load() != 4 || dir.Dropped.Load() != 2 {
		t.Fatalf("Tx=%d Dropped=%d", dir.Tx.Load(), dir.Dropped.Load())
	}
}

// The OOB channel is documented "reliable, ordered": a burst of delayed
// sends must arrive strictly in order even on the real clock, where the
// old AfterFunc-per-message dispatch let concurrent timer callbacks
// overtake each other (the reorder hole this regression pins down).
func TestOOBFIFOUnderLoadRealClock(t *testing.T) {
	oob := NewOOB(nil, 50*time.Microsecond)
	const n = 2000
	done := make(chan int, 1)
	next := 0
	oob.HandleB(func(msg []byte) {
		got := int(msg[0])<<8 | int(msg[1])
		if got != next {
			t.Errorf("OOB reordered: got %d, want %d", got, next)
		}
		next++
		if next == n {
			done <- n
		}
	})
	for i := 0; i < n; i++ {
		oob.SendToB([]byte{byte(i >> 8), byte(i)})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("OOB delivered %d/%d messages", next, n)
	}
}

// Same FIFO contract on the virtual clock, including messages queued
// behind a not-yet-registered handler.
func TestOOBFIFOVirtual(t *testing.T) {
	vc := clock.NewVirtual()
	oob := NewOOB(vc, 3*time.Millisecond)
	var got []byte
	clock.Join(vc, func() {
		oob.SendToB([]byte{0}) // in flight before the handler exists
		vc.Sleep(10 * time.Millisecond)
		oob.HandleB(func(msg []byte) { got = append(got, msg[0]) })
		for i := byte(1); i <= 5; i++ {
			oob.SendToB([]byte{i})
		}
		vc.Sleep(10 * time.Millisecond)
	})
	if fmt.Sprint(got) != fmt.Sprint([]byte{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("OOB virtual order = %v", got)
	}
}

// discardSink is a terminal Deliverer that counts what it is handed.
type discardSink struct{ n atomic.Uint64 }

func (s *discardSink) Deliver(p *nicsim.Packet) {
	s.n.Add(1)
	nicsim.ReleasePacket(p)
}

// On a real clock a straggler of the previous lease (a late re-ACK on a
// free-running worker) can still be inside Send while the pool
// re-parameterizes the direction for the next lease. Send must see the
// old or the new parameters whole; run under -race this fails on a
// Direction whose Send reads cfg and clk field by field.
func TestReconfigureDuringSendRealClock(t *testing.T) {
	clk := clock.NewReal()
	sink := &discardSink{}
	cfg := func(seed int64) Config {
		return Config{BandwidthBps: 400e9, DropProb: 0.1, Seed: seed, Clock: clk}
	}
	d := NewDirectionTo(sink, cfg(1))
	const senders, perSender = 4, 2000
	done := make(chan struct{})
	for s := 0; s < senders; s++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < perSender; i++ {
				d.Send(&nicsim.Packet{Opcode: nicsim.OpSend, Payload: []byte("x"), First: true, Last: true})
			}
		}()
	}
	for seed := int64(2); seed < 200; seed++ {
		d.Reconfigure(sink, cfg(seed))
		runtime.Gosched()
	}
	for s := 0; s < senders; s++ {
		<-done
	}
	// The serialization booking is at most a few packet times deep.
	deadline := time.Now().Add(5 * time.Second)
	for sink.n.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sink.n.Load() == 0 {
		t.Fatal("nothing delivered")
	}
}

// dropRecorder is a terminal Deliverer that records which PSNs arrive.
type dropRecorder struct{ got []bool }

func (r *dropRecorder) Deliver(p *nicsim.Packet) {
	r.got[p.PSN] = true
	nicsim.ReleasePacket(p)
}

// A Direction seeds its generator on the first Send that draws, not at
// construction or Reconfigure. The drop pattern must still be the one
// an eagerly seeded generator produces — from construction, after a
// lossy → lossy Reconfigure (an already built generator restarts), and
// after a lossless lease in between (sends that never draw must not
// consume or seed the stream).
func TestLazySeedMatchesEagerReference(t *testing.T) {
	const n, prob = 10000, 0.1
	rec := &dropRecorder{}
	check := func(d *Direction, seed int64, label string) {
		t.Helper()
		rec.got = make([]bool, n)
		for i := 0; i < n; i++ {
			d.Send(&nicsim.Packet{Opcode: nicsim.OpSend, PSN: uint32(i), Payload: []byte("x"), First: true, Last: true})
		}
		ref := rand.New(rand.NewSource(seed))
		dropped := 0
		for i := 0; i < n; i++ {
			want := ref.Float64() < prob
			if want {
				dropped++
			}
			if rec.got[i] == want {
				t.Fatalf("%s: packet %d delivered=%v, eager reference dropped=%v", label, i, rec.got[i], want)
			}
		}
		if got := d.Dropped.Load(); got != uint64(dropped) || dropped == 0 {
			t.Fatalf("%s: Dropped=%d, reference %d", label, got, dropped)
		}
	}
	lossy := func(seed int64) Config { return Config{DropProb: prob, Seed: seed} }

	d := NewDirectionTo(rec, lossy(7))
	if d.rng != nil {
		t.Fatal("construction seeded the generator")
	}
	check(d, 7, "constructed lossy")

	d.Reconfigure(rec, lossy(8))
	check(d, 8, "lossy -> lossy")

	d.Reconfigure(rec, Config{Seed: 9})
	rec.got = make([]bool, n)
	for i := 0; i < 100; i++ {
		d.Send(&nicsim.Packet{Opcode: nicsim.OpSend, PSN: uint32(i), Payload: []byte("x"), First: true, Last: true})
	}
	if d.seeded || d.Dropped.Load() != 0 {
		t.Fatalf("lossless lease drew: seeded=%v dropped=%d", d.seeded, d.Dropped.Load())
	}
	d.Reconfigure(rec, lossy(10))
	check(d, 10, "lossless -> lossy")

	fresh := NewDirectionTo(rec, Config{Seed: 11})
	fresh.Send(&nicsim.Packet{Opcode: nicsim.OpSend, Payload: []byte("x"), First: true, Last: true})
	if fresh.rng != nil {
		t.Fatal("a lossless direction built a generator")
	}
	fresh.Reconfigure(rec, lossy(12))
	check(fresh, 12, "never-drawn lossless -> lossy")
}

// On a real clock timers that expire together start their callbacks in
// no fixed order; a direction's deliveries ride its event lane, one
// timer armed for the oldest, so it hands a burst on in send order.
func TestRealClockBurstArrivesInOrder(t *testing.T) {
	const runs, n = 20, 32
	for r := 0; r < runs; r++ {
		got := make(arrivalRecorder, n)
		dir := NewDirectionTo(got, Config{Latency: time.Millisecond, Clock: clock.NewReal()})
		for k := 0; k < n; k++ {
			dir.Send(&nicsim.Packet{Opcode: nicsim.OpSend, PSN: uint32(k), First: true, Last: true, Payload: []byte("x")})
		}
		for k := 0; k < n; k++ {
			if a := <-got; a[0] != int64(k) {
				t.Fatalf("run %d: packet %d arrived in place %d", r, a[0], k)
			}
		}
	}
}
