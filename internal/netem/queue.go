package netem

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/telemetry"
	"sdrrdma/internal/wan"
)

// DropReason classifies why a queue discarded a packet.
type DropReason int

const (
	// tailDrop: the finite buffer was full on arrival — the ISP
	// congestion signature of §2.1. Tail drops are inherently bursty:
	// while the buffer stays full every arriving packet is lost, so
	// consecutive wire packets (and therefore packets of the same
	// bitmap chunk) cluster into one loss event.
	tailDrop DropReason = iota
	// channelLoss: the configured loss model dropped the packet on the
	// wire after it left the buffer.
	channelLoss
	// linkDown: the link was administratively down — a flap event. The
	// queue fails closed: arrivals while down are refused, and packets
	// already buffered when the link drops are discarded at departure
	// instead of being delivered over a dead wire.
	linkDown
)

// QueueConfig describes one direction of an emulated hop.
type QueueConfig struct {
	// BandwidthBps is the line rate the queue serializes at (> 0; an
	// unpaced hop has no meaningful buffer occupancy).
	BandwidthBps float64
	// BufferBytes bounds the queue: arrivals that would push the
	// buffered wire bytes (payload + nicsim.HeaderBytes each) past this
	// limit are tail-dropped. 0 = unbounded.
	BufferBytes int
	// Latency is the propagation delay applied after a packet finishes
	// transmitting (store-and-forward).
	Latency time.Duration
	// Loss is the wire loss process applied to packets leaving the
	// buffer, in serialization order — so burst channels correlate
	// drops across consecutive wire packets. nil = lossless wire.
	Loss wan.LossModel
	// MarkThresholdBytes enables ECN/RED-style congestion marking: an
	// arrival that pushes buffered wire bytes to or past this threshold
	// has its Marked bit set instead of being dropped, giving receivers
	// an early congestion signal before tail drop. 0 disables marking.
	// Must be < BufferBytes when both are set — a threshold at or above
	// the buffer can never fire (tail drop wins first).
	MarkThresholdBytes int
	// Seed drives the loss draws.
	Seed int64
	// Clock supplies departure and propagation timing; nil uses the
	// shared real clock.
	Clock clock.Clock
}

// validate reports configuration errors.
func (c QueueConfig) validate() error {
	switch {
	case c.BandwidthBps <= 0:
		return fmt.Errorf("netem: queue bandwidth %g <= 0", c.BandwidthBps)
	case c.BufferBytes < 0:
		return fmt.Errorf("netem: queue buffer %d < 0", c.BufferBytes)
	case c.Latency < 0:
		return fmt.Errorf("netem: queue latency %v < 0", c.Latency)
	case c.MarkThresholdBytes < 0:
		return fmt.Errorf("netem: ECN mark threshold %d < 0", c.MarkThresholdBytes)
	case c.MarkThresholdBytes > 0 && c.BufferBytes > 0 && c.MarkThresholdBytes >= c.BufferBytes:
		return fmt.Errorf("netem: ECN mark threshold %d >= buffer %d bytes (can never fire before tail drop)",
			c.MarkThresholdBytes, c.BufferBytes)
	}
	return nil
}

// Queue is one direction of an emulated link: a finite-buffer FIFO
// that serializes packets at line rate on a clock.Clock, tail-drops on
// overflow, applies its loss process in transmission order, and then
// propagates survivors to their per-flow destination.
//
// Unlike fabric.Direction's uplink booking — which charges wire time
// but delivers every packet it keeps — a Queue is a real store-and-
// forward stage: packets occupy buffer bytes until their transmission
// completes, and several flows can share one Queue through per-flow
// Ports, contending for the same buffer. That is what lets a dumbbell
// bottleneck reproduce multi-tenant tail-drop bursts no single-link
// model shows.
//
// Locking follows the clock the queue was built on. On a real clock
// enqueues, departures (timer goroutines) and the setters race, and mu
// guards every field below it. On a virtual clock every caller runs
// under the scheduler baton (see clock.Virtual, "The baton is the
// lock"), so the queue takes no lock at all: the choice is made once,
// in NewQueue, from Clock.IsVirtual.
type Queue struct {
	cfg QueueConfig
	clk clock.Clock
	// serial: built on a virtual clock, mu is never taken.
	serial bool

	mu   sync.Mutex
	rng  *rand.Rand
	fifo fifo
	used int  // buffered wire bytes
	busy bool // head-of-line transmission in progress
	high int  // buffer occupancy high-watermark
	down bool // link administratively down (flap)

	onDrop func(pkt *nicsim.Packet, reason DropReason, dst nicsim.Deliverer)

	// departFn is the bound head-of-line departure callback (created
	// once in NewQueue) and pool the shared envelope machinery for
	// propagation-delayed deliveries: together they make the per-packet
	// store-and-forward path schedule its clock events without
	// allocating closures.
	departFn func()
	pool     fabric.DeliveryPool

	// sink, when non-nil, receives per-packet telemetry events
	// (enqueue/depart occupancy samples, the three drop classes, ECN
	// marks) on track. Guarded by mu like onDrop.
	sink  telemetry.Sink
	track int32

	// Enqueued counts packets accepted into the buffer; TailDrops,
	// ChannelDrops and LinkDownDrops the three loss classes; Delivered
	// the packets handed to their destination; Marked the packets that
	// left with the ECN congestion-experienced bit set. The counters
	// are telemetry.Counters so Topology.SetTelemetry registers them
	// into the run's metrics registry without a second set of fields.
	Enqueued      telemetry.Counter
	TailDrops     telemetry.Counter
	ChannelDrops  telemetry.Counter
	LinkDownDrops telemetry.Counter
	Delivered     telemetry.Counter
	Marked        telemetry.Counter
}

// queued is one buffered entry: a flow packet bound for dst, or — pkt
// nil — a background packet of a TrafficGen, which is only the buffer
// occupancy and serialization time of size wire bytes.
type queued struct {
	pkt  *nicsim.Packet
	dst  nicsim.Deliverer
	size int
}

// fifo is the queue's packet buffer: a power-of-two ring that doubles
// when full and is never pre-sized or shrunk, so a queue in steady
// state does not allocate, and a popped slot is cleared so the buffer
// pins no departed packet.
type fifo struct {
	buf     []queued // len is zero or a power of two
	head, n int
}

func (f *fifo) push(e queued) {
	if f.n == len(f.buf) {
		grown := make([]queued, max(8, 2*len(f.buf)))
		k := copy(grown, f.buf[f.head:])
		copy(grown[k:], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)&(len(f.buf)-1)] = e
	f.n++
}

// pop removes and returns the oldest entry; the fifo must not be empty.
func (f *fifo) pop() queued {
	e := f.buf[f.head]
	f.buf[f.head] = queued{}
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return e
}

// front returns the oldest entry without removing it.
func (f *fifo) front() *queued { return &f.buf[f.head] }

// lock and unlock guard the queue's state on a real clock and are
// no-ops under the virtual clock's baton.
func (q *Queue) lock() {
	if !q.serial {
		q.mu.Lock()
	}
}

func (q *Queue) unlock() {
	if !q.serial {
		q.mu.Unlock()
	}
}

// NewQueue builds a queue direction.
func NewQueue(cfg QueueConfig) (*Queue, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	q := &Queue{
		cfg: cfg,
		clk: clock.Or(cfg.Clock),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	q.serial = q.clk.IsVirtual()
	q.departFn = q.depart
	return q, nil
}

// SetDropHook installs fn, called (outside the queue lock) for every
// dropped flow packet. dst is the packet's egress destination — the
// only reliable flow discriminator at a shared queue, since QPNs are
// per-device and collide across tenants. Experiments use the hook to
// map drops onto bitmap chunks. Background drops (TrafficGen) reach
// the counters and telemetry probes, never the hook.
func (q *Queue) SetDropHook(fn func(pkt *nicsim.Packet, reason DropReason, dst nicsim.Deliverer)) {
	q.lock()
	q.onDrop = fn
	q.unlock()
}

// setTelemetry attaches a flight-recorder sink: every admission and
// departure reports buffer occupancy (which a Recorder folds into a
// queue-depth series), and drops and ECN marks become instant events
// on track. A nil sink detaches — the default, zero-overhead state.
func (q *Queue) setTelemetry(sink telemetry.Sink, track int32) {
	q.lock()
	q.sink, q.track = sink, track
	q.unlock()
}

// probe emits one event when a sink is attached. The nil check is the
// entire disabled-path cost (see TestDisabledProbeAllocs).
func (q *Queue) probe(sink telemetry.Sink, track int32, kind telemetry.EventKind, a0, a1 int64) {
	if sink == nil {
		return
	}
	sink.Event(clock.NowNanos(q.clk), kind, track, a0, a1, 0, 0)
}

// setDown flaps the link direction. While down the queue fails closed:
// new arrivals are refused and already-buffered packets are discarded
// at their departure instant — nothing crosses a dead wire. Bringing
// the link back up resumes normal service; in-flight propagation
// (packets that already left the queue) is unaffected, exactly like a
// real fiber cut that strands photons already past the break.
func (q *Queue) setDown(down bool) {
	q.lock()
	q.down = down
	q.unlock()
}

// setBandwidth changes the line rate. It applies to transmissions
// started after the call; the head-of-line packet finishes at its
// already-scheduled departure time.
func (q *Queue) setBandwidth(bps float64) error {
	if bps <= 0 {
		return fmt.Errorf("netem: queue bandwidth %g <= 0", bps)
	}
	q.lock()
	q.cfg.BandwidthBps = bps
	q.unlock()
	return nil
}

// setLatency changes the propagation delay applied to packets leaving
// the queue after the call — the mechanism behind LEO-style RTT drift.
func (q *Queue) setLatency(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("netem: queue latency %v < 0", d)
	}
	q.lock()
	q.cfg.Latency = d
	q.unlock()
	return nil
}

// setLoss swaps the wire loss process (nil = lossless). The queue's
// random stream is deliberately kept: draws continue from where the
// previous process left off, so a scheduled loss change stays
// deterministic per seed regardless of when it fires.
func (q *Queue) setLoss(p wan.LossModel) {
	q.lock()
	q.cfg.Loss = p
	q.unlock()
}

// HighWatermark returns the peak buffered wire bytes observed.
func (q *Queue) HighWatermark() int {
	q.lock()
	defer q.unlock()
	return q.high
}

// Port returns this queue's ingress for one flow: packets sent (or
// delivered) to the port traverse the shared queue and, on survival,
// continue to dst. A Port is both a nicsim.Wire and a
// nicsim.Deliverer, so multi-hop paths chain ports back to front. A
// TrafficGen aimed at a port uses only its queue: background packets
// end there, so dst may be nil.
func (q *Queue) Port(dst nicsim.Deliverer) *Port { return &Port{q: q, dst: dst} }

// Port is one flow's ingress into a shared Queue.
type Port struct {
	q   *Queue
	dst nicsim.Deliverer
}

// Send implements nicsim.Wire.
func (p *Port) Send(pkt *nicsim.Packet) { p.q.admit(pkt, p.dst, wireBytes(pkt)) }

// Deliver implements nicsim.Deliverer (for mid-path hops).
func (p *Port) Deliver(pkt *nicsim.Packet) { p.q.admit(pkt, p.dst, wireBytes(pkt)) }

// wireBytes is the buffer/serialization footprint of one packet.
func wireBytes(pkt *nicsim.Packet) int { return len(pkt.Payload) + nicsim.HeaderBytes }

// txTime is the serialization time of size wire bytes at line rate.
func (q *Queue) txTime(size int) time.Duration {
	return time.Duration(float64(size) * 8 / q.cfg.BandwidthBps * float64(time.Second))
}

// admit offers one arrival of size wire bytes to the buffer: the flow
// packet pkt bound for dst, or a background entry when pkt is nil.
func (q *Queue) admit(pkt *nicsim.Packet, dst nicsim.Deliverer, size int) {
	q.lock()
	sink, track := q.sink, q.track
	e := queued{pkt: pkt, dst: dst, size: size}
	if q.down {
		hook := q.onDrop
		q.unlock()
		q.drop(e, linkDown, hook, sink, track, 0)
		return
	}
	if q.cfg.BufferBytes > 0 && q.used+size > q.cfg.BufferBytes {
		hook := q.onDrop
		used := q.used
		q.unlock()
		q.drop(e, tailDrop, hook, sink, track, used)
		return
	}
	q.fifo.push(e)
	q.used += size
	if q.used > q.high {
		q.high = q.used
	}
	marked := false
	if t := q.cfg.MarkThresholdBytes; t > 0 && q.used >= t && (pkt == nil || !pkt.Marked) {
		// RED-style congestion-experienced marking: occupancy crossed
		// the threshold, so the packet carries the signal instead of
		// waiting for tail drop to announce congestion the hard way.
		if pkt != nil {
			pkt.Marked = true
		}
		q.Marked.Add(1)
		marked = true
	}
	start := !q.busy
	if start {
		q.busy = true
	}
	used := q.used
	d := q.txTime(size)
	q.unlock()
	q.Enqueued.Add(1)
	if sink != nil {
		at := clock.NowNanos(q.clk)
		sink.Event(at, telemetry.EvEnqueue, track, int64(used), 0, 0, 0)
		if marked {
			sink.Event(at, telemetry.EvECNMark, track, int64(used), 0, 0, 0)
		}
	}
	if start {
		// Idle line: this packet goes head-of-line now and departs
		// after its own transmission time.
		clock.After(q.clk, d, q.departFn)
	}
}

// depart completes the head-of-line transmission: the packet leaves
// the buffer, faces the wire loss process, and (on survival)
// propagates to its destination — or, a background entry, is counted
// delivered and forgotten. The next packet, if any, starts
// transmitting immediately.
func (q *Queue) depart() {
	q.lock()
	if q.fifo.n == 0 {
		// Cannot happen: busy is only set with a queued head.
		q.busy = false
		q.unlock()
		return
	}
	head := q.fifo.pop()
	q.used -= head.size
	down := q.down
	dropped := !down && q.cfg.Loss != nil && q.cfg.Loss.Drop(q.rng)
	latency := q.cfg.Latency
	hook := q.onDrop
	sink, track := q.sink, q.track
	used := q.used
	if q.fifo.n > 0 {
		d := q.txTime(q.fifo.front().size)
		q.unlock()
		clock.After(q.clk, d, q.departFn)
	} else {
		q.busy = false
		q.unlock()
	}
	q.probe(sink, track, telemetry.EvDepart, int64(used), 0)
	switch {
	case down:
		// Fail closed: the link flapped while this packet was buffered.
		q.drop(head, linkDown, hook, sink, track, used)
	case dropped:
		q.drop(head, channelLoss, hook, sink, track, used)
	default:
		q.Delivered.Add(1)
		if head.pkt != nil {
			q.pool.DeliverAfter(q.clk, latency, head.dst, head.pkt)
		}
	}
}

// drop ends a discarded entry: it counts the loss under reason, reports
// it to the telemetry sink with the buffer occupancy used, and hands a
// flow packet to the drop hook, or back to the envelope pool when none
// is installed. A background entry has no packet, so its drop stops at
// the counters and probes.
func (q *Queue) drop(e queued, reason DropReason, hook func(*nicsim.Packet, DropReason, nicsim.Deliverer), sink telemetry.Sink, track int32, used int) {
	kind := telemetry.EvTailDrop
	switch reason {
	case tailDrop:
		q.TailDrops.Add(1)
	case channelLoss:
		q.ChannelDrops.Add(1)
		kind = telemetry.EvChannelDrop
	case linkDown:
		q.LinkDownDrops.Add(1)
		kind = telemetry.EvLinkDownDrop
	}
	q.probe(sink, track, kind, int64(used), int64(e.size))
	switch {
	case e.pkt == nil:
	case hook != nil:
		hook(e.pkt, reason, e.dst)
	default:
		nicsim.ReleasePacket(e.pkt)
	}
}
