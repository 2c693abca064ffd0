package netem

import (
	"fmt"
	"math"
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
// Background traffic (TrafficGen) costs no clock event. A generator's
// arrivals are a schedule drawn from its own RNG, and a line-rate FIFO
// fixes each entry's finish instant when it is admitted, so the queue
// replays the schedule on demand (settle). Before anything reads or
// changes the queue — a flow admission or departure, setDown,
// setBandwidth, setLoss, setTelemetry, HighWatermark, a Topology drop
// sum, a generator's Start, Stop or Sent — it admits every background
// arrival and departs every background head-of-line entry that is due,
// in the order their clock events would have fired. Each replayed
// packet takes the tail-drop test, ECN mark, loss draw, counters and
// probes of its own instant, so a flow sees the same buffer, and the
// loss process the same draws, as if every background packet had been
// an event. Flow packets keep their events: one that joins an idle
// line, or queues directly behind another flow packet, departs on an
// event chained from its predecessor's departure; one that queues
// behind a background entry departs on an event scheduled at
// admission, at its finish instant. The exported counters are exact
// after a settling call, or once the event a generator's Stop leaves
// at the last background finish has fired.
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
	high int  // buffer occupancy high-watermark
	down bool // link administratively down (flap)
	// gens are the running generators whose arrivals settle replays;
	// fed records that one ever ran here (see depart).
	gens []*TrafficGen
	fed  bool
	// late holds flow packets that settle took off the line at their
	// finish while their departure events were still pending — which
	// only a real clock's late timers leave behind — so background
	// traffic behind them is not held up. Their events draw their loss
	// and deliver them.
	late fifo
	// order numbers the background events settle replays in the order
	// their clock events would have been scheduled, which is how the
	// engine breaks ties between events at one instant; headOrder is
	// the number of the head-of-line entry's departure (see settle).
	order, headOrder uint64
	// epochNs is the NowNanos stamp of instant zero on the clock's
	// timeline: a settled event at instant t is stamped epochNs + t.
	epochNs int64
	// txSize and txSec cache the last serialization time (see txTime).
	txSize int
	txSec  float64

	onDrop func(pkt *nicsim.Packet, reason DropReason, dst nicsim.Deliverer)

	// departFn and settleFn are the bound flow-departure and settling
	// callbacks (created once in NewQueue) and pool the shared envelope
	// machinery for propagation-delayed deliveries: together they make
	// the per-packet store-and-forward path schedule its clock events
	// without allocating closures.
	departFn, settleFn func()
	pool               fabric.DeliveryPool

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
	// fin is the instant (clock.Instant's timeline) its transmission
	// ends: its predecessor's fin, or its arrival on an idle line, plus
	// its serialization time.
	fin float64
}

// fifo is the queue's packet buffer: a power-of-two ring that doubles
// when full and is never pre-sized or shrunk, so a queue in steady
// state does not allocate, and a popped slot is cleared so the buffer
// pins no departed packet.
type fifo struct {
	buf     []queued // len is zero or a power of two
	head, n int
}

// push appends an entry and returns it, zeroed, for the caller to fill
// in place.
func (f *fifo) push() *queued {
	if f.n == len(f.buf) {
		grown := make([]queued, max(8, 2*len(f.buf)))
		k := copy(grown, f.buf[f.head:])
		copy(grown[k:], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	f.n++
	return f.at(f.n - 1)
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

// at returns the i-th oldest entry (0 is the front).
func (f *fifo) at(i int) *queued { return &f.buf[(f.head+i)&(len(f.buf)-1)] }

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
	q.departFn, q.settleFn = q.depart, q.settleEvent
	q.epochNs = clock.NowNanos(q.clk) - int64(clock.Instant(q.clk)*float64(time.Second))
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
	q.catchUp()
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
	q.catchUp()
	q.down = down
	q.unlock()
}

// setBandwidth changes the line rate. It applies to transmissions
// started after the call; the head-of-line packet finishes at its
// already-scheduled departure time. So every entry behind the head
// gets its finish instant re-derived, and a flow packet behind a
// background entry has its departure re-armed; the event armed before
// finds nothing due and does nothing (see depart).
func (q *Queue) setBandwidth(bps float64) error {
	if bps <= 0 {
		return fmt.Errorf("netem: queue bandwidth %g <= 0", bps)
	}
	q.lock()
	defer q.unlock()
	q.catchUp()
	q.cfg.BandwidthBps = bps
	q.txSize = 0
	for i := 1; i < q.fifo.n; i++ {
		prev, e := q.fifo.at(i-1), q.fifo.at(i)
		fin := prev.fin + q.txTime(e.size)
		if e.pkt != nil && prev.pkt == nil && fin != e.fin {
			clock.At(q.clk, fin, q.departFn)
		}
		e.fin = fin
	}
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
	q.catchUp()
	q.cfg.Loss = p
	q.unlock()
}

// HighWatermark returns the peak buffered wire bytes observed.
func (q *Queue) HighWatermark() int {
	q.lock()
	defer q.unlock()
	q.catchUp()
	return q.high
}

// settleRead settles the queue for a read at the current instant (see
// settle).
func (q *Queue) settleRead() {
	q.lock()
	q.catchUp()
	q.unlock()
}

// settleEvent is the clock event a generator's Stop leaves at the last
// background finish: it settles up to and including its own instant.
func (q *Queue) settleEvent() {
	q.lock()
	q.settle(clock.Instant(q.clk), math.MaxUint64)
	q.unlock()
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
func (p *Port) Send(pkt *nicsim.Packet) { p.q.admit(pkt, p.dst) }

// Deliver implements nicsim.Deliverer (for mid-path hops).
func (p *Port) Deliver(pkt *nicsim.Packet) { p.q.admit(pkt, p.dst) }

// wireBytes is the buffer/serialization footprint of one packet.
func wireBytes(pkt *nicsim.Packet) int { return len(pkt.Payload) + nicsim.HeaderBytes }

// txTime is the serialization time of size wire bytes at line rate, in
// seconds: the nanosecond Duration the clock would schedule after,
// converted as the engine converts it, so finish instants are the sums
// it would have formed. The last size's value is kept, as a flow's
// packets, like a generator's, share one size; recomputing it on every
// admission put a chain of float divisions in front of the next
// atomic counter.
func (q *Queue) txTime(size int) float64 {
	if size != q.txSize {
		d := time.Duration(float64(size) * 8 / q.cfg.BandwidthBps * float64(time.Second))
		q.txSize, q.txSec = size, d.Seconds()
	}
	return q.txSec
}

// admit offers the flow packet pkt, bound for dst, to the buffer.
func (q *Queue) admit(pkt *nicsim.Packet, dst nicsim.Deliverer) {
	size := wireBytes(pkt)
	q.lock()
	q.catchUp()
	sink, track := q.sink, q.track
	if q.down {
		hook := q.onDrop
		q.unlock()
		q.drop(queued{pkt: pkt, dst: dst, size: size}, linkDown, hook, sink, track, 0)
		return
	}
	if q.cfg.BufferBytes > 0 && q.used+size > q.cfg.BufferBytes {
		hook := q.onDrop
		used := q.used
		q.unlock()
		q.drop(queued{pkt: pkt, dst: dst, size: size}, tailDrop, hook, sink, track, used)
		return
	}
	idle := q.fifo.n == 0
	behindBackground := false
	var fin float64
	if idle {
		fin = clock.Instant(q.clk)
	} else {
		prev := q.fifo.at(q.fifo.n - 1)
		fin = prev.fin
		behindBackground = prev.pkt == nil
	}
	fin += q.txTime(size)
	e := q.fifo.push()
	e.pkt, e.dst, e.size, e.fin = pkt, dst, size, fin
	if idle {
		q.started()
	}
	q.used += size
	if q.used > q.high {
		q.high = q.used
	}
	marked := false
	if t := q.cfg.MarkThresholdBytes; t > 0 && q.used >= t && !pkt.Marked {
		// RED-style congestion-experienced marking: occupancy crossed
		// the threshold, so the packet carries the signal instead of
		// waiting for tail drop to announce congestion the hard way.
		pkt.Marked = true
		q.Marked.Add(1)
		marked = true
	}
	used := q.used
	q.unlock()
	q.Enqueued.Add(1)
	if sink != nil {
		at := clock.NowNanos(q.clk)
		sink.Event(at, telemetry.EvEnqueue, track, int64(used), 0, 0, 0)
		if marked {
			sink.Event(at, telemetry.EvECNMark, track, int64(used), 0, 0, 0)
		}
	}
	if idle || behindBackground {
		// Idle line: this packet goes head-of-line now and departs
		// after its own transmission time. Behind a background entry,
		// which departs without an event, nothing can chain this
		// departure: schedule it now, at its finish.
		clock.At(q.clk, fin, q.departFn)
	}
}

// depart completes a flow packet's transmission: the packet leaves
// the buffer, faces the wire loss process, and (on survival)
// propagates to its destination. A flow packet directly behind it
// starts transmitting immediately, on an event chained from this one.
// An event that finds no flow packet due — one armed before a rate
// change moved its packet's finish, or whose packet another event
// already took — does nothing. Only background traffic leaves such
// events behind, so a queue no generator ever fed takes the head
// without reading the clock, as it always did.
func (q *Queue) depart() {
	q.lock()
	now := math.Inf(1)
	if q.fed {
		// Up to this departure: the background events before its
		// instant, then those at it whose events would have been
		// scheduled before its own.
		now = clock.Instant(q.clk)
		q.settle(now, 0)
		if q.fifo.n > 0 && q.fifo.front().pkt != nil && q.fifo.front().fin == now {
			q.settle(now, q.headOrder-1)
		}
	}
	var head queued
	switch {
	case q.late.n > 0:
		head = q.late.pop()
	case q.fifo.n > 0 && q.fifo.front().pkt != nil && q.fifo.front().fin <= now:
		head = q.leave()
	default:
		q.unlock()
		return
	}
	down := q.down
	dropped := !down && q.cfg.Loss != nil && q.cfg.Loss.Drop(q.rng)
	latency := q.cfg.Latency
	hook := q.onDrop
	sink, track := q.sink, q.track
	used := q.used
	q.unlock()
	q.probe(sink, track, telemetry.EvDepart, int64(used), 0)
	switch {
	case down:
		// Fail closed: the link flapped while this packet was buffered.
		q.drop(head, linkDown, hook, sink, track, used)
	case dropped:
		q.drop(head, channelLoss, hook, sink, track, used)
	default:
		q.Delivered.Add(1)
		q.pool.DeliverAfter(q.clk, latency, head.dst, head.pkt)
	}
}

// leave takes the flow packet at the head of the line off it, and
// schedules the departure of a flow packet that starts behind it.
func (q *Queue) leave() queued {
	head := q.fifo.pop()
	q.started()
	q.used -= head.size
	if q.fifo.n > 0 && q.fifo.front().pkt != nil {
		clock.At(q.clk, q.fifo.front().fin, q.departFn)
	}
	return head
}

// drop ends a discarded flow packet: it counts the loss under reason,
// reports it to the telemetry sink with the buffer occupancy used, and
// hands the packet to the drop hook, or back to the envelope pool when
// none is installed.
func (q *Queue) drop(e queued, reason DropReason, hook func(*nicsim.Packet, DropReason, nicsim.Deliverer), sink telemetry.Sink, track int32, used int) {
	q.probe(sink, track, q.count(reason), int64(used), int64(e.size))
	if hook != nil {
		hook(e.pkt, reason, e.dst)
	} else {
		nicsim.ReleasePacket(e.pkt)
	}
}

// count adds one loss of class reason to its counter and returns the
// class's telemetry event kind.
func (q *Queue) count(reason DropReason) telemetry.EventKind {
	switch reason {
	case channelLoss:
		q.ChannelDrops.Add(1)
		return telemetry.EvChannelDrop
	case linkDown:
		q.LinkDownDrops.Add(1)
		return telemetry.EvLinkDownDrop
	}
	q.TailDrops.Add(1)
	return telemetry.EvTailDrop
}

// settle replays the background schedule up to (until, last): every
// arrival of a running generator, and every departure of a background
// entry at the head of the line, whose instant is before until, or at
// it with an order number (below) not above last. A flow
// packet at the head stops the departures: it leaves on its own event.
// Each replayed packet takes the tail-drop test, ECN mark, loss draw,
// counters and probes of its instant. The caller holds the lock.
//
// Replayed events run in the order their clock events would have: by
// instant, then — like the engine — by when they would have been
// scheduled. An arrival's event was scheduled at the arrival before
// it, a departure's when its entry started transmitting; the order
// counter stamps each as settle (or a flow departure) gets there.
//
// The order counter also stamps a flow packet's departure when its
// event is scheduled — or, behind a background entry, when that entry
// leaves, as its event was scheduled before background traffic was
// settled — so a flow departure settles the background events at its
// own instant that its event would have followed. An admission, setter
// or read settles only up to before its instant (last 0): it runs on
// an event scheduled long before — an actor's wake, a propagation
// delay, a dynamics schedule — or after the engine stopped.
func (q *Queue) settle(until float64, last uint64) {
	var t tally
	for {
		var g *TrafficGen
		at, order := math.Inf(1), uint64(0)
		for _, c := range q.gens {
			if c.next < at || (c.next == at && c.order < order) {
				g, at, order = c, c.next, c.order
			}
		}
		if q.fifo.n > 0 {
			h := q.fifo.front()
			if due(h.fin, q.headOrder, until, last) && (h.fin < at || (h.fin == at && q.headOrder < order)) {
				if h.pkt == nil {
					q.departBackground(&t)
				} else {
					*q.late.push() = q.leave()
				}
				continue
			}
		}
		if g == nil || !due(at, order, until, last) {
			break
		}
		q.arriveBackground(at, g.size, &t)
		g.sent++
		g.next, g.order = at+g.gap().Seconds(), q.stamp()
	}
	q.Enqueued.Add(t.enqueued)
	q.Delivered.Add(t.delivered)
	q.Marked.Add(t.marked)
}

// due reports whether the event (at, order) comes no later than
// (until, last).
func due(at float64, order uint64, until float64, last uint64) bool {
	return at < until || (at == until && order <= last)
}

// stamp returns the next number of the order counter.
func (q *Queue) stamp() uint64 {
	q.order++
	return q.order
}

// started stamps the departure of the entry that has just reached the
// head of the line (see settle).
func (q *Queue) started() {
	if q.fifo.n > 0 {
		q.headOrder = q.stamp()
	}
}

// catchUp settles the queue up to, not including, the current instant:
// the first step of every admission, setter and read (see settle). On a
// queue no generator ever fed there is nothing to settle, and it costs
// one load.
func (q *Queue) catchUp() {
	if q.fed {
		q.settleBefore()
	}
}

// settleBefore is catchUp's slow path, out of line so catchUp inlines.
func (q *Queue) settleBefore() { q.settle(clock.Instant(q.clk), 0) }

// tally batches the counts of one settle call, so a replay pays one
// atomic add per counter instead of one per packet.
type tally struct{ enqueued, delivered, marked uint64 }

// arriveBackground offers one background packet of size wire bytes to
// the buffer at instant at.
func (q *Queue) arriveBackground(at float64, size int, t *tally) {
	if q.down {
		q.bgProbe(at, q.count(linkDown), 0, int64(size))
		return
	}
	if q.cfg.BufferBytes > 0 && q.used+size > q.cfg.BufferBytes {
		q.bgProbe(at, q.count(tailDrop), int64(q.used), int64(size))
		return
	}
	fin := at
	if q.fifo.n > 0 {
		fin = q.fifo.at(q.fifo.n - 1).fin
	}
	e := q.fifo.push()
	e.size, e.fin = size, fin+q.txTime(size)
	if q.fifo.n == 1 {
		q.started()
	}
	q.used += size
	if q.used > q.high {
		q.high = q.used
	}
	t.enqueued++
	q.bgProbe(at, telemetry.EvEnqueue, int64(q.used), 0)
	if m := q.cfg.MarkThresholdBytes; m > 0 && q.used >= m {
		t.marked++
		q.bgProbe(at, telemetry.EvECNMark, int64(q.used), 0)
	}
}

// departBackground ends the background entry at the head of the line
// at its finish instant.
func (q *Queue) departBackground(t *tally) {
	head := q.fifo.pop()
	q.started()
	q.used -= head.size
	dropped := !q.down && q.cfg.Loss != nil && q.cfg.Loss.Drop(q.rng)
	q.bgProbe(head.fin, telemetry.EvDepart, int64(q.used), 0)
	switch {
	case q.down:
		q.bgProbe(head.fin, q.count(linkDown), int64(q.used), int64(head.size))
	case dropped:
		q.bgProbe(head.fin, q.count(channelLoss), int64(q.used), int64(head.size))
	default:
		t.delivered++
	}
}

// bgProbe emits one background event stamped at instant at. A
// background packet acts for no actor, so a sink that attributes events
// to the running actor gets it as a background event, even when a
// flow's admission settles it.
func (q *Queue) bgProbe(at float64, kind telemetry.EventKind, a0, a1 int64) {
	if q.sink == nil {
		return
	}
	ns := q.epochNs + int64(at*float64(time.Second))
	if b, ok := q.sink.(telemetry.BackgroundSink); ok {
		b.BackgroundEvent(ns, kind, q.track, a0, a1, 0, 0)
		return
	}
	q.sink.Event(ns, kind, q.track, a0, a1, 0, 0)
}
