package netem

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"sdrrdma/internal/clock"
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
	// Seed drives the loss draws. The source is seeded on the first
	// draw, so a lossless queue never builds one.
	Seed int64
	// Clock supplies serialization and propagation timing; nil uses
	// the shared real clock.
	Clock clock.Clock
}

// validate reports configuration errors.
func (c QueueConfig) validate() error {
	switch {
	case !finite(c.BandwidthBps) || c.BandwidthBps <= 0:
		return fmt.Errorf("netem: queue bandwidth %g is not finite and > 0", c.BandwidthBps)
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
// A line-rate FIFO fixes each entry's finish instant when it is
// admitted, so no departure is a clock event. The queue replays them
// on demand (settle), together with the arrivals of its background
// traffic (TrafficGen), a schedule drawn from each generator's own
// RNG. Before anything reads or changes the queue — a flow admission
// or delivery, setDown, setLatency, setLoss, setTelemetry,
// HighWatermark, a Topology drop sum, a generator's Start, Stop or
// Sent — it admits every background arrival, and every flow packet an
// upstream queue admitted ahead (see forward), and departs every
// head-of-line entry that is due, in the order their clock events
// would have run. Each replayed packet takes the tail-drop test, ECN
// mark, loss draw, counters and probes of its own instant, so a flow
// sees the same buffer, and the loss process the same draws, as if
// every departure and background packet had been an event.
//
// A flow packet's hop costs at most one clock event: its delivery at
// its finish plus the propagation delay, scheduled on the queue's event
// lane when it is admitted (see transit). The delivery settles the
// queue up to the packet's departure and hands the packet on if the
// loss process and the link kept it. On a Topology path a hop can cost
// none: where the next queue has one feeder, the packet is admitted
// there ahead, at its computed arrival, and only the last queue of such
// a run schedules a delivery (see forward). A background packet costs
// none. The exported counters are exact after a settling call, or once
// the last delivery, or the event a generator's Stop leaves at the last
// background finish, has run.
//
// Locking follows the clock the queue was built on. On a real clock
// enqueues, deliveries (run by the lane's timer) and the setters race,
// and mu guards every field below it. On a virtual clock every caller
// runs under the scheduler baton (see clock.Virtual, "The baton is the
// lock"), so the queue takes no lock at all: the choice is made once,
// in NewQueue, from Clock.IsVirtual.
type Queue struct {
	cfg QueueConfig
	clk clock.Clock
	// serial: built on a virtual clock, mu is never taken.
	serial bool

	mu sync.Mutex
	// rng is the loss draw stream, nil until the first draw (see seeded).
	rng  *rand.Rand
	fifo fifo
	used int  // buffered wire bytes
	high int  // buffer occupancy high-watermark
	down bool // link administratively down (flap)
	// gens are the running generators whose arrivals settle replays.
	gens []*TrafficGen
	// order numbers the events settle replays in the order their
	// clock events would have been scheduled, which is how the
	// engine breaks ties between events at one instant; headOrder is
	// the number of the head-of-line entry's departure (see settle).
	order, headOrder uint64
	// txSize and tx cache the last serialization time (see txTime).
	txSize int
	tx     int64

	// feeder is the queue every live Topology path through this one
	// comes from, nil when there is none or more than one (see
	// Topology.linkFeeders): the one queue that may admit packets here
	// ahead. ahead counts the entries at the tail of the fifo admitted
	// ahead whose arrival settle has not replayed yet, aheadBytes their
	// wire bytes. cut entries at the head of the fifo, of cutBytes wire
	// bytes, finish before the latest ahead arrival (see admitAhead).
	// inbound counts the hop events under way to this queue's ports.
	feeder            *Queue
	ahead, aheadBytes int
	cut, cutBytes     int
	inbound           int
	// from and more count the live path hops through the queue by the
	// queue before it on the path, nil where the path starts here: from's
	// in fromN, the others' in more, nil until a second queue feeds this
	// one; fromN is 0 only when more is empty (see feed). Guarded by the
	// topology's pathMu.
	from  *Queue
	fromN int
	more  map[*Queue]int

	onDrop func(pkt *nicsim.Packet, reason DropReason, dst nicsim.Deliverer)

	// settleFn is the bound settling callback (created once in
	// NewQueue). free lists the transits whose deliveries have run,
	// for reuse, so the per-packet path schedules its clock event
	// without allocating, and made counts the transits the queue has
	// allocated (see grow); lane is the event lane they are scheduled
	// on, bound by the first admission, so a direction no packet
	// crosses adds no lane for the engine to scan.
	settleFn func()
	free     *transit
	made     int
	lane     clock.Lane

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

// queued is one buffered entry: a flow packet in transit, or — tr nil
// — a background packet of a TrafficGen, which is only the buffer
// occupancy and serialization time of size wire bytes.
type queued struct {
	tr   *transit
	size int
	// fin is the instant (Clock.NowNanos's timeline) its transmission
	// ends: its predecessor's fin, or its arrival on an idle line, plus
	// its serialization time.
	fin int64
	// arr is the arrival instant of an entry admitted ahead, while settle
	// has not replayed it (see arriveAhead).
	arr int64
}

// transit is one flow packet's passage through a queue. Admission
// fixes the instant its transmission ends, and with it the instant it
// reaches dst; its delivery there is the one clock event the hop costs,
// unless the transit is parked. Until settle takes it off the line a
// buffer entry references it. Its event then hands the packet on,
// unless the departure dropped it, and returns the transit to the
// queue's free list.
//
// A parked transit schedules no event: dst's queue admitted the packet
// ahead, and its entry there replays the arrival in the transit's
// stead (see forward and arriveAhead), recycling it.
type transit struct {
	q   *Queue
	pkt *nicsim.Packet // nil once its departure dropped it
	dst nicsim.Deliverer
	// at is the instant its delivery is scheduled at: its finish plus
	// the propagation delay in force at that finish (see setLatency).
	at int64
	// gone: no buffer entry references it any more — settle departed
	// it, or setLatency or a take-back voided its delivery. parked: its
	// delivery is no clock event (see above).
	gone, parked bool
	// into is the queue whose inbound count its event holds.
	into *Queue
	// up, while its entry was admitted ahead and the arrival is still to
	// be replayed, is the feeder's transit that carries the packet here;
	// mark records that the admission set the packet's ECN bit, which
	// the replay counts.
	up   *transit
	mark bool
	run  func()   // == deliver, bound once
	next *transit // free-list link
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
	}
	q.serial = q.clk.IsVirtual()
	q.settleFn = q.settleEvent
	return q, nil
}

// seeded returns *rng, first building it from seed if it is nil — how
// a queue's loss draws and a generator's Poisson gaps seed on first
// use. Seeding a math/rand source costs ~13 µs and 5 KB, and most
// queues of a topology are lossless; the stream drawn is the one an
// eagerly seeded source would give. Caller holds the queue's lock (or
// the baton).
func seeded(rng **rand.Rand, seed int64) *rand.Rand {
	if *rng == nil {
		*rng = rand.New(rand.NewSource(seed))
	}
	return *rng
}

// SetDropHook installs fn, called for every dropped flow packet. dst
// is the packet's egress destination — the only reliable flow
// discriminator at a shared queue, since QPNs are per-device and
// collide across tenants. Experiments use the hook to map drops onto
// bitmap chunks. A packet refused at admission reaches fn outside the
// queue's lock; one lost at its departure reaches it from settle,
// which on a real clock holds the lock, so fn must not call back into
// the queue. Background drops (TrafficGen) reach the counters and
// telemetry probes, never the hook. The queue settles before the hook
// changes, so a drop due before the call reaches the hook it replaces.
func (q *Queue) SetDropHook(fn func(pkt *nicsim.Packet, reason DropReason, dst nicsim.Deliverer)) {
	q.lock()
	q.catchUp()
	q.unfuse()
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
	q.unfuse()
	q.sink, q.track = sink, track
	q.unlock()
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
	q.unfuse()
	q.down = down
	q.unlock()
}

// setLatency changes the propagation delay applied to packets leaving
// the queue after the call — the mechanism behind LEO-style RTT drift.
// The packets still buffered had their deliveries scheduled with the
// old delay when they were admitted: each moves to a fresh transit
// scheduled with the new one, and the old transit's event only
// recycles it.
func (q *Queue) setLatency(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("netem: queue latency %v < 0", d)
	}
	q.lock()
	q.catchUp()
	q.unfuse()
	q.cfg.Latency = d
	for i := 0; i < q.fifo.n; i++ {
		e := q.fifo.at(i)
		if tr := e.tr; tr != nil && e.fin+int64(d) != tr.at {
			e.tr = q.schedule(q.take(tr.pkt, tr.dst, e.fin+int64(d)))
			tr.void()
		}
	}
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
	q.unfuse()
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
	q.settle(q.clk.NowNanos(), math.MaxUint64)
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
// nanoseconds, truncated once per size as a time.Duration is, so finish
// instants are exact integer sums. The last size's value is kept, as a
// flow's packets, like a generator's, share one size; recomputing it on
// every admission put a chain of float divisions in front of the next
// atomic counter.
func (q *Queue) txTime(size int) int64 {
	if size != q.txSize {
		// A configuration boundary: the line rate becomes a time.
		q.txSize, q.tx = size, int64(float64(size)*8/q.cfg.BandwidthBps*float64(time.Second))
	}
	return q.tx
}

// admit offers the flow packet pkt, bound for dst, to the buffer.
func (q *Queue) admit(pkt *nicsim.Packet, dst nicsim.Deliverer) {
	size := wireBytes(pkt)
	q.lock()
	q.catchUp()
	if q.ahead > 0 {
		// An arrival no ahead admission counted on, such as a packet on
		// a retired path's chain: the entries admitted ahead of it go
		// back to ordinary hops.
		q.takeBack()
	}
	sink, track := q.sink, q.track
	if q.down || q.cfg.BufferBytes > 0 && q.used+size > q.cfg.BufferBytes {
		// Refused: the link is down, or the buffer is full.
		reason, used, hook := tailDrop, q.used, q.onDrop
		if q.down {
			reason, used = linkDown, 0
		}
		q.unlock()
		kind := q.count(reason)
		if sink != nil {
			sink.Event(q.clk.NowNanos(), kind, track, int64(used), int64(size), 0, 0)
		}
		discard(hook, pkt, reason, dst)
		return
	}
	idle := q.fifo.n == 0
	fin := q.clk.NowNanos()
	if !idle {
		fin = q.fifo.at(q.fifo.n - 1).fin
	}
	fin += q.txTime(size)
	e := q.fifo.push()
	e.size, e.fin = size, fin
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
	// The packet leaves marked or not, so a queue downstream that takes
	// it ahead meets the bit the un-fused hop would have handed it.
	e.tr = q.forward(pkt, dst, fin+int64(q.cfg.Latency))
	used := q.used
	q.unlock()
	q.Enqueued.Add(1)
	if sink != nil {
		at := q.clk.NowNanos()
		sink.Event(at, telemetry.EvEnqueue, track, int64(used), 0, 0, 0)
		if marked {
			sink.Event(at, telemetry.EvECNMark, track, int64(used), 0, 0, 0)
		}
	}
}

// take takes a transit off the free list for pkt, which reaches dst at
// instant at. Caller holds the lock.
func (q *Queue) take(pkt *nicsim.Packet, dst nicsim.Deliverer, at int64) *transit {
	if q.free == nil {
		q.grow()
	}
	tr := q.free
	q.free = tr.next
	tr.pkt, tr.dst, tr.at = pkt, dst, at
	return tr
}

// schedule makes tr's delivery a clock event at its instant on the
// queue's lane, and returns tr. On a virtual clock the event counts in
// the inbound hops of the queue it delivers to, if that is a Port's.
// Caller holds the lock.
func (q *Queue) schedule(tr *transit) *transit {
	if tr.run == nil {
		tr.run = tr.deliver
	}
	if q.serial {
		if p, ok := tr.dst.(*Port); ok {
			tr.into = p.q
			p.q.inbound++
		}
	}
	q.clk.RunAtLane(&q.lane, tr.at, tr.run)
	return tr
}

// void makes tr's scheduled event only recycle it: its packet goes
// elsewhere or nowhere.
func (tr *transit) void() {
	tr.release()
	tr.pkt, tr.dst, tr.gone = nil, nil, true
}

// release gives back the inbound count tr's event holds, if any.
func (tr *transit) release() {
	if tr.into != nil {
		tr.into.inbound--
		tr.into = nil
	}
}

// recycle returns a transit whose delivery has run, or been replayed,
// to the free list. Caller holds the lock.
func (q *Queue) recycle(tr *transit) {
	tr.pkt, tr.dst, tr.gone = nil, nil, false
	q.free, tr.next = tr, q.free
}

// grow puts a slab of fresh transits on the free list, as many as the
// queue has made so far, at least 8 and at most 256: seven slab
// allocations cover a backlog of 512 packets, and one more each 256
// after that. Each transit's bound deliver is one allocation more,
// made when it is first scheduled. Caller holds the lock.
func (q *Queue) grow() {
	slab := make([]transit, min(max(q.made, 8), 256))
	q.made += len(slab)
	for i := range slab {
		tr := &slab[i]
		tr.q, tr.next, q.free = q, q.free, tr
	}
}

// deliver is a transit's clock event. It settles the queue up to the
// transit's departure: everything before its own instant and then,
// when the delivery falls on the finish itself — a hop without latency
// — the events at that instant ordered before the departure, which is
// at the head of the line by then: the deliveries of one instant fire
// in admission order. It recycles the transit and hands the packet on
// if the departure kept it. The queue's lane hands the deliveries on in
// admission order on either clock, none before its instant.
func (tr *transit) deliver() {
	q := tr.q
	q.lock()
	if !tr.gone {
		q.departTo(tr, q.clk.NowNanos())
	}
	pkt, dst := tr.pkt, tr.dst
	tr.release()
	q.recycle(tr)
	q.unlock()
	if pkt != nil {
		dst.Deliver(pkt)
	}
}

// departTo settles the queue up to tr's departure, for its delivery at
// instant until (see deliver). Caller holds the lock.
func (q *Queue) departTo(tr *transit, until int64) {
	if !tr.gone {
		q.settle(until, 0)
		if !tr.gone {
			q.settle(until, q.headOrder)
		}
	}
}

// discard hands a dropped flow packet to the drop hook, or back to the
// envelope pool when none is installed.
func discard(hook func(*nicsim.Packet, DropReason, nicsim.Deliverer), pkt *nicsim.Packet, reason DropReason, dst nicsim.Deliverer) {
	if hook != nil {
		hook(pkt, reason, dst)
	} else {
		nicsim.ReleasePacket(pkt)
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

// settle replays the queue up to (until, last): every arrival of a
// running generator, and every departure of the entry at the head of
// the line, whose instant is before until, or at it with an order
// number (below) not above last, and every arrival admitted ahead
// whose instant is before until (see arriveAhead). Each replayed
// packet takes the tail-drop test, ECN mark, loss draw, counters and
// probes of its instant. The caller holds the lock.
//
// Replayed events run in the order their clock events would have: by
// instant, then — like the engine — by when they would have been
// scheduled. An arrival's event was scheduled at the arrival before
// it, a departure's when its entry started transmitting; the order
// counter stamps each as settle (or an admission to an idle line) gets
// there. An admission, setter or read settles only up to before its
// instant (last 0): it runs on an event scheduled long before — an
// actor's wake, a propagation delay, a dynamics schedule — or after
// the engine stopped. So does a delivery, except on a hop without
// latency, where it falls on its packet's own departure (see deliver).
func (q *Queue) settle(until int64, last uint64) {
	var t tally
	for {
		var g *TrafficGen
		for _, c := range q.gens {
			if g == nil || c.before(g.next, g.order) {
				g = c
			}
		}
		if q.ahead > 0 {
			// The next ahead arrival (see arriveAhead) runs before a
			// departure at its own instant, as an admission settles
			// only up to before its instant; no generator runs beside
			// it.
			e := q.fifo.at(q.fifo.n - q.ahead)
			if q.fifo.n > q.ahead {
				if h := q.fifo.front(); h.fin < e.arr && due(h.fin, q.headOrder, until, last) {
					q.departHead(&t)
					continue
				}
			}
			if e.arr >= until {
				break
			}
			q.arriveAhead(e, &t)
			continue
		}
		if q.fifo.n > 0 {
			h := q.fifo.front()
			if due(h.fin, q.headOrder, until, last) && (g == nil || !g.before(h.fin, q.headOrder)) {
				q.departHead(&t)
				continue
			}
		}
		if g == nil || !due(g.next, g.order, until, last) {
			break
		}
		q.arriveBackground(g.next, g.size, &t)
		g.sent++
		g.next, g.order = g.next+int64(g.gap()), q.stamp()
	}
	if t.enqueued != 0 {
		q.Enqueued.Add(t.enqueued)
	}
	if t.delivered != 0 {
		q.Delivered.Add(t.delivered)
	}
	if t.marked != 0 {
		q.Marked.Add(t.marked)
	}
}

// due reports whether the event (at, order) comes no later than
// (until, last).
func due(at int64, order uint64, until int64, last uint64) bool {
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
	if q.fifo.n > q.ahead {
		q.headOrder = q.stamp()
	}
}

// catchUp settles the queue up to, not including, the current instant:
// the first step of every admission, setter and read (see settle). On
// an empty queue no generator feeds there is nothing to settle, and it
// costs two loads.
func (q *Queue) catchUp() {
	if q.fifo.n > 0 || len(q.gens) > 0 {
		q.settleBefore()
	}
}

// settleBefore is catchUp's slow path, out of line so catchUp inlines.
func (q *Queue) settleBefore() { q.settle(q.clk.NowNanos(), 0) }

// tally batches the counts of one settle call, so a replay pays at most
// one atomic add per counter instead of one per packet, and none for a
// count that stayed zero.
type tally struct{ enqueued, delivered, marked uint64 }

// arriveBackground offers one background packet of size wire bytes to
// the buffer at instant at.
func (q *Queue) arriveBackground(at int64, size int, t *tally) {
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
	if q.sink != nil {
		q.bgProbe(at, telemetry.EvEnqueue, int64(q.used), 0)
	}
	if m := q.cfg.MarkThresholdBytes; m > 0 && q.used >= m {
		t.marked++
		q.bgProbe(at, telemetry.EvECNMark, int64(q.used), 0)
	}
}

// departHead ends the entry at the head of the line at its finish
// instant: it leaves the buffer and faces the wire loss process, or
// fails closed while the link is down. A flow packet that survives is
// left to its transit's delivery; one that is dropped goes to the drop
// hook now.
func (q *Queue) departHead(t *tally) {
	head := q.fifo.pop()
	q.started()
	q.used -= head.size
	if q.cut > 0 {
		q.cut--
		q.cutBytes -= head.size
	}
	dropped := !q.down && q.cfg.Loss != nil && q.cfg.Loss.Drop(seeded(&q.rng, q.cfg.Seed))
	if q.sink != nil {
		q.bgProbe(head.fin, telemetry.EvDepart, int64(q.used), 0)
	}
	tr := head.tr
	if tr != nil {
		tr.gone = true
	}
	reason := channelLoss
	switch {
	case q.down:
		reason = linkDown
	case !dropped:
		t.delivered++
		return
	}
	q.bgProbe(head.fin, q.count(reason), int64(q.used), int64(head.size))
	if tr != nil {
		discard(q.onDrop, tr.pkt, reason, tr.dst)
		tr.pkt, tr.dst = nil, nil
	}
}

// bgProbe emits one event stamped at instant at on behalf of no actor:
// a background packet's, or a departure's that settle replays, even
// when a flow's admission or delivery settles it. It is too big to
// inline, so the probes every packet passes test the sink first.
func (q *Queue) bgProbe(at int64, kind telemetry.EventKind, a0, a1 int64) {
	if q.sink == nil {
		return
	}
	q.sink.BackgroundEvent(at, kind, q.track, a0, a1, 0, 0)
}
