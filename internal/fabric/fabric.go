// Package fabric is the in-process wire connecting simulated NIC
// devices. Each direction of a link applies an impairment pipeline —
// i.i.d. loss, latency, optional bandwidth serialization — before
// delivering packets to the peer device, standing in for the long-haul
// ISP channel of §2.1. Faults on named packets are scripted, not drawn:
// an Interceptor drops the Nth packet, duplicates it, or holds it for a
// later ReleaseHeld, which is how tests exercise SDR's late-packet
// protection (§3.3).
//
// All timed behaviour goes through a clock.Clock: each direction's
// delayed deliveries ride one event lane of it, which hands them on in
// send order on either clock. With the default real clock they are due
// on the wall clock; with a clock.Virtual they become discrete events on
// the virtual timeline, so WAN-latency scenarios run at simulation speed
// and a fixed seed reproduces the identical delivery trace.
package fabric

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/nicsim"
)

// Verdict is an interceptor's decision about one packet.
type Verdict int

const (
	// Pass lets the packet continue through the impairment pipeline.
	Pass Verdict = iota
	// Drop discards the packet.
	Drop
	// Hold parks the packet until ReleaseHeld is called — the "late
	// packet" generator.
	Hold
	// Duplicate sends the packet and a deep copy of it, each through
	// the rest of the pipeline as its own packet: its own wire slot and
	// its own loss draw.
	Duplicate
)

// Interceptor inspects each packet before the loss, latency and
// serialization stages. It may rewrite a UD datagram's payload in
// place to model corruption (the datagram owns its bytes; a Duplicate
// copies them after the rewrite). A UC data packet's payload aliases
// the sender's buffer, so rewriting it corrupts the source.
type Interceptor func(pkt *nicsim.Packet) Verdict

// Config describes one direction of a link.
type Config struct {
	// Latency is the one-way propagation delay (0 = synchronous
	// delivery in the caller's goroutine — the fast path used by the
	// throughput experiments).
	Latency time.Duration
	// BandwidthBps, when positive, serializes packets onto the wire at
	// this line rate: a packet's delivery is delayed by queueing behind
	// earlier packets plus its own transmission time, in addition to
	// Latency. Zero keeps the wire infinitely fast (the seed
	// behaviour).
	BandwidthBps float64
	// DropProb drops packets i.i.d.
	DropProb float64
	// Seed makes the loss draws reproducible.
	Seed int64
	// Clock supplies delivery timing; nil uses the shared real clock.
	Clock clock.Clock
}

// Direction is one half of a link; it implements nicsim.Wire.
type Direction struct {
	// params is the per-lease parameterization. Send loads it once per
	// packet; Reconfigure publishes a fresh one, so a straggler of the
	// previous lease (a late re-ACK still running on a free-running
	// worker of a real-clock deployment) sends under the old or the new
	// parameters but never reads a half-written set.
	params atomic.Pointer[params]
	rmu    sync.Mutex
	icpt   atomic.Pointer[Interceptor]

	// rng is the impairment draw stream. It is seeded lazily: seeded
	// says whether rng already runs on the published Config.Seed.
	// Seeding a math/rand source costs ~12 µs and 5 KB, and most
	// directions of a pooled deployment (every netem flow's, whose
	// impairments live in the shared queues) never draw, so construction
	// and Reconfigure only mark the stream stale and the first Send that
	// draws pays for it — the drawn sequence is the one an eagerly
	// seeded generator would produce.
	rng    *rand.Rand
	seeded bool

	// freeAtNanos is when the serializing wire next becomes idle, in
	// the clock's NowNanos domain (only used when BandwidthBps > 0).
	// The rng fields and freeAtNanos are guarded by rmu on a real clock
	// and by the scheduler baton on a virtual one (params.serial).
	freeAtNanos int64

	heldMu sync.Mutex
	held   []*nicsim.Packet

	// pool recycles the clocked-delivery envelopes so the per-packet
	// path allocates nothing.
	pool deliveryPool

	// Tx counts packets offered to the wire, Dropped the ones lost to
	// a Drop verdict or a loss draw.
	Tx      atomic.Uint64
	Dropped atomic.Uint64
}

// params is one immutable parameterization of a Direction.
type params struct {
	cfg Config
	dst nicsim.Deliverer
	clk clock.Clock
	// serial: clk is virtual, so every Send runs under the scheduler
	// baton (see clock.Virtual, "The baton is the lock") and rmu is not
	// taken.
	serial bool
}

func newParams(dst nicsim.Deliverer, cfg Config) *params {
	clk := clock.Or(cfg.Clock)
	return &params{cfg: cfg, dst: dst, clk: clk, serial: clk.IsVirtual()}
}

// NewDirectionTo builds a direction toward an arbitrary delivery stage
// — a device, or a forwarding hop such as a netem queue port — so the
// impairment pipeline composes with multi-hop topologies.
func NewDirectionTo(dst nicsim.Deliverer, cfg Config) *Direction {
	d := &Direction{}
	d.params.Store(newParams(dst, cfg))
	return d
}

// Reconfigure re-parameterizes an idle direction in place for a new
// lease: destination, impairments, clock and rng stream come from dst
// and cfg, the serialization booking, held packets and counters reset,
// and any interceptor is cleared. A lease that repeats the previous
// one's destination and config — flow churn on a pooled deployment —
// keeps the published parameters and allocates nothing. Only call
// between leases; a straggling control packet of the previous lease
// may still be in Send on a real clock, which is why the parameters
// are published whole and the rng stream is restarted under rmu.
func (d *Direction) Reconfigure(dst nicsim.Deliverer, cfg Config) {
	d.rmu.Lock()
	if p := d.params.Load(); p.dst != dst || p.cfg != cfg {
		d.params.Store(newParams(dst, cfg))
	}
	d.seeded = false
	d.freeAtNanos = 0
	d.rmu.Unlock()
	d.heldMu.Lock()
	d.held = nil
	d.heldMu.Unlock()
	d.icpt.Store(nil)
	d.Tx.Store(0)
	d.Dropped.Store(0)
}

// SetInterceptor installs (or clears, with nil) the packet hook.
func (d *Direction) SetInterceptor(i Interceptor) {
	if i == nil {
		d.icpt.Store(nil)
		return
	}
	d.icpt.Store(&i)
}

// Send implements nicsim.Wire.
func (d *Direction) Send(pkt *nicsim.Packet) {
	d.Tx.Add(1)
	if ip := d.icpt.Load(); ip != nil {
		switch (*ip)(pkt) {
		case Drop:
			d.Dropped.Add(1)
			nicsim.ReleasePacket(pkt)
			return
		case Hold:
			d.heldMu.Lock()
			d.held = append(d.held, pkt.Clone())
			d.heldMu.Unlock()
			nicsim.ReleasePacket(pkt)
			return
		case Duplicate:
			// Clone before the first transmit: at zero delay it delivers
			// synchronously and recycles a pooled packet.
			dup := pkt.Clone()
			d.transmit(pkt)
			pkt = dup
		}
	}
	d.transmit(pkt)
}

// transmit runs pkt through the loss, serialization and latency stages.
func (d *Direction) transmit(pkt *nicsim.Packet) {
	p := d.params.Load()
	cfg := &p.cfg
	var serDelay time.Duration
	if cfg.DropProb > 0 || cfg.BandwidthBps > 0 {
		if !p.serial {
			d.rmu.Lock()
		}
		if cfg.BandwidthBps > 0 {
			// The sender uplink serializes every offered packet —
			// including ones the downstream ISP channel will drop — so
			// wire time is booked before the loss draw.
			// A configuration boundary: the line rate becomes a time.
			bits := float64(len(pkt.Payload)+nicsim.HeaderBytes) * 8
			tx := time.Duration(bits / cfg.BandwidthBps * float64(time.Second))
			serDelay = d.occupyLocked(p.clk, tx)
		}
		dropped := cfg.DropProb > 0 && d.drawsLocked().Float64() < cfg.DropProb
		if !p.serial {
			d.rmu.Unlock()
		}
		if dropped {
			d.Dropped.Add(1)
			nicsim.ReleasePacket(pkt)
			return
		}
	}
	d.pool.deliverAfter(p.clk, cfg.Latency+serDelay, p.dst, pkt)
}

// drawsLocked returns the draw stream, first putting it on the
// published seed if construction or a Reconfigure left it stale.
// Caller holds rmu (or the baton), under which Reconfigure publishes
// and marks together — so the seed read here is the lease's, even in a
// straggler Send that loaded the previous lease's params.
func (d *Direction) drawsLocked() *rand.Rand {
	if !d.seeded {
		seed := d.params.Load().cfg.Seed
		if d.rng == nil {
			d.rng = rand.New(rand.NewSource(seed))
		} else {
			d.rng.Seed(seed)
		}
		d.seeded = true
	}
	return d.rng
}

// occupyLocked books tx of wire time starting when the link is next
// free and returns the queueing + transmission delay experienced
// before propagation starts. Caller holds rmu (or the baton).
func (d *Direction) occupyLocked(clk clock.Clock, tx time.Duration) time.Duration {
	now := clk.NowNanos()
	d.freeAtNanos = max(d.freeAtNanos, now) + int64(tx)
	return time.Duration(d.freeAtNanos - now)
}

// deliveryPool schedules fire-and-forget clocked packet deliveries
// through pooled envelopes whose run closures are bound once at
// allocation: scheduling a delivery allocates neither a closure nor a
// Timer — per-packet wire latency is pure lane traffic. The zero value
// is ready to use; every Direction embeds one. (A netem Queue schedules
// its own deliveries: each packet's is fixed when it is admitted.)
//
// A direction's deliveries fire in nondecreasing time order (fixed
// latency plus monotone serialization booking), so they ride one event
// lane of the clock (Clock.RunAtLane), which hands them on in that
// order on either clock: an O(1) engine lane instead of the event heap
// on a virtual clock, one timer per lane on a real one. The pool owns
// the lane, which binds to whichever clock a delivery arrives with (see
// clock.Lane). A delivery that would run earlier than the lane's last
// one — a direction re-leased with a shorter latency — falls back to
// the heap on a virtual clock and waits its turn on a real one.
//
// The pool has no constructor — its clock arrives with every call — so
// it decides how to guard its state from that clock: on a virtual clock
// every deliverAfter and every delivery runs under the scheduler baton
// (see clock.Virtual, "The baton is the lock") and mu is never taken;
// on a real clock senders race the lane's drain and mu guards the free
// list and the lane.
type deliveryPool struct {
	mu   sync.Mutex
	free *delivery
	lane clock.Lane
}

// deliverAfter hands pkt to dst after delay on clk (immediately, in
// the caller's goroutine, when delay <= 0): at NowNanos plus delay, an
// instant that on a real clock is read and pushed under mu, so
// concurrent senders push their instants in order.
func (p *deliveryPool) deliverAfter(clk clock.Clock, delay time.Duration, dst nicsim.Deliverer, pkt *nicsim.Packet) {
	if delay <= 0 {
		dst.Deliver(pkt)
		return
	}
	serial := clk.IsVirtual()
	if !serial {
		p.mu.Lock()
	}
	env := p.free
	if env != nil {
		p.free = env.next
		env.next = nil
	} else {
		env = &delivery{pool: p}
		env.run = env.doRun
	}
	env.dst, env.pkt, env.serial = dst, pkt, serial
	clk.RunAtLane(&p.lane, clk.NowNanos()+int64(delay), env.run)
	if !serial {
		p.mu.Unlock()
	}
}

// delivery is one pooled in-flight envelope.
type delivery struct {
	pool   *deliveryPool
	dst    nicsim.Deliverer
	pkt    *nicsim.Packet
	run    func()    // == doRun, bound once
	next   *delivery // free-list link
	serial bool      // scheduled on a virtual clock: recycle without mu
}

// doRun recycles the envelope before delivering its packet: the
// delivery may synchronously trigger a response send through the same
// pool, which can then reuse the slot.
func (env *delivery) doRun() {
	p := env.pool
	dst, pkt := env.dst, env.pkt
	env.dst, env.pkt = nil, nil
	if !env.serial {
		p.mu.Lock()
	}
	env.next, p.free = p.free, env
	if !env.serial {
		p.mu.Unlock()
	}
	dst.Deliver(pkt)
}

// ReleaseHeld delivers every held packet immediately (late arrival)
// and returns how many were released.
func (d *Direction) ReleaseHeld() int {
	d.heldMu.Lock()
	held := d.held
	d.held = nil
	d.heldMu.Unlock()
	dst := d.params.Load().dst
	for _, pkt := range held {
		dst.Deliver(pkt)
	}
	return len(held)
}

// Link is a full-duplex connection between two devices.
type Link struct {
	// AB carries packets from A's QPs to device B; BA the reverse.
	AB, BA *Direction
}

// NewLink wires device a to device b with per-direction configs.
func NewLink(a, b *nicsim.Device, ab, ba Config) *Link {
	return &Link{AB: NewDirectionTo(b, ab), BA: NewDirectionTo(a, ba)}
}

// OOB is the reliable, ordered out-of-band channel applications use
// for bootstrap (QP info exchange, CTS): the role TCP plays for real
// RDMA deployments. Delivery honours the link latency but never drops,
// and — unlike the data fabric — is strictly FIFO per direction on
// every clock backend: messages carry their enqueue order and a single
// dispatcher drains them in that order, so concurrent timer callbacks
// can never reorder a channel documented as "reliable, ordered" (the
// old time.AfterFunc-per-message scheme could).
type OOB struct {
	clk     clock.Clock
	latency time.Duration
	mu      sync.Mutex
	a, b    oobEnd
}

// oobEnd is one delivery direction's state.
type oobEnd struct {
	handler func([]byte)
	// pump is the bound delivery-timer callback for this end (created
	// once in NewOOB so arming a timer never allocates a closure).
	pump func()
	// backlog holds messages whose latency elapsed before a handler
	// registered.
	backlog [][]byte
	// queue[qhead:] holds in-flight messages in send (= sequence) order;
	// a drained queue rewinds to the front of its storage.
	queue []oobPending
	qhead int
	// timerArmed: a delivery timer for queue[0] is pending.
	timerArmed bool
	// dispatching: a drain loop is live; it re-checks the queue before
	// exiting, so nobody else may start a second (ordering!).
	dispatching bool
}

type oobPending struct {
	due time.Time
	msg []byte
}

// NewOOB creates an out-of-band channel with the given one-way latency
// on the given clock (nil = shared real clock).
func NewOOB(clk clock.Clock, latency time.Duration) *OOB {
	o := &OOB{clk: clock.Or(clk), latency: latency}
	o.a.pump = func() { o.pump(&o.a) }
	o.b.pump = func() { o.pump(&o.b) }
	return o
}

// Reset re-parameterizes an idle OOB channel for a new lease: clock
// and latency are replaced, handlers, backlogs and queues dropped. The
// bound pump callbacks and the queues' storage survive, so a reset
// channel still sends and arms timers without allocating. Only call
// between leases, with no messages in flight.
func (o *OOB) Reset(clk clock.Clock, latency time.Duration) {
	o.mu.Lock()
	o.clk = clock.Or(clk)
	o.latency = latency
	for _, e := range [...]*oobEnd{&o.a, &o.b} {
		e.handler = nil
		clear(e.backlog)
		e.backlog = e.backlog[:0]
		clear(e.queue)
		e.queue, e.qhead = e.queue[:0], 0
		e.timerArmed = false
		e.dispatching = false
	}
	o.mu.Unlock()
}

// HandleA registers the receive callback for endpoint A and flushes
// any queued messages to it.
func (o *OOB) HandleA(fn func([]byte)) { o.setHandler(&o.a, fn) }

// HandleB registers the receive callback for endpoint B.
func (o *OOB) HandleB(fn func([]byte)) { o.setHandler(&o.b, fn) }

func (o *OOB) setHandler(e *oobEnd, fn func([]byte)) {
	o.mu.Lock()
	e.handler = fn
	// Backlogged messages flush through the same single-flight drain
	// as timed deliveries, so a message already due cannot overtake
	// one that arrived before the handler registered.
	o.drainLocked(e)
	o.mu.Unlock()
}

// SendToB transmits from A to B reliably.
func (o *OOB) SendToB(msg []byte) { o.send(&o.b, msg) }

// SendToA transmits from B to A reliably.
func (o *OOB) SendToA(msg []byte) { o.send(&o.a, msg) }

func (o *OOB) send(e *oobEnd, msg []byte) {
	msg = append([]byte(nil), msg...)
	o.mu.Lock()
	e.queue = append(e.queue, oobPending{due: o.clk.Now().Add(o.latency), msg: msg})
	if o.latency <= 0 {
		// Zero-latency fast path: the message is already due, deliver
		// it in the caller's goroutine (through the same drain, so it
		// cannot overtake anything still pending).
		o.drainLocked(e)
	} else if !e.timerArmed && !e.dispatching {
		e.timerArmed = true
		o.clk.At(o.clk.NowNanos()+int64(o.latency), e.pump)
	}
	o.mu.Unlock()
}

// pump is the delivery timer callback.
func (o *OOB) pump(e *oobEnd) {
	o.mu.Lock()
	e.timerArmed = false
	o.drainLocked(e)
	o.mu.Unlock()
}

// drainLocked delivers, in sequence order, every backlogged message
// (once a handler exists) and every due queued message of one
// direction. The dispatching flag makes the drain single-flight:
// callers that find a drain live return immediately — the live drain
// re-checks handler, backlog and queue on every iteration, so it picks
// their work up in order. That is what makes the channel strictly FIFO
// per direction even when timer callbacks fire concurrently on the
// real clock. Caller holds o.mu; the lock is released around handler
// invocations (handlers send packets and may call back into the OOB).
func (o *OOB) drainLocked(e *oobEnd) {
	if e.dispatching {
		return
	}
	e.dispatching = true
	for {
		var msg []byte
		switch {
		case len(e.backlog) > 0 && e.handler != nil:
			msg = e.backlog[0]
			e.backlog = e.backlog[1:]
		case e.qhead < len(e.queue) && !e.queue[e.qhead].due.After(o.clk.Now()):
			msg = e.queue[e.qhead].msg
			e.queue[e.qhead] = oobPending{}
			if e.qhead++; e.qhead == len(e.queue) {
				e.queue, e.qhead = e.queue[:0], 0
			}
			if e.handler == nil {
				e.backlog = append(e.backlog, msg)
				continue
			}
		default:
			e.dispatching = false
			if e.qhead < len(e.queue) && !e.timerArmed {
				e.timerArmed = true
				delay := e.queue[e.qhead].due.Sub(o.clk.Now())
				if delay < time.Nanosecond {
					delay = time.Nanosecond
				}
				o.clk.At(o.clk.NowNanos()+int64(delay), e.pump)
			}
			return
		}
		fn := e.handler
		o.mu.Unlock()
		fn(msg)
		o.mu.Lock()
	}
}
