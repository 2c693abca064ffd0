// Package clock abstracts time for the functional SDR stack. Every
// layer that used to touch the wall clock directly — the fabric's
// delayed deliveries, the RC QP's retransmission timeout, the
// reliability layers' poll and RTO loops — takes a Clock instead, so the
// same protocol code runs in two modes:
//
//   - Real (NewReal, and the shared Realtime that every Clock left nil
//     defaults to): time.Now, time.Sleep and time.AfterFunc. Examples,
//     cmd/sdr-perftest and the throughput experiments behave exactly as
//     before.
//   - Virtual: a discrete-event clock backed by the internal/simnet
//     engine. Time advances only when every registered actor is
//     blocked in a clock wait, so a 25 ms-RTT WAN transfer completes in
//     however long the CPU needs to process its packets — milliseconds
//     instead of seconds — and the whole run is deterministic: one
//     goroutine executes at a time, in an order fixed by the engine's
//     (time, seq) event order, independent of GOMAXPROCS.
//
// Beyond AfterFunc, the interface carries the one synchronization
// primitive the stack needs to block *on protocol progress* rather than
// on time: an epoch-counted notification. A waiter snapshots Epoch,
// re-checks its condition, then calls WaitNotify(epoch, d); any Notify
// issued after the snapshot wakes it immediately, so the
// check-then-block pattern has no lost-wakeup window. Packet-processing
// backends call Notify when a message completes or a control message
// arrives, which under the virtual clock is what lets completion times
// be exact rather than quantized to a poll interval.
//
// Every capability a layer needs is a method of Clock, and both clocks
// implement all of them on one timeline, integer nanoseconds past the
// Unix epoch: reading it (NowNanos), handle-less one-shot scheduling at
// an instant on it (At) and event lanes (RunAtLane on a Lane its caller
// owns), which run their closures one at a time in schedule order on
// either clock. So protocol code calls the one interface, keeps no
// second path for either clock, and books wire time in integers that
// need no conversion.
package clock

import (
	"sync"
	"time"
)

// Timer is a stoppable, resettable one-shot timer, mirroring the
// *time.Timer AfterFunc contract (including its caveat: Stop/Reset
// report whether the timer was still pending, and a callback already
// running is not interrupted).
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

// Clock is the time source and scheduler abstraction.
//
// A real clock is safe for arbitrary goroutines. On a Virtual clock,
// the blocking operations (Virtual.Sleep, WaitNotify) must be called
// from an actor goroutine (see Join); Now, Notify, AfterFunc and Epoch may
// additionally be called from timer callbacks and, before Join, from the
// goroutine constructing the simulation — and AfterFunc, like every
// other scheduling call, from nowhere else (see Virtual, "The baton is
// the lock").
type Clock interface {
	// Now returns the current time. Virtual clocks report a fixed
	// epoch plus the engine's virtual offset, never the wall clock.
	Now() time.Time
	// Since returns Now().Sub(t).
	Since(t time.Time) time.Duration
	// NowNanos returns the current time as integer nanoseconds past the
	// Unix epoch, without building a time.Time: the one timeline At and
	// RunAtLane schedule on. Serializing wires book wire time on it once
	// per packet, a chain of future event instants is each its
	// predecessor plus a time.Duration, exactly, and telemetry probes
	// stamp events with it, so virtual and real clocks land in one
	// timebase. A real clock counts its monotonic reading since
	// construction on top of the wall time it was built at, so NowNanos
	// never runs backwards there either.
	NowNanos() int64
	// AfterFunc schedules fn to run after d. Under the virtual clock
	// fn executes while all actors are blocked, on the goroutine of the
	// actor that parked last, so it is serialized with every other
	// callback and actor — and must not call runtime.Goexit
	// (t.FailNow): that ends the run with a panic.
	AfterFunc(d time.Duration, fn func()) Timer
	// At schedules fn to run once at instant at, in NowNanos's
	// nanoseconds; an instant already past runs fn as soon as possible.
	// It returns no handle: callers that never Stop or Reset the timer —
	// scripted faults, a generator's last settle, the OOB's pump — use
	// it instead of AfterFunc, and on a Virtual clock it is one pooled
	// engine slot and no Timer object. At(NowNanos()+int64(d), fn) runs
	// fn after d. On a real clock fn never runs before at.
	At(at int64, fn func())
	// RunAtLane is At through the lane l, which binds to this clock on
	// first use (see Lane). On both clocks the closures of one lane
	// never overlap, and closures scheduled in nondecreasing time order
	// run in that order — a wire direction delivering back-to-back
	// packets, a netem queue delivering each packet at its finish plus
	// the propagation delay. On a Virtual clock a lane push is an O(1)
	// ring push instead of an O(log n) heap sift, the dominant engine
	// cost at line rate, and a push that would run backwards in time
	// falls back to the heap. A real clock keeps each lane's closures in
	// one FIFO behind one timer (see wallLane), so a push with an
	// earlier instant runs behind those already queued. Calls on one
	// Lane must not overlap: its owner serializes them, under its own
	// lock on a real clock.
	RunAtLane(l *Lane, at int64, fn func())
	// spawn starts fn on this clock: a plain goroutine on a real
	// clock, a registered actor under Virtual (Virtual.run returns once
	// every actor has finished).
	spawn(fn func())
	// Epoch snapshots the notification counter. Take the snapshot
	// BEFORE checking the condition you are about to wait on.
	Epoch() uint64
	// WaitNotify blocks until Notify has been called after the epoch
	// snapshot was taken, or until d elapses (d < 0 waits without a
	// time bound). It reports whether a notification — rather than the
	// timeout — ended the wait.
	WaitNotify(epoch uint64, d time.Duration) bool
	// Notify wakes every waiter blocked in WaitNotify. It is cheap,
	// broadcast ("something changed — re-check"), and carries no data.
	Notify()
	// IsVirtual reports whether this is a discrete-event clock. The
	// packet backends use it to switch completion processing to
	// synchronous (in-line) mode, since a virtual deployment must not
	// run free-running poller goroutines.
	IsVirtual() bool
}

// wall implements Clock on the wall clock; NewReal builds one.
type wall struct {
	mu   sync.Mutex
	gen  uint64
	ch   chan struct{} // closed and rotated on every Notify
	base time.Time     // construction time, with its monotonic reading
	// baseNs is base in Unix nanoseconds, the origin of NowNanos.
	baseNs int64
}

// Lane is one owner's event lane, for Clock.RunAtLane. The owner — a
// wire direction, a netem queue, a virtual clock's actor — embeds it
// (the zero Lane is ready) and passes its address with every call, and
// the lane binds to the clock it is used on:
//
//   - on a real clock, to a wallLane the Lane holds, so the lane is
//     collected along with its owner;
//   - on a Virtual, to an engine lane no other Lane holds in the clock's
//     current run. It rebinds after a re-home to another clock or a
//     Reset, and Reset hands engine lanes out again from 0, so a clock's
//     engine lanes are bounded by the owners of one run.
type Lane struct {
	w   *wallLane // real-clock binding
	v   *Virtual  // Virtual binding: the clock,
	run uint64    // its run (Reset count) the binding belongs to,
	id  int32     // and the engine lane
}

// NewReal returns a wall-clock Clock with its own notification domain.
func NewReal() Clock {
	now := time.Now()
	return &wall{ch: make(chan struct{}), base: now, baseNs: now.UnixNano()}
}

// realtime is the shared default instance. A single shared instance
// matters: components of one deployment default independently, and a
// Notify issued by one (a control-plane dispatcher) must wake waiters
// in another (a reliability sender), so they must resolve to the same
// broadcast domain.
var realtime = NewReal()

// Realtime returns the shared wall-clock Clock that nil Clock fields
// throughout the stack default to.
func Realtime() Clock { return realtime }

// Or returns c, or the shared real clock when c is nil — the
// nil-defaulting rule every layer applies.
func Or(c Clock) Clock {
	if c == nil {
		return realtime
	}
	return c
}

// Now implements Clock.
func (r *wall) Now() time.Time { return time.Now() }

// Since implements Clock.
func (r *wall) Since(t time.Time) time.Duration { return time.Since(t) }

// realTimer adapts *time.Timer.
type realTimer struct{ t *time.Timer }

func (t realTimer) Stop() bool                 { return t.t.Stop() }
func (t realTimer) Reset(d time.Duration) bool { return t.t.Reset(d) }

// AfterFunc implements Clock.
func (r *wall) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{time.AfterFunc(d, fn)}
}

// spawn implements Clock.
func (r *wall) spawn(fn func()) { go fn() }

// NowNanos implements Clock: the Unix time at construction plus the
// monotonic time since.
func (r *wall) NowNanos() int64 { return r.baseNs + int64(time.Since(r.base)) }

// At implements Clock. A timer fires once the monotonic clock has
// advanced by its whole delay, so fn sees NowNanos at or past at.
func (r *wall) At(at int64, fn func()) {
	time.AfterFunc(time.Duration(at-r.NowNanos()), fn)
}

// RunAtLane implements Clock.
func (r *wall) RunAtLane(l *Lane, at int64, fn func()) {
	if l.w == nil || l.w.r != r {
		l.w = &wallLane{r: r}
	}
	l.w.push(at, fn)
}

// wallLane is one event lane of a real clock: a FIFO of closures behind
// one timer, armed for the oldest. The timer's drain runs every closure
// that is due, oldest first and one at a time, then re-arms for the
// next, so the closures of a lane never overlap and run in push order —
// timers that expire together would start their callbacks in no fixed
// order — and a lane costs one timer however many closures it holds.
type wallLane struct {
	r  *wall
	mu sync.Mutex
	// q[head:] are the pending closures, oldest first; a running one
	// stays at the head until it returns. So a lane holding any has its
	// timer armed or its drain running, and either picks up a closure
	// pushed meanwhile.
	q     []laneEvent
	head  int
	timer *time.Timer // runs drain, made by the first arm
}

type laneEvent struct {
	at int64
	fn func()
}

// push appends fn, due at instant at, and arms the timer if the lane
// was empty — the new closure is then its oldest. Full storage whose
// popped prefix is at least as long as the live part slides the live
// part to the front instead of growing, as a simnet lane does, so a
// lane under standing load never reallocates.
func (l *wallLane) push(at int64, fn func()) {
	l.mu.Lock()
	if len(l.q) == cap(l.q) && 2*l.head >= len(l.q) {
		l.q, l.head = l.q[:copy(l.q, l.q[l.head:])], 0
	}
	l.q = append(l.q, laneEvent{at, fn})
	if len(l.q)-l.head == 1 {
		l.arm(at)
	}
	l.mu.Unlock()
}

// arm sets the timer for instant at, as At does. Caller holds mu.
func (l *wallLane) arm(at int64) {
	d := time.Duration(at - l.r.NowNanos())
	if l.timer == nil {
		l.timer = time.AfterFunc(d, l.drain)
	} else {
		l.timer.Reset(d)
	}
}

// drain is the lane's timer callback. It runs the due closures with mu
// released, so a closure may push onto its own lane, then re-arms for
// the oldest closure left. An emptied lane lets its storage go, so an
// idle owner holds no memory sized by its last burst.
func (l *wallLane) drain() {
	l.mu.Lock()
	for l.head < len(l.q) && l.q[l.head].at <= l.r.NowNanos() {
		fn := l.q[l.head].fn
		l.mu.Unlock()
		fn()
		l.mu.Lock()
		l.q[l.head] = laneEvent{}
		l.head++
	}
	if l.head < len(l.q) {
		l.arm(l.q[l.head].at)
	} else {
		l.q, l.head = nil, 0
	}
	l.mu.Unlock()
}

// Epoch implements Clock.
func (r *wall) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// wnTimers recycles the bounded-wait timers of wall.WaitNotify. The
// reliability loops take this path on every poll tick, so per-wait
// timer allocation shows up directly in steady-state allocs/session;
// pooling keeps the hot wait path allocation-free.
var wnTimers sync.Pool

// WaitNotify implements Clock.
func (r *wall) WaitNotify(epoch uint64, d time.Duration) bool {
	r.mu.Lock()
	if r.gen != epoch {
		r.mu.Unlock()
		return true
	}
	ch := r.ch
	r.mu.Unlock()
	if d < 0 {
		<-ch
		return true
	}
	t, _ := wnTimers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(d)
	} else {
		t.Reset(d)
	}
	notified := false
	select {
	case <-ch:
		notified = true
	case <-t.C:
		// The notify may have raced the timeout; report it if so.
		r.mu.Lock()
		notified = r.gen != epoch
		r.mu.Unlock()
	}
	// Since Go 1.23 Stop leaves no fired-but-unread tick in t.C, so the
	// next wait on this pooled timer cannot wake on a stale one.
	t.Stop()
	wnTimers.Put(t)
	return notified
}

// Notify implements Clock.
func (r *wall) Notify() {
	r.mu.Lock()
	r.gen++
	close(r.ch)
	r.ch = make(chan struct{})
	r.mu.Unlock()
}

// IsVirtual implements Clock.
func (r *wall) IsVirtual() bool { return false }
