// Package clock abstracts time for the functional SDR stack. Every
// layer that used to touch the wall clock directly — the fabric's
// delayed deliveries, the RC QP's retransmission timeout, the
// reliability layers' poll/linger loops — takes a Clock instead, so the
// same protocol code runs in two modes:
//
//   - Real (the default everywhere a Clock is left nil): time.Now,
//     time.Sleep and time.AfterFunc. Examples, cmd/sdr-perftest and the
//     throughput experiments behave exactly as before.
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
// Real clocks are safe for arbitrary goroutines. On a Virtual clock,
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
	// AfterFunc schedules fn to run after d. Under the virtual clock
	// fn executes while all actors are blocked, on the goroutine of the
	// actor that parked last, so it is serialized with every other
	// callback and actor — and must not call runtime.Goexit
	// (t.FailNow): that ends the run with a panic.
	AfterFunc(d time.Duration, fn func()) Timer
	// spawn starts fn on this clock: a plain goroutine under Real, a
	// registered actor under Virtual (Virtual.run returns once every
	// actor has finished).
	spawn(fn func())
	// instant returns the current time in seconds on the clock's
	// scheduling timeline (see Instant).
	instant() float64
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

// Real implements Clock on the wall clock. The zero value is NOT
// usable; use NewReal or the shared Realtime instance.
type Real struct {
	mu   sync.Mutex
	gen  uint64
	ch   chan struct{} // closed and rotated on every Notify
	base time.Time     // instant zero of the scheduling timeline
}

// NewReal returns a wall-clock Clock.
func NewReal() *Real { return &Real{ch: make(chan struct{}), base: time.Now()} }

// realtime is the shared default instance. A single shared instance
// matters: components of one deployment default independently, and a
// Notify issued by one (a control-plane dispatcher) must wake waiters
// in another (a reliability sender), so they must resolve to the same
// broadcast domain.
var realtime = NewReal()

// Realtime returns the shared wall-clock Clock that nil Clock fields
// throughout the stack default to.
func Realtime() *Real { return realtime }

// Or returns c, or the shared real clock when c is nil — the
// nil-defaulting rule every layer applies.
func Or(c Clock) Clock {
	if c == nil {
		return realtime
	}
	return c
}

// oneShot is the optional cheap fire-and-forget scheduling interface
// (implemented by Virtual): schedule fn after d, or at an instant, with
// no cancellable handle and no Timer allocation.
type oneShot interface {
	runAfter(d time.Duration, fn func())
	runAt(at float64, fn func())
}

// After schedules fn to run once after d. Callers that never Stop or
// Reset the timer — per-packet deliveries, queue departures — should
// prefer this over AfterFunc: on a Virtual clock it is one pooled
// engine slot (no Timer object per event), on a Real clock it falls
// back to AfterFunc.
func After(c Clock, d time.Duration, fn func()) {
	if o, ok := c.(oneShot); ok {
		o.runAfter(d, fn)
		return
	}
	c.AfterFunc(d, fn)
}

// Instant returns c's current time in seconds on its scheduling
// timeline: a Virtual's engine time, or the time since a Real clock was
// built. Instant plus d.Seconds() is exactly the instant After(c, d, fn)
// schedules fn at, so a caller can work out a chain of future event
// instants, each its predecessor plus a duration, and schedule any of
// them later with At, bit for bit where After would have put it.
func Instant(c Clock) float64 { return c.instant() }

// At schedules fn to run once at instant at on c's timeline (see
// Instant); an instant already past runs fn as soon as possible. Like
// After it returns no handle: on a Virtual clock it is one pooled
// engine slot, on a Real clock an AfterFunc that never fires before at.
func At(c Clock, at float64, fn func()) {
	if o, ok := c.(oneShot); ok {
		o.runAt(at, fn)
		return
	}
	c.AfterFunc(time.Duration((at-c.instant())*float64(time.Second))+1, fn)
}

// NanoClock is the optional integer-time fast path for per-packet
// bookkeeping (implemented by Virtual): NowNanos returns the current
// time as nanoseconds past an arbitrary fixed epoch, skipping the
// wall/monotonic bookkeeping a time.Time construction pays. Serializing
// wires read the clock once per packet to book transmission time, so
// at line rate this arithmetic is hot. Real deliberately does not
// implement it — its time.Time path carries the monotonic reading that
// integer wall nanoseconds would lose.
type NanoClock interface {
	NowNanos() int64
}

// NowNanos returns c's current time in the integer-nanosecond domain:
// the NanoClock fast path when c implements it, Now().UnixNano()
// otherwise. Telemetry probes stamp events through it so virtual and
// real clocks land in one comparable timebase.
func NowNanos(c Clock) int64 {
	if nc, ok := c.(NanoClock); ok {
		return nc.NowNanos()
	}
	return c.Now().UnixNano()
}

// LaneScheduler is the optional monotone FIFO scheduling interface
// (implemented by Virtual): a caller whose one-shot closures fire in
// nondecreasing time order per lane — a wire direction delivering
// back-to-back packets — allocates a lane once and schedules in O(1)
// ring pushes instead of O(log n) heap sifts, the dominant engine cost
// at line rate. Ordering is exact either way: a push that would run
// backwards in time transparently falls back to the heap.
type LaneScheduler interface {
	NewEventLane() int
	RunAfterLane(lane int, d time.Duration, fn func())
}

// Now implements Clock.
func (r *Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (r *Real) Since(t time.Time) time.Duration { return time.Since(t) }

// realTimer adapts *time.Timer.
type realTimer struct{ t *time.Timer }

func (t realTimer) Stop() bool                 { return t.t.Stop() }
func (t realTimer) Reset(d time.Duration) bool { return t.t.Reset(d) }

// AfterFunc implements Clock.
func (r *Real) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{time.AfterFunc(d, fn)}
}

// spawn implements Clock.
func (r *Real) spawn(fn func()) { go fn() }

// instant implements Clock.
func (r *Real) instant() float64 { return time.Since(r.base).Seconds() }

// Epoch implements Clock.
func (r *Real) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// wnTimers recycles the bounded-wait timers of Real.WaitNotify. The
// reliability loops take this path on every poll tick, so per-wait
// timer allocation shows up directly in steady-state allocs/session;
// pooling keeps the hot wait path allocation-free.
var wnTimers sync.Pool

// WaitNotify implements Clock.
func (r *Real) WaitNotify(epoch uint64, d time.Duration) bool {
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
func (r *Real) Notify() {
	r.mu.Lock()
	r.gen++
	close(r.ch)
	r.ch = make(chan struct{})
	r.mu.Unlock()
}

// IsVirtual implements Clock.
func (r *Real) IsVirtual() bool { return false }
