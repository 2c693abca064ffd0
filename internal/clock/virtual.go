package clock

import (
	"fmt"
	"iter"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sdrrdma/internal/simnet"
)

// Virtual is a discrete-event Clock on a simnet engine.
//
// # Execution model
//
// Functions participating in a virtual-time simulation register as
// actors (Join, JoinNamed). Each actor's body runs in a coroutine
// (iter.Pull) that only run, on the goroutine that called Join,
// resumes. Exactly one actor executes at a time, and virtual time
// advances — by firing the next engine event — only when every actor is
// parked in a clock wait (Sleep or WaitNotify). There is no scheduler
// in between: the actor that parks (or finishes) last, finding no other
// actor ready, fires the engine events itself, on its own stack, until
// one of them readies an actor. It keeps the baton when the actor
// readied is itself; otherwise it names that actor next and yields to
// run, which resumes it. Timer callbacks (AfterFunc, fabric deliveries,
// RC retransmissions) thus run on whichever actor's coroutine parked
// last, between actor slices, and are serialized with the actors too.
// run itself never fires an event: it resumes the actor named next (or
// the head of the ready FIFO) until every actor has finished, the
// queue ran dry with every actor blocked, or a callback faulted.
//
// Because the engine fires events in deterministic (time, seq) order
// and ready actors resume in FIFO wake order, an entire simulation —
// packet deliveries, RNG draws, DMA writes, completion times — is a
// pure function of its configuration and seeds: bit-identical across
// runs and GOMAXPROCS values, and free of data races by construction.
//
// # Hot path
//
// The scheduler is built so the dominant operations are allocation
// free after warm-up:
//
//   - Actors live in a slab and are pooled: an actor finishing returns
//     its (links, lane) state to a free list, so a sweep reusing one
//     clock across many cells (see Lanes) registers thousands of actors
//     with a handful of allocations. Their coroutines are pooled too,
//     process-wide: a finished body yields its coroutine back to run,
//     which keeps up to maxIdleCoros idle for the next spawn, so a
//     steady-state spawn allocates nothing and starts no goroutine.
//   - The ready queue and the WaitNotify waiter list are intrusive
//     linked lists threaded through the actor structs — no slice
//     growth, no O(n) waiter-removal scans on timeout.
//   - Wake timers (Sleep deadlines, WaitNotify timeouts) run a wake
//     closure bound once per actor — no per-wait closure — on the
//     actor's own Lane, so the common wait is an O(1) ring push instead
//     of a heap sift.
//   - A parking actor hands the baton to the next ready actor through
//     run: two coroutine switches (to run, then to the actor), with no
//     goroutine wake-up and no OS scheduler in between. With none ready
//     it drives the engine itself, so a wait whose own wake-up comes
//     next (a lone sleeper, a sender pacing itself) costs no switch at
//     all.
//   - An engine event costs no lock at all (next section).
//
// # The baton is the lock
//
// At every instant exactly one goroutine may touch the simulation: the
// baton holder. That is the running actor; or, while every actor is
// parked, the driving actor — the one that parked (or finished) last —
// firing engine events and their callbacks with current nil; or, with
// no run active, the one goroutine that builds the simulation and calls
// run. The baton changes hands only under mu (park, an actor finishing,
// a drive starting or ending; an actor yields to run, and run resumes
// the next one, with mu held), and that lock hand-over is the
// happens-before edge that orders everything the previous holder did
// before everything the next one does — which is what lets go test
// -race check the rule.
//
// So state that only baton holders touch needs no lock of its own, and
// none is taken:
//
//   - the engine: At, RunAtLane, AfterFunc and a Timer's
//     Stop and Reset schedule and cancel without mu, and a drive fires
//     events back to back without it, re-taking mu only when an event
//     made an actor runnable (a wake-up, a Notify, a spawn) or the queue
//     ran dry;
//   - the AfterFunc timer pool;
//   - everything the stack builds on a virtual clock and drives from
//     actors and callbacks: a netem.Queue — with the arrival schedules
//     of the netem.TrafficGens feeding it, which any baton holder that
//     reads or changes the queue settles, on its own goroutine — a
//     fabric.Direction and its delivery pool, a serial nicsim.Device, a
//     synchronous dpa.Pool, a CQ's serial sink. Each decides once, from
//     IsVirtual, where its clock is bound, to leave its own mutex
//     alone — the first three in their constructors; for the device,
//     the DPA pool and the channel CQs core.NewContext decides, the one
//     in-tree caller of Device.SetSerial and Pool.SetSynchronous (they
//     stay methods only because benchmark/drives.go sets them for its
//     isolated layer drives). The decision is never revisited: a pooled deployment is
//     re-homed between clocks of one kind only, and core.Context.SetClock
//     refuses the other with core.ErrClockKind.
//
// These calls are therefore legal only from the baton holder. A plain
// goroutine that wants to schedule on a running Virtual must become an
// actor first.
//
// What mu still guards is the hand-over state itself — the actor table,
// the ready FIFO, the WaitNotify waiter list, current, next, running,
// fault, switches, the event log — and with it the calls that
// are safe from any goroutine while run is active: spawn and
// spawnNamed, CurrentActorName, SetEventLog, idle. Now, NowNanos,
// Elapsed and Epoch are atomic reads and safe anywhere. Sleep,
// WaitNotify and Notify are baton-holder calls that take mu because
// they hand the baton over or edit the lists above.
//
// # Time
//
// The clock's timeline is NowNanos's: integer nanoseconds, an offset n
// past the fixed base. The simnet engine, shared with the float-valued
// protocol simulators, keys its slots by float64 seconds, so Virtual is
// the one place that converts: it hands the engine float64(n)/1e9 for
// every instant it schedules (key) and reads the engine's time back by
// rounding to the nearest nanosecond (offset). Both conversions are
// correctly rounded, so for n below 2⁵² ns (about 52 virtual days) the
// round trip returns n exactly, the key of a later instant is never
// smaller than an earlier one's, and instants 1 ns apart keep distinct
// keys: the engine's (time, seq) order is the integer timeline's, and
// no caller ever sees a float.
//
// # Reuse
//
// reset rewinds a finished clock (no live actors) to its initial
// state — virtual time zero, notification epoch zero, no pending
// events, no engine lane bound (see Lane) — while keeping the engine
// slab, the actor pool and the timer pool, so one Virtual can run an
// entire sweep of independent cells without reallocating its machinery
// or scanning lanes that earlier cells bound. Outstanding Timer handles
// are invalidated by reset and must not be used afterwards.
//
// # Deadlock
//
// If every actor is blocked without a time bound and no engine event
// is pending, no wakeup can ever arrive; run panics with a diagnostic
// — including per-actor labels (see spawnNamed) and the pending-timer
// count — rather than hanging, turning a protocol bug into a test
// failure. A callback that panics on a driving actor's coroutine
// surfaces the same way, from run on the Join goroutine with its own
// value; one that calls runtime.Goexit (t.FailNow) makes run panic with
// a diagnostic saying so. An actor body's own panic or runtime.Goexit
// comes out of run as iter.Pull passes it on: the same value panicked
// again, or Goexit, on the Join goroutine. A faulted coroutine is
// abandoned, never pooled.
type Virtual struct {
	mu       sync.Mutex
	eng      *simnet.Engine
	base     time.Time
	baseNs   int64         // base in Unix nanoseconds
	gen      atomic.Uint64 // notification epoch
	actors   int           // registered and not yet finished
	current  *actor        // actor holding the baton (nil: a driver or run has it)
	next     *actor        // actor a yielding coroutine hands the baton to
	running  bool
	fault    any // what a driving actor hands run to re-raise
	switches int // baton grants that resumed another coroutine (tests read it)
	// runnable is raised whenever an actor joins the ready FIFO. The
	// driving actor polls it between engine events instead of taking
	// mu to look at the FIFO; it is atomic because spawn may ready an
	// actor from a goroutine that does not hold the baton.
	runnable atomic.Bool

	// runs counts resets, and nextLane is the engine lane this run
	// hands out next (see Lane); baton holders bind lanes, reset rewinds
	// them.
	runs     uint64
	nextLane int32

	// ready is an intrusive FIFO of runnable actors.
	readyHead, readyTail *actor
	// waiters is an intrusive doubly-linked FIFO of actors parked in
	// WaitNotify (wake on Notify, in registration order).
	waitHead, waitTail *actor

	slab      []*actor // every actor ever registered (index = actor.id)
	freeActor []*actor // finished actors available for reuse

	// eventLog, when set, annotates the all-blocked deadlock
	// diagnostic with each actor's recent telemetry (see SetEventLog).
	eventLog EventLog
}

// EventLog is the flight-recorder view the deadlock diagnostic reads:
// ActorTail renders the named actor's most recent max events ("" when
// none). telemetry.Recorder implements it; the interface lives here so
// clock stays a leaf below the telemetry package.
type EventLog interface {
	ActorTail(actor string, max int) string
}

// SetEventLog attaches (or, with nil, detaches) the flight recorder
// consulted by the deadlock diagnostic. Reset detaches it too, so a
// pooled engine cannot dump a previous cell's events.
func (v *Virtual) SetEventLog(l EventLog) {
	v.mu.Lock()
	v.eventLog = l
	v.mu.Unlock()
}

// CurrentActorName returns the label of the actor holding the baton,
// or "" while engine and timer callbacks run (whichever actor's
// coroutine drives them) or an unnamed actor is running. Telemetry recorders use
// it as their actor-attribution source; it deliberately returns ""
// rather than a synthesized name for unnamed actors so the enabled
// probe path stays allocation free.
func (v *Virtual) CurrentActorName() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if a := v.current; a != nil {
		return a.name
	}
	return ""
}

// actor is one registered actor's scheduling state.
type actor struct {
	id       int32
	lane     Lane   // where its wake timers ride
	wake     func() // readies it; bound once, run by its wake timers
	fn       func() // body, until its coroutine starts it
	co       *coro  // coroutine running the body (nil until first resumed)
	name     string // optional label for deadlock diagnostics
	inUse    bool   // registered and not yet finished
	parked   bool   // inside a clock wait, or not yet started
	queued   bool   // in the ready FIFO
	waiting  bool   // on the WaitNotify waiter list
	notified bool   // wake cause was Notify, not a timeout

	nextReady          *actor // intrusive ready-FIFO link
	nextWait, prevWait *actor // intrusive waiter-list links
}

// NewVirtual creates a virtual clock at a fixed, wall-independent base
// time (so runs are reproducible regardless of when they execute).
func NewVirtual() *Virtual {
	base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	return &Virtual{eng: simnet.New(), base: base, baseNs: base.UnixNano()}
}

// offset is the virtual time consumed since construction (or the last
// Reset), read back from the engine's key (see "Time" above). Engine.Now
// is an atomic read and base is immutable while the clock runs, so the
// hot per-packet timestamping path skips the clock mutex entirely.
func (v *Virtual) offset() time.Duration {
	return time.Duration(math.Round(v.eng.Now() * float64(time.Second)))
}

// key is the engine time of instant at (see "Time" above); an instant
// already past is the engine's now, which is the key of the current
// instant, as every engine time is the key of one.
func (v *Virtual) key(at int64) float64 {
	return max(float64(at-v.baseNs)/float64(time.Second), v.eng.Now())
}

// Now implements Clock: base + virtual offset.
func (v *Virtual) Now() time.Time { return v.base.Add(v.offset()) }

// NowNanos implements Clock: the current virtual time as nanoseconds
// past the Unix epoch, matching Now() exactly.
func (v *Virtual) NowNanos() int64 { return v.baseNs + int64(v.offset()) }

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Elapsed returns the virtual time consumed since construction (or the
// last Reset).
func (v *Virtual) Elapsed() time.Duration { return v.offset() }

// IsVirtual implements Clock.
func (v *Virtual) IsVirtual() bool { return true }

// Epoch implements Clock.
func (v *Virtual) Epoch() uint64 { return v.gen.Load() }

// Notify implements Clock: bumps the epoch and readies every actor
// parked in WaitNotify, in their registration order.
func (v *Virtual) Notify() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.gen.Add(1)
	for a := v.waitHead; a != nil; {
		next := a.nextWait
		a.nextWait, a.prevWait = nil, nil
		a.waiting = false
		a.notified = true
		v.readyLocked(a)
		a = next
	}
	v.waitHead, v.waitTail = nil, nil
}

// readyLocked moves a parked actor to the ready FIFO (idempotent).
func (v *Virtual) readyLocked(a *actor) {
	if !a.parked || a.queued {
		return
	}
	a.queued = true
	v.runnable.Store(true)
	a.nextReady = nil
	if v.readyTail == nil {
		v.readyHead = a
	} else {
		v.readyTail.nextReady = a
	}
	v.readyTail = a
}

// popReadyLocked takes the next runnable actor off the ready FIFO.
func (v *Virtual) popReadyLocked() *actor {
	a := v.readyHead
	if a == nil {
		return nil
	}
	v.readyHead = a.nextReady
	if v.readyHead == nil {
		v.readyTail = nil
	}
	a.nextReady = nil
	a.queued = false
	return a
}

// park blocks the calling actor until the baton comes back to it (see
// handOff). When its own wake-up is the next thing to happen it keeps
// the baton and returns without a switch; otherwise it names the next
// actor and yields to run. v.mu must be held; it is held again on
// return.
func (v *Virtual) park(a *actor) {
	a.parked = true
	v.current = nil
	n := v.handOff(a.co)
	if n == a {
		a.parked = false
		v.current = a
		return
	}
	v.next = n
	a.co.yield(false) // with mu held: run resumes n, and later a, holding it
}

// handOff picks the actor the baton passes to from the coroutine co,
// whose actor is parking or finishing: the head of the ready FIFO.
// When none is ready co first drives the engine until an event readies
// one — unless no actor is left, so that the last one to finish fires
// nothing and pending events stay queued for the next run. nil means
// none is ready even then. v.mu must be held.
func (v *Virtual) handOff(co *coro) *actor {
	if v.readyHead == nil && v.actors > 0 {
		v.drive(co)
	}
	return v.popReadyLocked()
}

// drive fires engine events on co, back to back with mu released and
// current nil, until one makes an actor runnable (its callback woke a
// sleeper, called Notify or spawn, or a goroutine outside the
// simulation spawned) — that actor must run before the next event
// does — or the queue runs dry. A callback that panics or calls
// runtime.Goexit ends the drive: co hands the fault to run, which
// re-raises it on the Join goroutine and never resumes co. v.mu must be
// held; it is held again on return.
func (v *Virtual) drive(co *coro) {
	v.runnable.Store(false)
	v.mu.Unlock()
	ok := false
	defer func() {
		if ok {
			return
		}
		fault := recover()
		if fault == nil {
			fault = "clock: an engine callback called runtime.Goexit (t.FailNow, t.Fatal?) on a driving actor's coroutine; report failures from clock callbacks with t.Error"
		}
		v.mu.Lock()
		v.fault = fault
		co.yield(false)
	}()
	for !v.runnable.Load() && v.eng.Step() {
	}
	ok = true
	v.mu.Lock()
}

// currentActor returns the running actor, panicking when the caller is
// not one: blocking operations from unregistered goroutines would stall
// virtual time forever, so they are rejected loudly.
func (v *Virtual) currentActor(op string) *actor {
	a := v.current
	if a == nil {
		panic("clock: Virtual." + op + " called outside an actor goroutine (start it with clock.Join or clock.JoinNamed)")
	}
	return a
}

// allocActorLocked takes an actor from the pool (or grows the slab,
// binding the new actor's wake closure). The wake closure runs on the
// driving actor's coroutine with v.mu released, and readying the actor
// edits the ready FIFO, so it takes mu.
func (v *Virtual) allocActorLocked(name string) *actor {
	var a *actor
	if n := len(v.freeActor); n > 0 {
		a = v.freeActor[n-1]
		v.freeActor = v.freeActor[:n-1]
	} else {
		a = &actor{id: int32(len(v.slab))}
		a.wake = func() {
			v.mu.Lock()
			v.readyLocked(a)
			v.mu.Unlock()
		}
		v.slab = append(v.slab, a)
	}
	a.name = name
	a.inUse = true
	return a
}

// spawn implements Clock: fn becomes an actor, initially ready. run
// returns once every actor has finished.
func (v *Virtual) spawn(fn func()) { v.spawnNamed("", fn) }

// spawnNamed registers fn as an actor labelled name. The label appears in
// the all-blocked deadlock diagnostic, which is what makes multi-actor
// (and multi-lane) stalls attributable to a protocol role instead of
// an anonymous goroutine.
func (v *Virtual) spawnNamed(name string, fn func()) {
	v.mu.Lock()
	a := v.allocActorLocked(name)
	v.actors++
	a.fn = fn
	a.parked = true // waiting for its first baton grant
	v.readyLocked(a)
	v.mu.Unlock()
}

// finishActor retires a, whose body co ran, and names the actor the
// baton passes to next. It returns with v.mu held, for co to yield.
func (v *Virtual) finishActor(a *actor, co *coro) {
	v.mu.Lock()
	v.actors--
	v.current = nil
	a.inUse, a.name, a.fn, a.co = false, "", nil, nil
	v.freeActor = append(v.freeActor, a)
	v.next = v.handOff(co)
}

// maxIdleCoros bounds the process-wide pool of idle actor coroutines:
// enough for the actors of the Joins that GOMAXPROCS Lanes workers run
// at once, few enough that the goroutines parked in it cost little.
const maxIdleCoros = 32

// idleCoros is the coroutine pool every Virtual shares.
var idleCoros = make(chan *coro, maxIdleCoros)

// coro is a pooled actor coroutine. Each resume by run continues the
// body of actor a on clock v until it parks (yields false), finishes
// (yields true) or faults; a finished body's coroutine waits in the
// pool for the next actor.
type coro struct {
	resume func() (bool, bool)
	stop   func()
	yield  func(bool) bool
	v      *Virtual
	a      *actor
}

// getCoro takes an idle coroutine, or starts one, to run actor a on v.
func getCoro(v *Virtual, a *actor) *coro {
	var c *coro
	select {
	case c = <-idleCoros:
	default:
		c = new(coro)
		c.resume, c.stop = iter.Pull(c.loop)
	}
	c.v, c.a = v, a
	return c
}

// putCoro returns a finished coroutine to the pool, or ends it when the
// pool is full.
func putCoro(c *coro) {
	c.v, c.a = nil, nil
	select {
	case idleCoros <- c:
	default:
		c.stop()
	}
}

// loop is the coroutine's body: one actor per pass, from its first
// grant to its finish.
func (c *coro) loop(yield func(bool) bool) {
	c.yield = yield
	for {
		a := c.a
		c.v.mu.Unlock() // run resumes coroutines holding it
		a.fn()
		c.v.finishActor(a, c)
		if !yield(true) {
			return
		}
	}
}

// run resumes the first ready actor, then whichever actor the last one
// to yield named next (see handOff), until every actor has finished;
// when a drive ran the queue dry with every actor blocked, it panics
// with the all-blocked diagnostic, and when a driving actor hands it a
// callback's fault, it re-raises that on the Join goroutine. Only one
// run may be active at a time; actors may keep spawning more actors
// with spawn while it runs.
func (v *Virtual) run() {
	v.mu.Lock()
	if v.running {
		v.mu.Unlock()
		panic("clock: clock.Join reentered: one Join (or JoinNamed) at a time per Virtual")
	}
	v.running = true
	defer func() { // also when resume passes on a body's panic or Goexit
		v.mu.Lock()
		fault := v.fault
		v.fault, v.running = nil, false
		v.mu.Unlock()
		if fault != nil {
			panic(fault)
		}
	}()
	for v.fault == nil && v.actors > 0 {
		n := v.next
		if n == nil { // the first grant, or an actor spawned from outside after a drive ran dry
			n = v.popReadyLocked()
		}
		if n == nil {
			v.fault = v.deadlockLocked()
			break
		}
		v.next, v.current, n.parked = nil, n, false
		v.switches++
		if n.co == nil {
			n.co = getCoro(v, n)
		}
		co := n.co
		if finished, _ := co.resume(); finished { // mu held both ways
			putCoro(co)
		}
	}
	v.mu.Unlock()
}

// deadlockLocked renders the all-blocked diagnostic: when, how many
// actors, who they are (with wait kind), and how many timers are still
// pending (a nonzero count here means events exist but none can fire —
// impossible by construction — so it is reported to expose scheduler
// bugs too).
func (v *Virtual) deadlockLocked() string {
	var names []string
	for _, a := range v.slab {
		if !a.inUse {
			continue
		}
		n := a.name
		if n == "" {
			n = fmt.Sprintf("actor-%d", a.id)
		}
		if a.waiting {
			n += " (WaitNotify)"
		}
		if v.eventLog != nil && a.name != "" {
			// Pre-diagnosed stall: each blocked actor arrives with its
			// last few telemetry events, so the panic shows what the
			// protocol role did before it parked for good.
			if tail := v.eventLog.ActorTail(a.name, 3); tail != "" {
				n += " [" + tail + "]"
			}
		}
		names = append(names, n)
	}
	return fmt.Sprintf(
		"clock: virtual deadlock at %v: %d actor(s) blocked with no pending events (%d timer(s) pending): %s",
		v.Now(), v.actors, v.eng.Pending(), strings.Join(names, ", "))
}

// Sleep parks the calling actor until a timer event at
// now+d. Notify does not cut a Sleep short.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	a := v.currentActor("Sleep")
	v.atLane(&a.lane, v.NowNanos()+int64(d), a.wake)
	v.park(a)
	v.mu.Unlock()
}

// WaitNotify implements Clock.
func (v *Virtual) WaitNotify(epoch uint64, d time.Duration) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	a := v.currentActor("WaitNotify")
	if v.gen.Load() != epoch {
		return true
	}
	a.notified = false
	v.pushWaiterLocked(a)
	var timeout simnet.Timer
	if d >= 0 {
		timeout = v.atLane(&a.lane, v.NowNanos()+int64(d), a.wake)
	}
	v.park(a)
	if a.notified {
		timeout.Cancel() // zero Timer when d < 0: Cancel is a no-op
	} else {
		// Timed out: still on the waiter list — leave no stale entry.
		v.removeWaiterLocked(a)
	}
	return a.notified
}

// pushWaiterLocked appends a to the WaitNotify waiter list.
func (v *Virtual) pushWaiterLocked(a *actor) {
	a.waiting = true
	a.nextWait = nil
	a.prevWait = v.waitTail
	if v.waitTail == nil {
		v.waitHead = a
	} else {
		v.waitTail.nextWait = a
	}
	v.waitTail = a
}

// removeWaiterLocked unlinks a from the waiter list in O(1).
func (v *Virtual) removeWaiterLocked(a *actor) {
	if !a.waiting {
		return
	}
	if a.prevWait != nil {
		a.prevWait.nextWait = a.nextWait
	} else {
		v.waitHead = a.nextWait
	}
	if a.nextWait != nil {
		a.nextWait.prevWait = a.prevWait
	} else {
		v.waitTail = a.prevWait
	}
	a.nextWait, a.prevWait = nil, nil
	a.waiting = false
}

// At implements Clock: fn runs once at instant at as an engine
// callback, in one pooled engine slot with no Timer allocation.
func (v *Virtual) At(at int64, fn func()) { v.eng.At(v.key(at), fn) }

// RunAtLane implements Clock: At through l's monotone FIFO engine lane.
func (v *Virtual) RunAtLane(l *Lane, at int64, fn func()) { v.atLane(l, at, fn) }

// atLane schedules fn at instant at on l's engine lane. A Lane bound to
// another clock or an earlier run first binds to the next engine lane of
// this run: a fresh one, or one an earlier run used, which Reset left
// empty with its lastAt at 0 — as a new lane starts. The engine merges
// lane heads and the heap by (at, seq), so which lane an owner holds
// never changes the order events fire in.
func (v *Virtual) atLane(l *Lane, at int64, fn func()) simnet.Timer {
	if l.v != v || l.run != v.runs {
		l.v, l.run, l.id = v, v.runs, v.nextLane
		v.nextLane++
	}
	return v.eng.AtLane(l.id, v.key(at), fn)
}

// virtualTimer implements Timer on the engine. The clock keeps no
// reference to it: once it has fired or been stopped, the engine slot
// has dropped fn, so a timer its holder dropped is garbage, closure and
// all.
type virtualTimer struct {
	v  *Virtual
	fn func()
	t  simnet.Timer
}

// AfterFunc implements Clock. fn runs while every actor is parked, on
// the coroutine of the actor driving the engine (see drive), serialized
// with actors and other callbacks.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	t := &virtualTimer{v: v, fn: fn}
	t.t = v.eng.At(v.key(v.NowNanos()+int64(d)), fn)
	return t
}

// Stop implements Timer.
func (t *virtualTimer) Stop() bool {
	active := t.t.Active()
	t.t.Cancel()
	return active
}

// Reset implements Timer.
func (t *virtualTimer) Reset(d time.Duration) bool {
	active := t.t.Active()
	t.t.Cancel()
	t.t = t.v.eng.At(t.v.key(t.v.NowNanos()+int64(d)), t.fn)
	return active
}

// idle reports whether the clock is quiescent — no live actors, no
// active run — i.e. the state in which Reset is legal. Lanes uses it
// to drop an engine whose cell panicked mid-run instead of cascading
// a second panic out of the deferred release.
func (v *Virtual) idle() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return !v.running && v.actors == 0 && v.current == nil
}

// reset rewinds a finished clock for reuse: virtual time and the
// notification epoch return to zero and every pending engine event is
// discarded, while the engine slab and actor pool are retained. A cell
// run on a Reset clock is bit-identical to the same cell on a fresh
// clock (see Lanes). Reset panics if actors are still live or a run is
// active; Timer handles from before the Reset are invalidated and must
// not be touched again.
func (v *Virtual) reset() {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.running || v.actors != 0 || v.current != nil {
		panic("clock: Virtual.Reset with live actors or an active Run")
	}
	v.eng.Reset()
	v.gen.Store(0)
	v.runs++
	v.nextLane = 0
	v.readyHead, v.readyTail = nil, nil
	v.waitHead, v.waitTail = nil, nil
	v.eventLog = nil // the next cell attaches its own recorder
}

// NamedFunc labels one Join participant for deadlock diagnostics.
type NamedFunc struct {
	Name string
	Fn   func()
}

// Join runs fns to completion on the clock: registered actors plus a
// scheduler run on a Virtual clock, plain goroutines plus a WaitGroup
// otherwise. It is the bridge test harnesses and experiments use to
// run one scenario on either backend. On a Virtual clock only one
// Join (or run) may be active at a time.
func Join(c Clock, fns ...func()) {
	if v, ok := c.(*Virtual); ok {
		for _, fn := range fns {
			v.spawn(fn)
		}
		v.run()
		return
	}
	joinReal(c, fns...)
}

// JoinNamed is Join with per-actor labels: on a Virtual clock each fn
// becomes a named actor, so an all-blocked panic reports which
// protocol roles were stuck instead of anonymous actor indices. A real
// clock ignores the labels.
func JoinNamed(c Clock, fns ...NamedFunc) {
	if v, ok := c.(*Virtual); ok {
		for _, nf := range fns {
			v.spawnNamed(nf.Name, nf.Fn)
		}
		v.run()
		return
	}
	plain := make([]func(), len(fns))
	for i, nf := range fns {
		plain[i] = nf.Fn
	}
	joinReal(c, plain...)
}

func joinReal(c Clock, fns ...func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		fn := fn
		c.spawn(func() {
			defer wg.Done()
			fn()
		})
	}
	wg.Wait()
}
