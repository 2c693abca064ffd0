package clock

import (
	"fmt"
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
// Goroutines participating in a virtual-time simulation register as
// actors (Join, JoinNamed). Exactly one actor executes at a time, and
// virtual time advances — by firing the next engine event — only when
// every actor is parked in a clock wait (Sleep or WaitNotify). There is
// no scheduler goroutine in between: the actor that parks last, finding
// no other actor ready, fires the engine events itself, on its own
// goroutine, until one of them readies an actor, and hands the baton to
// that actor — or keeps it, when the actor readied is itself. Timer
// callbacks (AfterFunc, fabric deliveries, RC retransmissions) thus run
// on whichever actor's goroutine parked last, between actor slices, and
// are serialized with the actors too. The goroutine that calls Join
// (run) only grants the first actor and waits for the end of the run,
// an all-blocked deadlock, or a callback panic to re-raise.
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
//     its (cond, links, lane) state to a free list, so a sweep reusing
//     one clock across many cells (see Lanes) registers thousands of
//     actors with a handful of allocations.
//   - The ready queue and the WaitNotify waiter list are intrusive
//     linked lists threaded through the actor structs — no slice
//     growth, no O(n) waiter-removal scans on timeout.
//   - Wake timers (Sleep deadlines, WaitNotify timeouts) are typed
//     (kind, actor) engine events dispatched through HandleEvent — no
//     per-wait closure — and ride each actor's monotone engine lane,
//     so the common wait is an O(1) ring push instead of a heap sift.
//   - A parking actor hands the baton directly to the next ready
//     actor: one cond signal per switch. With none ready it drives the
//     engine itself, so a wait whose own wake-up comes next (a lone
//     sleeper, a sender pacing itself) costs no goroutine switch at
//     all, and any other wait costs exactly one — never a round trip
//     through a scheduler goroutine.
//   - An engine event costs no lock at all (next section).
//
// # The baton is the lock
//
// At every instant exactly one goroutine may touch the simulation: the
// baton holder. That is the running actor; or, while every actor is
// parked, the driving actor — the one that parked (or finished) last —
// firing engine events and their callbacks with current nil; or, with
// no run active, the one goroutine that builds the simulation and calls
// run. The baton changes hands only under mu (park, grant, an actor
// finishing, a drive starting or ending, run waking up), and that lock
// hand-over is the happens-before edge that orders everything the
// previous holder did before everything the next one does — which is
// what lets go test -race check the rule.
//
// So state that only baton holders touch needs no lock of its own, and
// none is taken:
//
//   - the engine: runAfter, runAt, RunAfterLane, AfterFunc and a Timer's
//     Stop and Reset schedule and cancel without mu, and a drive fires
//     events back to back without it, re-taking mu only when an event
//     made an actor runnable (a wake-up, a Notify, a spawn) or the queue
//     ran dry;
//   - the AfterFunc timer pool;
//   - everything the stack builds on a virtual clock and drives from
//     actors and callbacks: a netem.Queue — with the arrival schedules
//     of the netem.TrafficGens feeding it, which any baton holder that
//     reads or changes the queue settles, on its own goroutine — a
//     fabric.Direction and its DeliveryPool, a serial nicsim.Device, a
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
// the ready FIFO, the WaitNotify waiter list, current, running,
// driving, fault, switches, the event log — and with it the calls that
// are safe from any goroutine while run is active: spawn and
// spawnNamed, CurrentActorName, SetEventLog, idle. Now, NowNanos,
// Elapsed and Epoch are atomic reads and safe anywhere. Sleep, WaitNotify and Notify are baton-holder calls that
// take mu because they hand the baton over or edit the lists above.
//
// # Reuse
//
// reset rewinds a finished clock (no live actors) to its initial
// state — virtual time zero, notification epoch zero, no pending
// events — while keeping the engine slab, the actor pool and the
// timer pool, so one Virtual can run an entire sweep of independent
// cells without reallocating its machinery. Outstanding Timer handles
// are invalidated by reset and must not be used afterwards.
//
// # Deadlock
//
// If every actor is blocked without a time bound and no engine event
// is pending, no wakeup can ever arrive; run panics with a diagnostic
// — including per-actor labels (see spawnNamed) and the pending-timer
// count — rather than hanging, turning a protocol bug into a test
// failure. A callback that panics on a driving actor's goroutine
// surfaces the same way, from run on the Join goroutine with its own
// value; one that calls runtime.Goexit (t.FailNow) makes run panic with
// a diagnostic saying so.
type Virtual struct {
	mu       sync.Mutex
	rootCond sync.Cond // run waits here for the end of the run, a stall or a fault
	eng      *simnet.Engine
	base     time.Time
	gen      atomic.Uint64 // notification epoch
	laneSeq  int           // next NewEventLane id
	actors   int           // registered and not yet finished
	current  *actor        // actor holding the baton (nil: a driver or run has it)
	running  bool
	driving  bool // a parked or finishing actor is firing engine events
	fault    any  // what a driving actor hands run to re-raise
	switches int  // baton grants that woke another goroutine (tests read it)
	// runnable is raised whenever an actor joins the ready FIFO. The
	// driving actor polls it between engine events instead of taking
	// mu to look at the FIFO; it is atomic because spawn may ready an
	// actor from a goroutine that does not hold the baton.
	runnable atomic.Bool

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
// or "" while engine and timer callbacks run (whichever goroutine
// drives them) or an unnamed actor is running. Telemetry recorders use
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

// evWake is the typed engine event that readies a parked actor; the
// event's a-payload is the actor's slab index.
const evWake = 1

// actor is one registered goroutine's scheduling state.
type actor struct {
	id       int32
	lane     int32     // dedicated monotone engine lane for wake timers
	cond     sync.Cond // tied to Virtual.mu
	name     string    // optional label for deadlock diagnostics
	inUse    bool      // registered and not yet finished
	granted  bool      // baton handed over, actor may run
	parked   bool      // inside a clock wait
	queued   bool      // in the ready FIFO
	waiting  bool      // on the WaitNotify waiter list
	notified bool      // wake cause was Notify, not a timeout

	nextReady          *actor // intrusive ready-FIFO link
	nextWait, prevWait *actor // intrusive waiter-list links
}

// NewVirtual creates a virtual clock at a fixed, wall-independent base
// time (so runs are reproducible regardless of when they execute).
func NewVirtual() *Virtual {
	v := &Virtual{
		eng:  simnet.New(),
		base: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	v.rootCond.L = &v.mu
	v.eng.SetHandler(v)
	return v
}

// HandleEvent dispatches typed engine events (actor wakeups). It runs
// on the driving actor's goroutine with v.mu released (engine
// callbacks are invoked outside the lock); readying the actor edits the
// ready FIFO, so it takes mu.
func (v *Virtual) HandleEvent(kind, a, _ int32) {
	if kind != evWake {
		return
	}
	v.mu.Lock()
	v.readyLocked(v.slab[a])
	v.mu.Unlock()
}

// Now implements Clock: base + virtual offset.
func (v *Virtual) Now() time.Time {
	// Engine.Now is an atomic read and base is immutable while the
	// clock runs, so the hot per-packet timestamping path (fabric
	// serialization booking) skips the clock mutex entirely.
	return v.base.Add(time.Duration(v.eng.Now() * float64(time.Second)))
}

// NowNanos implements clock.NanoClock: the current virtual time as
// nanoseconds past the Unix epoch, matching Now() exactly (same
// truncation of the engine's float offset) while skipping time.Time
// construction — the per-packet serialization booking in the fabric
// reads the clock once per packet, and at line rate the integer path
// is measurably cheaper.
func (v *Virtual) NowNanos() int64 {
	return v.base.UnixNano() + int64(v.eng.Now()*float64(time.Second))
}

func (v *Virtual) nowLocked() time.Time {
	return v.base.Add(time.Duration(v.eng.Now() * float64(time.Second)))
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// instant implements Clock: the engine's time, which After and At
// schedule on.
func (v *Virtual) instant() float64 { return v.eng.Now() }

// Elapsed returns the virtual time consumed since construction (or the
// last Reset).
func (v *Virtual) Elapsed() time.Duration { return v.Now().Sub(v.base) }

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
	if !a.parked || a.queued || a.granted {
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

// grantLocked hands the baton to a and signals it awake.
func (v *Virtual) grantLocked(a *actor) {
	a.granted = true
	v.current = a
	a.cond.Signal()
}

// park blocks the calling actor until it is granted the baton again
// (see handOff). When its own wake-up is the next thing to happen it
// keeps the baton and returns without a goroutine switch. v.mu must be
// held; it is held again on return.
func (v *Virtual) park(a *actor) {
	a.parked = true
	v.current = nil
	v.handOff(a)
	for !a.granted {
		a.cond.Wait()
	}
	a.granted = false
	a.parked = false
}

// handOff passes the baton on from self, the actor parking (nil: an
// actor finishing, or run). The head of the ready FIFO gets it; when
// none is ready, the caller first drives the engine until an event
// readies one — unless no actor is left, so that the last one to
// finish fires nothing and pending events stay queued for the next
// run. With no actor ready after that, the baton goes back to run.
// v.mu must be held.
func (v *Virtual) handOff(self *actor) {
	if v.readyHead == nil && v.actors > 0 {
		v.drive()
	}
	n := v.popReadyLocked()
	if n == nil {
		v.rootCond.Signal()
		return
	}
	if n != self {
		v.switches++
	}
	v.grantLocked(n)
}

// drive fires engine events on the calling goroutine, back to back
// with mu released and current nil, until one makes an actor runnable
// (its callback woke a sleeper, called Notify or spawn, or a goroutine
// outside the simulation spawned) — that actor must run before the
// next event does — or the queue runs dry. A callback that panics or
// calls runtime.Goexit ends the drive: the fault is handed to run,
// which re-raises it on the Join goroutine, and the calling goroutine
// blocks for good. v.mu must be held; it is held again on return.
func (v *Virtual) drive() {
	v.runnable.Store(false)
	v.driving = true
	v.mu.Unlock()
	ok := false
	defer func() {
		if ok {
			return
		}
		fault := recover()
		if fault == nil {
			fault = "clock: an engine callback called runtime.Goexit (t.FailNow, t.Fatal?) on a driving actor's goroutine; report failures from clock callbacks with t.Error"
		}
		v.mu.Lock()
		v.fault = fault
		v.rootCond.Signal()
		v.mu.Unlock()
		select {}
	}()
	for !v.runnable.Load() && v.eng.Step() {
	}
	ok = true
	v.mu.Lock()
	v.driving = false
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

// allocActorLocked takes an actor from the pool (or grows the slab)
// and gives it a dedicated monotone engine lane for wake timers.
func (v *Virtual) allocActorLocked(name string) *actor {
	var a *actor
	if n := len(v.freeActor); n > 0 {
		a = v.freeActor[n-1]
		v.freeActor = v.freeActor[:n-1]
	} else {
		a = &actor{id: int32(len(v.slab))}
		// Wake-timer lanes share the NewEventLane id space so an
		// externally allocated delivery lane can never collide with an
		// actor's lane.
		a.lane = int32(v.laneSeq)
		v.laneSeq++
		v.eng.Lanes(v.laneSeq)
		a.cond.L = &v.mu
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
	a.parked = true // waiting for its first baton grant
	v.readyLocked(a)
	v.mu.Unlock()
	go v.runActor(a, fn)
}

// runActor is the actor goroutine body: wait for the first grant, run
// fn, then recycle the actor and hand the baton onward.
func (v *Virtual) runActor(a *actor, fn func()) {
	v.mu.Lock()
	for !a.granted {
		a.cond.Wait()
	}
	a.granted = false
	a.parked = false
	v.mu.Unlock()
	defer v.finishActor(a)
	fn()
}

// finishActor retires a and hands the baton on.
func (v *Virtual) finishActor(a *actor) {
	v.mu.Lock()
	v.actors--
	v.current = nil
	a.inUse = false
	a.name = ""
	v.freeActor = append(v.freeActor, a)
	v.handOff(nil)
	v.mu.Unlock()
}

// run grants the baton to the first ready actor, then waits while the
// actors pass it among themselves and drive the engine (see handOff).
// It takes the baton back when every actor has finished, and returns;
// when a drive ran the queue dry with every actor blocked, and panics
// with the all-blocked diagnostic; or when a driving actor hands it a
// callback's fault, and re-raises that on the Join goroutine. Only one
// run may be active at a time; actors may keep spawning more actors
// with spawn while it runs.
func (v *Virtual) run() {
	v.mu.Lock()
	if v.running {
		v.mu.Unlock()
		panic("clock: clock.Join reentered: one Join (or JoinNamed) at a time per Virtual")
	}
	v.running = true
	for v.fault == nil && v.actors > 0 {
		switch {
		case v.current != nil || v.driving:
			v.rootCond.Wait()
		case v.readyHead != nil:
			v.handOff(nil)
		default:
			v.fault = v.deadlockLocked()
		}
	}
	fault := v.fault
	v.fault = nil
	v.running = false
	v.mu.Unlock()
	if fault != nil {
		panic(fault)
	}
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
		v.nowLocked(), v.actors, v.eng.Pending(), strings.Join(names, ", "))
}

// Sleep parks the calling actor until a timer event at
// now+d. Notify does not cut a Sleep short.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	a := v.currentActor("Sleep")
	v.eng.ScheduleLaneAfter(a.lane, d.Seconds(), evWake, a.id, 0)
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
		timeout = v.eng.ScheduleLaneAfter(a.lane, d.Seconds(), evWake, a.id, 0)
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

// runAfter schedules fn to run once after d, as an engine callback,
// without a cancellable handle: one pooled engine slot, no
// Timer allocation. It is the cheap path packet pipelines use for
// fire-and-forget deliveries (see clock.After).
func (v *Virtual) runAfter(d time.Duration, fn func()) {
	v.eng.After(max(0, d.Seconds()), fn)
}

// runAt is runAfter at an absolute engine instant (see clock.At).
func (v *Virtual) runAt(at float64, fn func()) {
	v.eng.At(max(at, v.eng.Now()), fn)
}

// NewEventLane allocates a monotone FIFO scheduling lane on the
// clock's engine and returns its id. Callers whose one-shot closures
// carry nondecreasing fire times per lane — a wire direction's
// per-packet deliveries — schedule through RunAfterLane in O(1)
// instead of sifting the event heap; a push that would run backwards
// in time falls back to the heap, so ordering is always exact. Lane
// ids stay valid across Reset.
func (v *Virtual) NewEventLane() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	ln := v.laneSeq
	v.laneSeq++
	v.eng.Lanes(v.laneSeq)
	return ln
}

// RunAfterLane is runAfter through the monotone FIFO lane ln (see
// NewEventLane).
func (v *Virtual) RunAfterLane(ln int, d time.Duration, fn func()) {
	v.eng.AfterLane(int32(ln), max(0, d.Seconds()), fn)
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
// the goroutine of the actor driving the engine (see drive), serialized
// with actors and other callbacks.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	t := &virtualTimer{v: v, fn: fn}
	t.t = v.eng.After(max(0, d.Seconds()), fn)
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
	t.t = t.v.eng.After(max(0, d.Seconds()), t.fn)
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
// protocol roles were stuck instead of anonymous actor indices. Real
// clocks ignore the labels.
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
