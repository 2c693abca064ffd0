// Package simnet provides a minimal discrete-event simulation core with
// a virtual clock. It backs the chunk-level protocol simulator in
// internal/protosim (used to cross-validate the paper's closed-form
// completion-time model) and the inter-datacenter allreduce simulator.
//
// Time is a float64 in seconds. Events scheduled for the same instant
// fire in scheduling order (stable), which keeps simulations
// deterministic for a fixed seed.
//
// # Engine internals
//
// The engine is built for Monte Carlo throughput: a planetary-scale
// campaign runs tens of thousands of chunk events per sample and
// hundreds of samples per table cell, so per-event constant factors
// dominate wall clock. Three decisions keep the hot loop allocation
// free:
//
//   - Events live in a slab ([]slot) indexed by int32 handles, not in
//     individually heap-allocated nodes. A free list recycles slots, so
//     after a short warm-up the engine performs zero allocations per
//     event (see BenchmarkSimnetEvents).
//   - The priority queue is a hand-rolled binary heap of slot indices
//     ordered by (time, seq). No container/heap interface calls, no
//     boxing through interface{}.
//   - Timers are generation counted: Cancel is an O(1) flag write, and
//     a recycled slot bumps its generation so a stale Timer handle can
//     never cancel the slot's next occupant (no ABA).
//   - Monotone FIFO lanes (ScheduleLane) bypass the heap entirely for
//     the dominant event classes. A protocol simulator schedules almost
//     everything at now+const (link serialization, one-way delay,
//     RTO), so per class the timestamps are nondecreasing: a ring
//     buffer with O(1) push and O(1) pop replaces O(log n) sifts
//     through a heap dominated by far-future, almost-always-cancelled
//     backstop timers. The dispatcher merges lane heads and the heap
//     top by (time, seq), so global ordering — including same-instant
//     FIFO — is exactly preserved. A lane push that would violate
//     monotonicity falls back to the heap, so lanes are a pure
//     optimization, never a correctness risk.
//
// Callers that want zero allocations end to end schedule typed events
// through Schedule/ScheduleAfter, which carry (kind, a, b) int32
// payloads dispatched to the engine's Handler — no closure capture at
// all. The closure API (At, AtLane) serves callers that bind their
// closures once, as clock.Virtual does, and tests.
//
// Reset rewinds the clock and discards pending events while keeping
// the slab, free list and heap storage, so one engine serves an entire
// sampling campaign without reallocating.
package simnet

import (
	"math"
	"sync/atomic"
)

// Event is a callback scheduled on the virtual timeline.
type Event func()

// Handler receives typed events scheduled via Schedule/ScheduleAfter.
// kind discriminates the event type; a and b are caller-defined
// payloads (typically a chunk index and an auxiliary value). Using a
// handler instead of closures keeps the per-event path allocation
// free.
type Handler interface {
	HandleEvent(kind, a, b int32)
}

// slot is one arena entry. A slot is live from schedule until it pops
// off the heap (or the engine resets); its generation increments every
// time it is returned to the free list.
type slot struct {
	at         float64
	seq        uint64
	fn         Event // nil ⇒ typed dispatch through the engine Handler
	kind, a, b int32
	gen        uint32
	live       bool
}

// lane is a monotone FIFO event queue: pushes must carry
// nondecreasing timestamps, so the earliest entry is always at the
// head. Cancelled entries drain lazily as the head passes them.
type lane struct {
	ring   []int32 // slot indices in push (= time) order
	head   int     // first not-yet-popped ring position
	lastAt float64 // timestamp of the most recent push
}

// push appends idx. A lane that fully drains rewinds in peek; one that
// never does — a delivery lane under standing load — would otherwise
// drag its popped prefix along and regrow forever, so when the storage
// is full and the popped prefix is at least as long as the live part,
// the live part slides to the front instead of growing. Each popped
// entry is copied over at most once, so the push stays amortized O(1)
// and a lane in steady state never reallocates.
func (l *lane) push(idx int32) {
	if len(l.ring) == cap(l.ring) && l.head > 0 && 2*l.head >= len(l.ring) {
		n := copy(l.ring, l.ring[l.head:])
		l.ring = l.ring[:n]
		l.head = 0
	}
	l.ring = append(l.ring, idx)
}

// Engine is a single-threaded discrete-event scheduler.
type Engine struct {
	now float64
	// nowBits mirrors now as atomic float64 bits so concurrent readers
	// (virtual-clock actors sampling the time mid-slice) can observe it
	// without a lock; the engine's own event loop keeps using the plain
	// field.
	nowBits atomic.Uint64
	nextSeq uint64
	handler Handler
	slots   []slot
	free    []int32 // recycled slot indices
	heap    []int32 // binary heap of slot indices, ordered by (at, seq)
	lanes   []lane
	live    int // scheduled-and-not-cancelled events
}

// New creates an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// SplitMix64 derives the deterministic per-unit seed for unit i of a
// campaign rooted at seed — the shared discipline behind
// protosim.Sample's per-sample rngs and clock.Lanes' per-cell seeds:
// neighbouring units get decorrelated streams, and the derivation is
// independent of which worker (or worker count) runs the unit.
func SplitMix64(seed int64, i int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(i+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Now returns the current virtual time in seconds. It reads the
// atomic mirror, so it is safe from any goroutine — in particular from
// a virtual-clock actor sampling time while another goroutine holds
// the engine — without taking a lock.
func (e *Engine) Now() float64 { return math.Float64frombits(e.nowBits.Load()) }

// SetHandler installs the receiver for typed events. It must be set
// before the first Schedule/ScheduleAfter event fires; protocol
// simulators reinstall their handler at the start of every sample.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// Timer identifies a scheduled event so it can be cancelled (e.g. an
// RTO timer disarmed by an ACK). The zero Timer is valid and inert.
type Timer struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel disarms the timer in O(1). Cancelling an already-fired,
// already-cancelled or zero timer is a no-op: the generation check
// guarantees a stale handle cannot cancel a recycled slot's new
// occupant.
func (t Timer) Cancel() {
	if t.e == nil {
		return
	}
	s := &t.e.slots[t.idx]
	if s.gen != t.gen || !s.live {
		return
	}
	s.live = false
	s.fn = nil
	t.e.live--
}

// Active reports whether the timer's event is still scheduled (not yet
// fired, cancelled or invalidated by Reset). O(1) via the generation
// check, like Cancel.
func (t Timer) Active() bool {
	if t.e == nil {
		return false
	}
	s := &t.e.slots[t.idx]
	return s.gen == t.gen && s.live
}

// alloc takes a slot from the free list (or grows the slab) and stamps
// it with the schedule time and a fresh sequence number.
func (e *Engine) alloc(at float64) int32 {
	if at < e.now {
		panic("simnet: scheduling event in the past")
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.at = at
	s.seq = e.nextSeq
	e.nextSeq++
	s.live = true
	e.live++
	return idx
}

// At schedules fn at absolute virtual time at. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) At(at float64, fn Event) Timer {
	idx := e.alloc(at)
	s := &e.slots[idx]
	s.fn = fn
	e.heapPush(idx)
	return Timer{e, idx, s.gen}
}

// Schedule schedules a typed (kind, a, b) event at absolute virtual
// time at, dispatched to the engine Handler. This is the
// allocation-free path: nothing escapes to the garbage collector.
func (e *Engine) Schedule(at float64, kind, a, b int32) Timer {
	idx := e.alloc(at)
	s := &e.slots[idx]
	s.fn = nil
	s.kind, s.a, s.b = kind, a, b
	e.heapPush(idx)
	return Timer{e, idx, s.gen}
}

// ScheduleAfter schedules a typed event delay seconds from now.
func (e *Engine) ScheduleAfter(delay float64, kind, a, b int32) Timer {
	return e.Schedule(e.now+delay, kind, a, b)
}

// Lanes ensures the engine has at least n monotone FIFO lanes,
// addressed 0..n-1 by ScheduleLane. Lane storage survives Reset.
func (e *Engine) Lanes(n int) {
	for len(e.lanes) < n {
		e.lanes = append(e.lanes, lane{})
	}
}

// ScheduleLane schedules a typed event on a monotone FIFO lane: O(1)
// instead of an O(log n) heap sift. Events on one lane must be
// scheduled with nondecreasing timestamps — the natural shape of a
// simulator that schedules at now+const (link serialization, one-way
// delay, RTO backstops). A push that would violate lane monotonicity
// falls back to the heap transparently, so ordering is always exact.
// Lanes grow on demand (an out-of-range ln allocates up to it), and
// lane storage — like the slot slab — survives Reset, so callers that
// address lanes by a stable id (e.g. one lane per clock actor) reuse
// the same rings across an entire campaign.
func (e *Engine) ScheduleLane(ln int32, at float64, kind, a, b int32) Timer {
	if int(ln) >= len(e.lanes) {
		e.Lanes(int(ln) + 1)
	}
	l := &e.lanes[ln]
	if at < l.lastAt {
		return e.Schedule(at, kind, a, b)
	}
	idx := e.alloc(at)
	s := &e.slots[idx]
	s.fn = nil
	s.kind, s.a, s.b = kind, a, b
	l.lastAt = at
	l.push(idx)
	return Timer{e, idx, s.gen}
}

// ScheduleLaneAfter schedules a typed lane event delay seconds from
// now.
func (e *Engine) ScheduleLaneAfter(ln int32, delay float64, kind, a, b int32) Timer {
	return e.ScheduleLane(ln, e.now+delay, kind, a, b)
}

// AtLane is ScheduleLane for closure events: O(1) on the monotone FIFO
// lane, with the same transparent heap fallback when at would violate
// lane monotonicity. It lets closure-based callers with nondecreasing
// schedules (per-packet wire deliveries) skip the heap too.
func (e *Engine) AtLane(ln int32, at float64, fn Event) Timer {
	if int(ln) >= len(e.lanes) {
		e.Lanes(int(ln) + 1)
	}
	l := &e.lanes[ln]
	if at < l.lastAt {
		return e.At(at, fn)
	}
	idx := e.alloc(at)
	s := &e.slots[idx]
	s.fn = fn
	l.lastAt = at
	l.push(idx)
	return Timer{e, idx, s.gen}
}

// release returns a popped slot to the free list, bumping its
// generation so outstanding Timer handles become inert.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.gen++
	e.free = append(e.free, idx)
}

// peek locates the earliest live event across the heap and every
// lane, draining dead (cancelled) entries it passes. It returns the
// slot index and source (-1 = heap, else lane number), or (-1, -1)
// when nothing is pending.
func (e *Engine) peek() (int32, int) {
	for len(e.heap) > 0 {
		if s := &e.slots[e.heap[0]]; !s.live {
			e.release(e.heapPop())
			continue
		}
		break
	}
	best, src := int32(-1), -1
	if len(e.heap) > 0 {
		best = e.heap[0]
	}
	for li := range e.lanes {
		l := &e.lanes[li]
		for l.head < len(l.ring) {
			idx := l.ring[l.head]
			if !e.slots[idx].live {
				e.release(idx)
				l.head++
				continue
			}
			if best < 0 || e.slotLess(idx, best) {
				best, src = idx, li
			}
			break
		}
		if l.head > 0 && l.head == len(l.ring) {
			l.ring = l.ring[:0]
			l.head = 0
		}
	}
	return best, src
}

// Step fires the next pending event and returns true, or returns false
// if the queue is empty. Cancelled slots drain silently.
func (e *Engine) Step() bool {
	idx, src := e.peek()
	if idx < 0 {
		return false
	}
	e.fire(idx, src)
	return true
}

// fire pops and dispatches an already-peeked event.
func (e *Engine) fire(idx int32, src int) {
	if src < 0 {
		e.heapPop()
	} else {
		e.lanes[src].head++
	}
	s := &e.slots[idx]
	s.live = false
	e.live--
	at, fn := s.at, s.fn
	kind, a, b := s.kind, s.a, s.b
	// Release before dispatch so a nested schedule can reuse the slot.
	e.release(idx)
	e.now = at
	e.nowBits.Store(math.Float64bits(at))
	if fn != nil {
		fn()
	} else {
		e.handler.HandleEvent(kind, a, b)
	}
}

// Pending returns the number of live scheduled events. O(1): cancelled
// events are discounted at cancel time.
func (e *Engine) Pending() int { return e.live }

// Reset rewinds the clock to zero and discards every pending event
// while retaining the slab, free list and heap capacity, so one engine
// can run an entire Monte Carlo campaign without reallocating.
// Outstanding Timer handles are invalidated (their slots' generations
// advance).
func (e *Engine) Reset() {
	for _, idx := range e.heap {
		e.discard(idx)
	}
	e.heap = e.heap[:0]
	for li := range e.lanes {
		l := &e.lanes[li]
		for i := l.head; i < len(l.ring); i++ {
			e.discard(l.ring[i])
		}
		l.ring = l.ring[:0]
		l.head = 0
		l.lastAt = 0
	}
	e.now = 0
	e.nowBits.Store(0)
	e.nextSeq = 0
}

// discard retires a still-queued slot during Reset.
func (e *Engine) discard(idx int32) {
	s := &e.slots[idx]
	if s.live {
		s.live = false
		e.live--
	}
	e.release(idx)
}

// --- index heap ------------------------------------------------------------

// slotLess orders slot x before slot y by (time, sequence): equal-time
// events fire in scheduling order, which keeps runs deterministic.
func (e *Engine) slotLess(x, y int32) bool {
	sx, sy := &e.slots[x], &e.slots[y]
	if sx.at != sy.at {
		return sx.at < sy.at
	}
	return sx.seq < sy.seq
}

func (e *Engine) heapPush(idx int32) {
	h := append(e.heap, idx)
	e.heap = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.slotLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (e *Engine) heapPop() int32 {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	e.heap = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && e.slotLess(h[r], h[l]) {
			least = r
		}
		if !e.slotLess(h[least], h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}
