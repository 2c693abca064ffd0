package nicsim

import (
	"sync"
	"sync/atomic"
)

// CQ is a completion queue: a bounded MPSC ring of CQEs. Producers are
// the NIC's receive path (possibly several channels); the consumer is
// one poller — a DPA worker thread in the offloaded configuration
// (§3.4.1 maps each channel's CQ to its own worker).
type CQ struct {
	mu      sync.Mutex
	nonFull sync.Cond // on mu
	buf     []CQE
	cap     int
	head    int
	count   int
	// Dropped counts completions discarded because the CQ overflowed
	// with Overrun semantics.
	Dropped atomic.Uint64
	// Handled counts completions the sink has returned from (see
	// SetSink); a polled queue leaves it at zero.
	Handled atomic.Uint64
	// overrun selects behaviour on a full queue: true drops the new
	// CQE (real CQ overrun), false blocks the producer.
	overrun bool
	// wake is the poller's 1-buffered wakeup signal, made under mu by
	// the first Wait that finds the queue empty: a sink-mode queue, which
	// never has a poller, never makes one. Push and Close read it under
	// mu, so a poller that parked before them is always woken.
	wake chan struct{}
	// state holds the cqSink and cqClosed flags, so the sink fast path
	// in Push costs one atomic load. Written only under mu.
	state atomic.Uint32
	// sink, when set, consumes completions synchronously in the
	// producer's call: Push invokes it instead of enqueueing. Virtual-
	// clock deployments use it so packet processing happens inside the
	// delivery event rather than on a free-running poller goroutine.
	// SetSink writes it once, before the cqSink flag publishes it.
	sink func([]CQE)
	// sinkBusy guards sinkScratch, the zero-allocation staging slot the
	// sink fast path hands to the handler. A concurrent second producer
	// (or a reentrant push from inside the handler) loses the CAS and
	// falls back to a heap-boxed single CQE.
	sinkBusy    atomic.Bool
	sinkScratch [1]CQE
	// sinkSerial declares the producers externally serialized (see
	// SetSink), downgrading the scratch claim from an atomic CAS to a
	// plain bool — the CAS was measurable at line rate. serialBusy still
	// catches a reentrant push from inside the handler, which falls back
	// to a boxed CQE.
	sinkSerial bool
	serialBusy bool
}

// The flags of CQ.state.
const (
	cqSink   = 1 << iota // a sink is installed
	cqClosed             // Close has run: pushes are dropped
)

// NewCQ creates a completion queue with the given capacity. If overrun
// is true, completions that arrive while the queue is full are counted
// in Dropped and discarded, mimicking a real CQ overrun; otherwise the
// producer blocks (convenient for lossless perf harnesses).
func NewCQ(capacity int, overrun bool) *CQ {
	if capacity <= 0 {
		panic("nicsim: CQ capacity must be positive")
	}
	// The ring itself is allocated lazily on the first buffered Push:
	// sink-mode queues (every virtual-clock deployment) never buffer, so
	// eagerly building CQDepth-sized rings per channel would be pure
	// session-construction waste; so would a poller's wakeup channel.
	cq := &CQ{cap: capacity, overrun: overrun}
	cq.nonFull.L = &cq.mu
	return cq
}

// SetSink switches the queue to synchronous delivery: every subsequent
// Push invokes fn inline (in the producer's goroutine) and nothing is
// buffered, so Poll/Wait see an always-empty queue. fn observes each
// delivery as a one-element slice that is only valid for the duration
// of the call: Push stages the CQE in a per-queue scratch slot instead
// of heap-boxing it per completion. Install the sink before traffic
// starts, once; it cannot be combined with concurrent Poll-based
// consumption. Handled counts each completion once fn returns.
//
// serial is the owner's clock kind, clk.IsVirtual(): on a virtual clock
// every producer runs under the scheduler baton, one at a time, and the
// scratch hand-off needs no atomic claim; on a real clock producers may
// push concurrently and it does. fn and serial are published by the
// atomic store of the cqSink flag, so producers that observe the flag
// observe both, and storing fn boxes nothing.
func (q *CQ) SetSink(fn func([]CQE), serial bool) {
	q.mu.Lock()
	q.sink, q.sinkSerial = fn, serial
	q.state.Store(q.state.Load() | cqSink)
	q.mu.Unlock()
}

// Push appends a completion (or hands it to the sink).
//
// A CPU profile charges Push far more than these few instructions
// cost: on the UC receive path it runs right after the payload's DMA
// copy, and its first wide store (staging e in sinkScratch, reading
// back the argument just spilled to the stack) waits for the store
// buffer to drain that copy's cache-missing 4 KiB. With the copy cut to
// one always-cached line, Push's flat time falls about 40-fold. Read its
// profile share as part of the copy floor, not as a cost of its own.
func (q *CQ) Push(e CQE) {
	if s := q.state.Load(); s&cqSink != 0 {
		if s&cqClosed != 0 {
			return
		}
		switch {
		case q.sinkSerial:
			if !q.serialBusy {
				q.serialBusy = true
				q.sinkScratch[0] = e
				q.sink(q.sinkScratch[:1])
				q.serialBusy = false
			} else {
				q.sink([]CQE{e})
			}
		case q.sinkBusy.CompareAndSwap(false, true):
			q.sinkScratch[0] = e
			q.sink(q.sinkScratch[:1])
			q.sinkBusy.Store(false)
		default:
			q.sink([]CQE{e})
		}
		q.Handled.Add(1)
		return
	}
	q.mu.Lock()
	if q.buf == nil {
		q.buf = make([]CQE, q.cap)
	}
	for q.count == len(q.buf) && !q.closed() {
		if q.overrun {
			q.mu.Unlock()
			q.Dropped.Add(1)
			return
		}
		q.nonFull.Wait()
	}
	if q.closed() {
		q.mu.Unlock()
		return
	}
	q.buf[(q.head+q.count)%len(q.buf)] = e
	q.count++
	wake := q.wake
	q.mu.Unlock()
	signal(wake)
}

// closed reports whether Close has run. Caller holds mu.
func (q *CQ) closed() bool { return q.state.Load()&cqClosed != 0 }

// signal leaves a token in a poller's wakeup channel, if there is a
// poller and no token is pending.
func signal(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default: // no poller yet (a nil channel), or a token is pending
	}
}

// Poll pops up to len(dst) completions without blocking and returns
// how many it wrote — the ibv_poll_cq analogue.
func (q *CQ) Poll(dst []CQE) int {
	q.mu.Lock()
	n := q.count
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = q.buf[q.head]
		q.head = (q.head + 1) % len(q.buf)
	}
	q.count -= n
	if n > 0 {
		q.nonFull.Broadcast()
	}
	q.mu.Unlock()
	return n
}

// PollInto drains every pending completion into *dst, growing the
// caller's buffer as needed — at least doubling it, so a buffer that
// starts empty reaches the largest backlog in a few steps — and returns
// the number appended; its capacity is reused across drains. One mutex round-trip amortizes over the
// whole backlog, versus one per fixed-size Poll batch — the
// ibv_poll_cq-with-large-batch idiom the DPA workers use.
func (q *CQ) PollInto(dst *[]CQE) int {
	q.mu.Lock()
	n := q.count
	if n == 0 {
		q.mu.Unlock()
		return 0
	}
	base := len(*dst)
	if need := base + n; cap(*dst) < need {
		grown := make([]CQE, base, max(need, 2*cap(*dst)))
		copy(grown, *dst)
		*dst = grown
	}
	*dst = (*dst)[:base+n]
	out := (*dst)[base:]
	for i := 0; i < n; i++ {
		out[i] = q.buf[q.head]
		q.head = (q.head + 1) % len(q.buf)
	}
	q.count -= n
	q.nonFull.Broadcast()
	q.mu.Unlock()
	return n
}

// Wait blocks until the queue is non-empty or closed; it returns false
// once the queue is closed and drained.
func (q *CQ) Wait() bool {
	for {
		q.mu.Lock()
		if q.count > 0 {
			q.mu.Unlock()
			return true
		}
		if q.closed() {
			q.mu.Unlock()
			return false
		}
		if q.wake == nil {
			q.wake = make(chan struct{}, 1)
		}
		wake := q.wake
		q.mu.Unlock()
		<-wake
	}
}

// Close wakes all waiters; subsequent Pushes are dropped. The wakeup
// channel is deliberately never closed: producers may still race
// against Close (late packets in flight), and sending a token to an
// open channel is always safe.
func (q *CQ) Close() {
	q.mu.Lock()
	if q.closed() {
		q.mu.Unlock()
		return
	}
	q.state.Store(q.state.Load() | cqClosed)
	q.nonFull.Broadcast()
	wake := q.wake
	q.mu.Unlock()
	signal(wake)
}
