// Package dpa emulates the BlueField-3 Data Path Accelerator used for
// SDR backend offloading (§3.4): a pool of worker threads, each
// polling one completion queue and running the packet-processing
// handler (generation check, per-packet bitmap update, chunk
// coalescing, PCIe write of the host-visible chunk bitmap).
//
// The emulation preserves the structural properties the paper relies
// on: one worker per channel CQ, per-packet work independent of
// payload size (workers touch completions, not payloads), and linear
// scaling with the worker count until the memory system saturates.
package dpa

import (
	"sync"
	"sync/atomic"

	"sdrrdma/internal/nicsim"
)

// BatchHandler processes a whole poll drain at once, letting the
// packet-processing layer amortize per-packet bookkeeping (counter
// flushes, slot resolution) over the batch. The slice is only valid
// for the duration of the call. Implementations must be thread-safe
// across workers (SDR's bitmap updates are atomic).
type BatchHandler func(cqes []nicsim.CQE)

// Worker is one emulated DPA hardware thread bound to a CQ. In
// synchronous mode the handler is the CQ's sink and the worker only
// names the CQ: it has no goroutine to join and no counter of its own.
type Worker struct {
	cq      *nicsim.CQ
	handler BatchHandler
	// done is closed when the poller goroutine returns; nil for a
	// synchronous worker.
	done chan struct{}
	// processed counts completions the poller has handled.
	processed atomic.Uint64
	// next is the worker spawned before this one in the pool's list.
	next *Worker
}

func (w *Worker) run() {
	defer close(w.done)
	// The drain buffer is reused across polls. It starts empty, so a
	// poller that never sees a completion allocates none; PollInto grows
	// it to the largest backlog, and then the loop is allocation-free.
	var buf []nicsim.CQE
	for {
		buf = buf[:0]
		n := w.cq.PollInto(&buf)
		if n == 0 {
			if !w.cq.Wait() {
				return
			}
			continue
		}
		w.handler(buf)
		w.processed.Add(uint64(n))
	}
}

// count returns how many completions the worker has handled: its own
// count when it polls, its CQ's when the handler is the CQ's sink.
func (w *Worker) count() uint64 {
	if w.done == nil {
		return w.cq.Handled.Load()
	}
	return w.processed.Load()
}

// Pool manages a set of workers, the DPA thread group serving one SDR
// context.
type Pool struct {
	mu sync.Mutex
	// workers is the most recently spawned worker, the head of a list
	// linked through Worker.next: spawning allocates the worker alone.
	workers *Worker
	sync    bool
	// PCIeWrites counts host-memory updates performed by handlers
	// (chunk-bitmap writes over PCIe, §3.4.2); handlers increment it.
	PCIeWrites atomic.Uint64
}

// NewPool creates an empty pool.
func NewPool() *Pool { return &Pool{} }

// SetSynchronous selects the pool's delivery mode, the deployment's
// clock kind: true (a virtual clock) makes every spawned worker's
// handler the CQ's inline sink, processing each completion in the
// producer's call — packet processing must happen inside the delivery
// event, not on a free-running goroutine the discrete-event scheduler
// cannot see — and false (a real clock) gives each worker a poller
// goroutine. It is a construction-time input: call it once, before the
// first SpawnBatch. core.NewContext is the one in-tree caller; it stays
// a method because benchmark/drives.go sets it for its isolated dpa
// drive.
func (p *Pool) SetSynchronous(sync bool) {
	p.mu.Lock()
	p.sync = sync
	p.mu.Unlock()
}

// SpawnBatch starts a worker handing whole poll drains to handler —
// the batched-completion shape the line-rate data path uses. In
// synchronous (sink) mode each delivery is a batch of one.
func (p *Pool) SpawnBatch(cq *nicsim.CQ, handler BatchHandler) *Worker {
	w := &Worker{cq: cq}
	p.mu.Lock()
	sync := p.sync
	if !sync {
		w.handler, w.done = handler, make(chan struct{})
	}
	w.next, p.workers = p.workers, w
	p.mu.Unlock()
	if !sync {
		go w.run()
		return w
	}
	// The handler is the sink itself, and the CQ stages the CQE in its
	// own scratch slot and counts it, so delivery is allocation-free end
	// to end: no poller goroutine, no wrapper, no heap-boxed completion,
	// just a direct call into the packet handler. Synchronous mode is the
	// virtual-clock mode, where every producer runs under the scheduler
	// baton, so the sink is a serial one.
	cq.SetSink(handler, true)
	return w
}

// Processed sums completions handled across all workers.
func (p *Pool) Processed() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total uint64
	for w := p.workers; w != nil; w = w.next {
		total += w.count()
	}
	return total
}

// Stop closes every worker's CQ and waits for the poller goroutines
// to drain; with synchronous workers only, it returns at once.
func (p *Pool) Stop() {
	p.mu.Lock()
	workers := p.workers
	p.workers = nil
	p.mu.Unlock()
	for w := workers; w != nil; w = w.next {
		w.cq.Close()
	}
	for w := workers; w != nil; w = w.next {
		if w.done != nil {
			<-w.done
		}
	}
}
