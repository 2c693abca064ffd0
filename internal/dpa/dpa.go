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

// batchSize is how many CQEs a worker drains per poll, mirroring the
// DPA's batch completion processing.
const batchSize = 256

// Worker is one emulated DPA hardware thread bound to a CQ.
type Worker struct {
	cq      *nicsim.CQ
	handler BatchHandler
	done    chan struct{}
	// Processed counts completions handled by this worker.
	Processed atomic.Uint64
}

func (w *Worker) run() {
	defer close(w.done)
	// The drain buffer is reused across polls; PollInto grows it to the
	// backlog once and then the loop is allocation-free.
	buf := make([]nicsim.CQE, 0, batchSize)
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
		w.Processed.Add(uint64(n))
	}
}

// Pool manages a set of workers, the DPA thread group serving one SDR
// context.
type Pool struct {
	mu      sync.Mutex
	workers []*Worker
	sync    bool
	// PCIeWrites counts host-memory updates performed by handlers
	// (chunk-bitmap writes over PCIe, §3.4.2); handlers increment it.
	PCIeWrites atomic.Uint64
}

// NewPool creates an empty pool.
func NewPool() *Pool { return &Pool{} }

// SetSynchronous selects the pool's delivery mode, the deployment's
// clock kind: true (a virtual clock) makes every spawned worker the
// CQ's inline sink, processing each completion in the producer's call —
// packet processing must happen inside the delivery event, not on a
// free-running goroutine the discrete-event scheduler cannot see — and
// false (a real clock) gives each worker a poller goroutine. It is a
// construction-time input: call it once, before the first SpawnBatch.
// core.NewContext is the one in-tree caller; it stays a method because
// benchmark/drives.go sets it for its isolated dpa drive.
func (p *Pool) SetSynchronous(sync bool) {
	p.mu.Lock()
	p.sync = sync
	p.mu.Unlock()
}

// SpawnBatch starts a worker handing whole poll drains to handler —
// the batched-completion shape the line-rate data path uses. In
// synchronous (sink) mode each delivery is a batch of one.
func (p *Pool) SpawnBatch(cq *nicsim.CQ, handler BatchHandler) *Worker {
	w := &Worker{cq: cq, handler: handler, done: make(chan struct{})}
	p.mu.Lock()
	p.workers = append(p.workers, w)
	sync := p.sync
	p.mu.Unlock()
	if !sync {
		go w.run()
		return w
	}
	close(w.done) // nothing to join at Stop time
	// The CQ stages the CQE in its own scratch slot, so the sink is
	// allocation-free end to end: no poller goroutine, no heap-boxed
	// completion, just a direct call into the packet handler. Synchronous
	// mode is the virtual-clock mode, where every producer runs under the
	// scheduler baton, so the sink is a serial one.
	cq.SetSink(func(cqes []nicsim.CQE) {
		handler(cqes)
		w.Processed.Add(uint64(len(cqes)))
	}, true)
	return w
}

// Processed sums completions handled across all workers.
func (p *Pool) Processed() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total uint64
	for _, w := range p.workers {
		total += w.Processed.Load()
	}
	return total
}

// Stop closes every worker's CQ and waits for the workers to drain.
func (p *Pool) Stop() {
	p.mu.Lock()
	workers := append([]*Worker(nil), p.workers...)
	p.workers = nil
	p.mu.Unlock()
	for _, w := range workers {
		w.cq.Close()
	}
	for _, w := range workers {
		<-w.done
	}
}
