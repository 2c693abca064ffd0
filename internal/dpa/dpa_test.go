package dpa

import (
	"sync/atomic"
	"testing"
	"time"

	"sdrrdma/internal/nicsim"
)

// bothModes runs a test against a poller-goroutine pool (real clock)
// and a synchronous-sink pool (virtual clock).
func bothModes(t *testing.T, fn func(t *testing.T, pool *Pool, sync bool)) {
	for _, sync := range []bool{false, true} {
		name := "poller"
		if sync {
			name = "synchronous"
		}
		t.Run(name, func(t *testing.T) {
			pool := NewPool()
			pool.SetSynchronous(sync)
			fn(t, pool, sync)
		})
	}
}

func TestWorkerProcessesAll(t *testing.T) {
	bothModes(t, func(t *testing.T, pool *Pool, sync bool) {
		cq := nicsim.NewCQ(1024, false)
		var sum atomic.Uint64
		w := pool.SpawnBatch(cq, func(cqes []nicsim.CQE) {
			for i := range cqes {
				sum.Add(uint64(cqes[i].Imm))
			}
		})
		var want uint64
		for i := 1; i <= 500; i++ {
			cq.Push(nicsim.CQE{Imm: uint32(i)})
			want += uint64(i)
		}
		if sync {
			// Inline processing: everything is handled and counted by
			// the time Push returns, before any Stop.
			if got := w.count(); got != 500 || sum.Load() != want {
				t.Fatalf("before Stop: Processed = %d, sum = %d, want 500 / %d", got, sum.Load(), want)
			}
		}
		pool.Stop()
		if got := sum.Load(); got != want {
			t.Fatalf("handler sum = %d, want %d", got, want)
		}
		if w.count() != 500 {
			t.Fatalf("Processed = %d, want 500", w.count())
		}
	})
}

func countWorkers(pool *Pool) (n int) {
	for w := pool.workers; w != nil; w = w.next {
		n++
	}
	return n
}

func TestPoolCounters(t *testing.T) {
	bothModes(t, func(t *testing.T, pool *Pool, sync bool) {
		cqs := make([]*nicsim.CQ, 4)
		for i := range cqs {
			cqs[i] = nicsim.NewCQ(256, false)
			pool.SpawnBatch(cqs[i], func([]nicsim.CQE) {})
		}
		if n := countWorkers(pool); n != 4 {
			t.Fatalf("workers = %d", n)
		}
		for i, cq := range cqs {
			for j := 0; j <= i; j++ {
				cq.Push(nicsim.CQE{})
			}
		}
		if got := pool.Processed(); sync && got != 1+2+3+4 {
			t.Fatalf("Processed = %d, want 10 (summed across synchronous workers)", got)
		}
		pool.Stop()
		if got := pool.Processed(); got != 0 {
			// Stop clears the worker list; Processed sums live workers.
			t.Fatalf("Processed after Stop = %d, want 0 (workers detached)", got)
		}
		if n := countWorkers(pool); n != 0 {
			t.Fatalf("workers after Stop = %d", n)
		}
	})
}

func TestProcessedBeforeStop(t *testing.T) {
	pool := NewPool()
	cq := nicsim.NewCQ(64, false)
	done := make(chan struct{})
	pool.SpawnBatch(cq, func([]nicsim.CQE) {
		select {
		case <-done:
		default:
			close(done)
		}
	})
	cq.Push(nicsim.CQE{})
	<-done
	// allow the counter increment after the handler returns
	for i := 0; i < 1000 && pool.Processed() == 0; i++ {
	}
	if pool.Processed() == 0 {
		t.Fatal("Processed not counted")
	}
	pool.Stop()
}

func TestStopIdempotentAndConcurrentPush(t *testing.T) {
	pool := NewPool()
	cq := nicsim.NewCQ(16, true) // overrun mode: pushes after close drop
	pool.SpawnBatch(cq, func([]nicsim.CQE) {})
	go func() {
		for i := 0; i < 10000; i++ {
			cq.Push(nicsim.CQE{})
		}
	}()
	pool.Stop()
	pool.Stop() // second stop is a no-op
}

// A synchronous pool has no goroutine to join: Stop returns at once,
// closes the CQs, and a completion pushed afterwards reaches no handler.
func TestSynchronousStopDropsLatePushes(t *testing.T) {
	pool := NewPool()
	pool.SetSynchronous(true)
	cq := nicsim.NewCQ(16, false)
	handled := 0
	w := pool.SpawnBatch(cq, func(cqes []nicsim.CQE) { handled += len(cqes) })
	cq.Push(nicsim.CQE{})
	pool.Stop()
	pool.Stop()
	cq.Push(nicsim.CQE{})
	if handled != 1 || w.count() != 1 {
		t.Fatalf("handled %d, Processed %d after a push behind Stop, want 1 / 1", handled, w.count())
	}
}

// Stop joins a poller: it does not return while the worker's handler is
// still inside a batch. A synchronous pool has no goroutine to join,
// and its Stop returns at once. Run under -race.
func TestStopJoinsPollersOnly(t *testing.T) {
	stopped := func(pool *Pool) chan struct{} {
		done := make(chan struct{})
		go func() { pool.Stop(); close(done) }()
		return done
	}
	t.Run("poller", func(t *testing.T) {
		pool := NewPool()
		cq := nicsim.NewCQ(16, false)
		entered, release := make(chan struct{}), make(chan struct{})
		handled := 0
		pool.SpawnBatch(cq, func(cqes []nicsim.CQE) {
			if handled == 0 {
				close(entered)
				<-release
			}
			handled += len(cqes)
		})
		cq.Push(nicsim.CQE{})
		<-entered
		done := stopped(pool)
		select {
		case <-done:
			t.Fatal("Stop returned while the poller was inside a batch")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Stop never returned after the batch did")
		}
		if handled != 1 {
			t.Fatalf("handled %d completions, want 1", handled)
		}
	})
	t.Run("synchronous", func(t *testing.T) {
		pool := NewPool()
		pool.SetSynchronous(true)
		pool.SpawnBatch(nicsim.NewCQ(16, false), func([]nicsim.CQE) {})
		select {
		case <-stopped(pool):
		case <-time.After(10 * time.Second):
			t.Fatal("Stop of a synchronous pool never returned")
		}
	})
}
