// Worker-pool parallelism for the EC hot kernels. The paper hides
// encoding behind injection by spreading the XOR/RS kernels over spare
// cores (§5.1.1, Fig 11); here a process-wide pool of GOMAXPROCS
// workers shards the byte ranges of a submessage (the kernels compute
// every parity row of a range in one pass, so rows are not a unit of
// work). Small submessages stay on the caller's goroutine — the
// crossover where handoff overhead is paid back is
// parallelMinShardBytes per shard.

package ec

import (
	"runtime"
	"sync"
)

// parallelMinShardBytes is the shard size below which Encode and
// Reconstruct stay serial. The paper's chunk is 64 KiB, comfortably
// above it; control-sized shards never pay goroutine handoff.
const parallelMinShardBytes = 16 << 10

// segAlign keeps segment boundaries cache-line aligned so two workers
// never read-modify-write bytes of the same line of a parity shard.
const segAlign = 64

// rangeTask is one byte range of a forEachRange call.
type rangeTask struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolOnce    sync.Once
	poolTasks   chan rangeTask
	poolWorkers int
)

// startPool spins up the shared kernel workers. Sized once from
// GOMAXPROCS at first use; later GOMAXPROCS changes do not resize it
// (callers fall back to inline execution when the queue is full).
func startPool() {
	poolWorkers = runtime.GOMAXPROCS(0)
	// Room for a few concurrent callers' segments before they run inline.
	poolTasks = make(chan rangeTask, 4*poolWorkers)
	for i := 0; i < poolWorkers; i++ {
		go func() {
			for t := range poolTasks {
				t.fn(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
}

// forcedParallelism, when nonzero, overrides the worker count seen by
// the dispatch decision. Set via ForceParallelism.
var forcedParallelism int

// ForceParallelism overrides the dispatch decision to behave as if n
// workers were available (n=1 forces the serial path; 0 restores the
// GOMAXPROCS default) and returns a restore func. It is for
// single-core throughput measurement (Fig 11's Gbit/s/core) and for
// exercising the sharded path on single-core machines; it is not
// synchronized with concurrent Encode/Reconstruct calls.
func ForceParallelism(n int) (restore func()) {
	old := forcedParallelism
	forcedParallelism = n
	return func() { forcedParallelism = old }
}

// parallelism reports how many kernel workers are available.
func parallelism() int {
	if forcedParallelism != 0 {
		return forcedParallelism
	}
	poolOnce.Do(startPool)
	return poolWorkers
}

// useParallel reports whether kernel work over shards of shardBytes is
// worth sharding across the pool. Callers run the serial path directly
// (no closure, no allocation) when it is not.
func useParallel(shardBytes int) bool {
	return shardBytes >= parallelMinShardBytes && parallelism() > 1
}

// forEachRange splits [0,size) into one cache-line-aligned byte range
// per worker (no range below parallelMinShardBytes), runs fn over them
// on the pool and waits. Ranges must be independent. If the pool queue
// is full the caller runs the range inline, so progress never depends
// on pool capacity (no deadlock when many codes encode concurrently).
// Call only when useParallel(size).
func forEachRange(size int, fn func(lo, hi int)) {
	nseg := min(parallelism(), size/parallelMinShardBytes)
	seg := (size/nseg + segAlign - 1) &^ (segAlign - 1)
	poolOnce.Do(startPool)
	var wg sync.WaitGroup
	for lo := 0; lo < size; lo += seg {
		hi := min(lo+seg, size)
		wg.Add(1)
		select {
		case poolTasks <- rangeTask{fn, lo, hi, &wg}:
		default:
			fn(lo, hi)
			wg.Done()
		}
	}
	wg.Wait()
}
