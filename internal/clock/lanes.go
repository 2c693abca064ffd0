package clock

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sdrrdma/internal/simnet"
)

// Lanes fans independent simulation cells across CPU cores. Each
// worker owns one pooled Virtual engine — its lane — that is Reset
// between cells, so a sweep of N cells costs N×(cell events) but only
// W×(engine machinery) allocations for W workers. Because every cell
// is a self-contained deterministic simulation (its own clock, fabric,
// sessions and seed), the sweep's results are byte-identical for any
// worker count, including 1 — which is what lets the functional
// figures parallelize the way protosim.Sample does without giving up
// reproducibility.
//
// Reset hands a Virtual's event lanes (see Lane) out again from 0, so
// a worker's engine holds no more lanes than one cell binds, and a sweep
// costs time linear in its cell count.
//
// A zero Lanes is ready to use; it may be reused across Run calls and
// keeps its engines warm in between. Workers <= 0 means GOMAXPROCS.
type Lanes struct {
	// Workers caps the concurrent cells (<= 0: GOMAXPROCS).
	Workers int

	// Probe, when set, observes every cell's lifecycle: CellStart
	// fires on the worker goroutine just before the cell body runs on
	// its freshly Reset engine, CellFinish just after it returns, both
	// stamped with the engine's virtual nanos. telemetry.Trace
	// implements it to bracket each cell's flight record.
	Probe CellProbe

	mu   sync.Mutex
	idle []*Virtual
}

// CellProbe observes sweep-cell lifecycle on a Lanes runner.
type CellProbe interface {
	CellStart(cell int, nowNanos int64)
	CellFinish(cell int, nowNanos int64)
}

// lease takes a pooled engine (Reset and ready) or builds a fresh one.
func (l *Lanes) lease() *Virtual {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.idle); n > 0 {
		v := l.idle[n-1]
		l.idle = l.idle[:n-1]
		return v
	}
	return NewVirtual()
}

// release returns an engine to the pool, Reset and ready for the next
// cell. An engine its cell left non-idle is dropped instead (see
// renew).
func (l *Lanes) release(v *Virtual) {
	if !v.idle() {
		return
	}
	v.reset()
	l.mu.Lock()
	l.idle = append(l.idle, v)
	l.mu.Unlock()
}

// renew readies a worker's engine for its next cell: v itself, Reset,
// or a fresh engine when the last cell left v with live actors or an
// active Run — a cell that panicked mid-run, or one that recovered a
// virtual deadlock and left its blocked actors parked on v for good.
// Resetting such an engine would panic and bury the cell's own outcome
// or diagnostic under a secondary panic.
func renew(v *Virtual) *Virtual {
	if !v.idle() {
		return NewVirtual()
	}
	v.reset()
	return v
}

// Run executes cell(v, i) for every i in [0, n) across the configured
// worker count. The *Virtual passed to each cell is freshly Reset;
// the cell builds its whole deployment on it (typically finishing with
// Join) and writes its result into slot i of a pre-sized slice.
// Iteration order is unspecified; the output must depend only on i.
func (l *Lanes) Run(n int, cell func(v *Virtual, i int)) {
	if n <= 0 {
		return
	}
	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var next atomic.Int64
	lane := func() {
		v := l.lease()
		defer func() { l.release(v) }()
		for first := true; ; first = false {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if !first {
				v = renew(v)
			}
			l.runCell(v, i, cell)
		}
	}
	if workers == 1 {
		lane() // on the caller's goroutine
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane()
		}()
	}
	wg.Wait()
}

// runCell executes one cell, bracketed by the probe when one is set.
func (l *Lanes) runCell(v *Virtual, i int, cell func(v *Virtual, i int)) {
	if l.Probe == nil {
		cell(v, i)
		return
	}
	l.Probe.CellStart(i, v.NowNanos())
	cell(v, i)
	l.Probe.CellFinish(i, v.NowNanos())
}

// CellSeed derives the deterministic per-cell seed for cell i of a
// sweep rooted at seed (simnet.SplitMix64 — the same derivation
// protosim.Sample applies per sample), so neighbouring cells get
// decorrelated RNG streams regardless of which worker runs them.
func CellSeed(seed int64, i int) int64 { return simnet.SplitMix64(seed, i) }
