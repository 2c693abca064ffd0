package telemetry

import (
	"sync"
	"sync/atomic"
)

// Counter is the stack's shared monotonic counter: an atomic uint64
// with the Add/Load shape the ad-hoc atomic fields it replaces had, so
// instrumented structs embed it by value and hot paths keep their
// lock-free increments. Registering a counter into a Recorder (by
// name) is what lifts it from a private field into the telemetry
// registry figures and summaries read.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Store sets the counter (lease-reset path).
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// SeriesMode selects how a Series combines values landing in the same
// virtual-time bucket.
type SeriesMode uint8

const (
	// SeriesSum accumulates (rate-style: goodput bytes per bucket).
	SeriesSum SeriesMode = iota
	// SeriesMax keeps the bucket maximum (gauge-style: peak queue
	// depth, peak in-flight chunks).
	SeriesMax
)

// Series is a virtual-time-bucketed int64 timeseries. Buckets are laid
// out from the recorder's base time at fixed width in one grow-only
// slab; untouched buckets read as zero and are skipped on export.
// Writes take the series' own lock — probes fire from engine callbacks
// and actor goroutines, which a real clock does not serialize.
type Series struct {
	name   string
	track  int32
	mode   SeriesMode
	bucket int64 // width in nanos

	mu      sync.Mutex
	base    int64
	baseSet bool
	vals    []int64
}

// maxSeriesBuckets caps one series slab at 1<<21 buckets (16 MiB of
// int64). Observations past the cap fold into the last bucket: a
// misanchored base must degrade the tail of one series, never grow
// memory without bound.
const maxSeriesBuckets = 1 << 21

// Add accumulates delta into the bucket containing at (SeriesSum), or
// folds it as a candidate maximum (SeriesMax).
func (s *Series) Add(at, delta int64) { s.observe(at, delta) }

// ObserveMax records v as a candidate bucket maximum. On a SeriesSum
// series it accumulates (callers pick the mode at creation).
func (s *Series) ObserveMax(at, v int64) { s.observe(at, v) }

func (s *Series) observe(at, v int64) {
	s.mu.Lock()
	if !s.baseSet {
		// The recorder had no time origin when this series was created
		// (events before setBase): anchor on the first observation so a
		// Unix-epoch timestamp can't index trillions of buckets.
		s.base, s.baseSet = at, true
	}
	i := 0
	if at > s.base {
		i = int((at - s.base) / s.bucket)
	}
	if i >= maxSeriesBuckets {
		i = maxSeriesBuckets - 1
	}
	for i >= len(s.vals) {
		if cap(s.vals) > len(s.vals) {
			s.vals = s.vals[:len(s.vals)+1]
			s.vals[len(s.vals)-1] = 0
			continue
		}
		s.vals = append(s.vals, 0)
	}
	switch s.mode {
	case SeriesSum:
		s.vals[i] += v
	default:
		if v > s.vals[i] {
			s.vals[i] = v
		}
	}
	s.mu.Unlock()
}

func (s *Series) reset() {
	s.mu.Lock()
	s.vals = s.vals[:0]
	s.base, s.baseSet = 0, false
	s.mu.Unlock()
}
