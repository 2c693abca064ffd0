package simnet

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// run drains the event queue completely.
func (e *Engine) run() {
	for e.Step() {
	}
}

func TestOrderingAndClock(t *testing.T) {
	e := New()
	var order []int
	e.At(e.Now()+3, func() { order = append(order, 3) })
	e.At(e.Now()+1, func() { order = append(order, 1) })
	e.At(e.Now()+2, func() { order = append(order, 2) })
	e.run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %g, want 3", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of scheduling order: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	tm := e.At(e.Now()+1, func() { fired = true })
	tm.Cancel()
	tm.Cancel() // double-cancel is a no-op
	e.run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run", e.Pending())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []float64
	e.At(e.Now()+1, func() {
		times = append(times, e.Now())
		e.At(e.Now()+1, func() {
			times = append(times, e.Now())
			e.At(e.Now()+1, func() { times = append(times, e.Now()) })
		})
	})
	e.run()
	want := []float64{1, 2, 3}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v", times)
		}
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(e.Now()+2, func() {})
	e.run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(1, func() {})
}

// recorder collects typed events for handler-dispatch tests.
type recorder struct {
	events [][3]int32
}

func (r *recorder) HandleEvent(kind, a, b int32) {
	r.events = append(r.events, [3]int32{kind, a, b})
}

func TestTypedEventDispatch(t *testing.T) {
	e := New()
	r := &recorder{}
	e.SetHandler(r)
	e.Schedule(2, 1, 10, 20)
	e.ScheduleAfter(1, 2, 30, 40)
	e.run()
	want := [][3]int32{{2, 30, 40}, {1, 10, 20}}
	if len(r.events) != len(want) {
		t.Fatalf("events = %v", r.events)
	}
	for i := range want {
		if r.events[i] != want[i] {
			t.Fatalf("events = %v, want %v", r.events, want)
		}
	}
	if e.Now() != 2 {
		t.Fatalf("clock = %g, want 2", e.Now())
	}
}

// A cancelled slot is recycled for a new event; the stale Timer handle
// from the first occupant must not cancel the second (ABA). The
// generation counter on each slot prevents this.
func TestCancelThenReuseGeneration(t *testing.T) {
	e := New()
	fired := 0
	t1 := e.At(e.Now()+1, func() { fired++ })
	t1.Cancel()
	// Drain: the cancelled slot pops off the heap and returns to the
	// free list with a bumped generation.
	e.run()
	// The recycled slot now backs a different event.
	t2 := e.At(e.Now()+1, func() { fired += 10 })
	if t1.idx != t2.idx {
		t.Fatalf("free list did not recycle slot %d (got %d)", t1.idx, t2.idx)
	}
	t1.Cancel() // stale handle: must be a no-op on the new occupant
	e.run()
	if fired != 10 {
		t.Fatalf("fired = %d, want 10 (stale cancel hit the recycled slot)", fired)
	}
}

// Cancelling a timer while it is still in the heap, then scheduling
// again, must not duplicate or lose events.
func TestCancelWhilePending(t *testing.T) {
	e := New()
	var order []int
	tm := e.At(e.Now()+1, func() { order = append(order, 1) })
	e.At(e.Now()+2, func() { order = append(order, 2) })
	tm.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after cancel, want 1", e.Pending())
	}
	e.At(e.Now()+3, func() { order = append(order, 3) })
	e.run()
	if len(order) != 2 || order[0] != 2 || order[1] != 3 {
		t.Fatalf("order = %v, want [2 3]", order)
	}
}

// Reset must rewind the clock, discard pending events, invalidate
// outstanding timers, and leave the engine fully reusable — the
// property Monte Carlo sampling relies on.
func TestResetReuse(t *testing.T) {
	e := New()
	fired := 0
	e.At(e.Now()+5, func() { fired++ })
	stale := e.At(e.Now()+7, func() { fired += 100 })
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("after Reset: now=%g pending=%d", e.Now(), e.Pending())
	}
	stale.Cancel() // must not touch whatever reuses the slot
	// Second "sample" reuses the same engine.
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.At(float64(i), func() { order = append(order, i) })
	}
	e.run()
	if fired != 0 {
		t.Fatalf("events from before Reset fired (fired=%d)", fired)
	}
	if len(order) != 4 {
		t.Fatalf("post-Reset events = %v", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("post-Reset order = %v", order)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %g, want 3", e.Now())
	}
}

// Regression: same-instant ordering must survive slab recycling. Mixed
// cancelled and live events at one timestamp fire in scheduling order.
func TestSameTimeFIFOAfterChurn(t *testing.T) {
	e := New()
	// Churn the slab so the free list is non-trivial.
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			tm := e.At(e.Now()+1, func() {})
			if i%2 == 0 {
				tm.Cancel()
			}
		}
		e.run()
		e.Reset()
	}
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		tm := e.At(5, func() { order = append(order, i) })
		if i%3 == 0 {
			tm.Cancel()
		}
	}
	e.run()
	want := 0
	for i := 0; i < 100; i++ {
		if i%3 == 0 {
			continue
		}
		if want >= len(order) || order[want] != i {
			t.Fatalf("same-instant events fired out of scheduling order after churn: %v", order)
		}
		want++
	}
}

// Lane events and heap events must interleave in exact (time, seq)
// order, including same-instant FIFO across sources.
func TestLaneHeapMergeOrdering(t *testing.T) {
	e := New()
	r := &recorder{}
	e.SetHandler(r)
	e.Lanes(2)
	e.ScheduleLane(0, 3, 0, 0, 0) // seq 0
	e.Schedule(1, 1, 0, 0)        // seq 1 (heap)
	e.ScheduleLane(1, 3, 2, 0, 0) // seq 2: same instant as seq 0, fires after
	e.Schedule(3, 3, 0, 0)        // seq 3: same instant, heap, fires last
	e.ScheduleLane(0, 5, 4, 0, 0) // seq 4
	e.run()
	want := []int32{1, 0, 2, 3, 4}
	if len(r.events) != len(want) {
		t.Fatalf("events = %v", r.events)
	}
	for i, kind := range want {
		if r.events[i][0] != kind {
			t.Fatalf("fire order = %v, want kinds %v", r.events, want)
		}
	}
}

// A non-monotone lane push must fall back to the heap and still fire
// in correct global order.
func TestLaneNonMonotoneFallback(t *testing.T) {
	e := New()
	r := &recorder{}
	e.SetHandler(r)
	e.Lanes(1)
	e.ScheduleLane(0, 10, 0, 0, 0)
	e.ScheduleLane(0, 4, 1, 0, 0) // violates lane monotonicity
	e.ScheduleLane(0, 12, 2, 0, 0)
	e.run()
	want := []int32{1, 0, 2}
	for i, kind := range want {
		if r.events[i][0] != kind {
			t.Fatalf("fire order = %v, want kinds %v", r.events, want)
		}
	}
}

// Cancelled lane entries must drain without firing, and Reset must
// discard lane contents.
func TestLaneCancelAndReset(t *testing.T) {
	e := New()
	r := &recorder{}
	e.SetHandler(r)
	e.Lanes(1)
	tm := e.ScheduleLane(0, 1, 0, 0, 0)
	e.ScheduleLane(0, 2, 1, 0, 0)
	tm.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after lane cancel, want 1", e.Pending())
	}
	e.run()
	if len(r.events) != 1 || r.events[0][0] != 1 {
		t.Fatalf("events = %v, want only kind 1", r.events)
	}
	e.ScheduleLane(0, 5, 2, 0, 0)
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 {
		t.Fatalf("after Reset: pending=%d now=%g", e.Pending(), e.Now())
	}
	e.ScheduleLane(0, 1, 3, 0, 0) // lane must be reusable post-Reset
	e.run()
	if last := r.events[len(r.events)-1][0]; last != 3 {
		t.Fatalf("post-Reset lane event kind = %d, want 3", last)
	}
}

// A lane that never fully drains — a delivery lane under standing load
// — must not drag its popped prefix along: storage stays bounded by the
// standing depth (it used to grow by one entry per event, forever) and
// the firing order survives every compaction.
func TestLaneStandingLoadStaysBounded(t *testing.T) {
	e := New()
	r := &recorder{}
	e.SetHandler(r)
	const standing, rounds = 100, 5000
	at, next := 0.0, int32(0)
	push := func() {
		at++
		e.ScheduleLane(0, at, 0, next, 0)
		next++
	}
	for i := 0; i < standing; i++ {
		push()
	}
	for i := 0; i < rounds; i++ {
		push()
		e.Step()
	}
	if c := cap(e.lanes[0].ring); c > 4*standing {
		t.Fatalf("lane storage grew to %d entries for a standing depth of %d", c, standing)
	}
	e.run()
	if len(r.events) != standing+rounds {
		t.Fatalf("fired %d of %d", len(r.events), standing+rounds)
	}
	for i, ev := range r.events {
		if ev[1] != int32(i) {
			t.Fatalf("event %d fired as %d: lane order broken by compaction", i, ev[1])
		}
	}
}

// Property: events always fire in non-decreasing time order regardless
// of insertion order.
func TestMonotoneFiringProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var fired []float64
		n := rng.Intn(200) + 1
		delays := make([]float64, n)
		for i := range delays {
			delays[i] = rng.Float64() * 100
			d := delays[i]
			e.At(d, func() { fired = append(fired, d) })
		}
		e.run()
		if len(fired) != n {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
