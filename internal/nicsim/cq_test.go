package nicsim

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// claimPaths runs a sink test on the serial scratch claim (virtual
// clock: producers under the baton) and on the atomic one (real clock).
func claimPaths(t *testing.T, fn func(t *testing.T, serial bool)) {
	t.Run("serial", func(t *testing.T) { fn(t, true) })
	t.Run("atomic", func(t *testing.T) { fn(t, false) })
}

// A push from inside the sink (a handler whose completion produces
// another one) finds the scratch slot taken: it must still be delivered,
// at the point it was pushed, without clobbering the completion the
// outer call is still looking at.
func TestCQSinkReentrantPush(t *testing.T) {
	claimPaths(t, func(t *testing.T, serial bool) {
		cq := NewCQ(4, false)
		var seen []uint32
		cq.SetSink(func(cqes []CQE) {
			imm := cqes[0].Imm
			seen = append(seen, imm)
			if imm%10 == 1 {
				cq.Push(CQE{Imm: imm + 1})
				if cqes[0].Imm != imm {
					t.Errorf("reentrant push overwrote the outer completion: %d became %d", imm, cqes[0].Imm)
				}
			}
		}, serial)
		cq.Push(CQE{Imm: 1})
		cq.Push(CQE{Imm: 11}) // the claim was given back after the first round
		if want := []uint32{1, 2, 11, 12}; !slices.Equal(seen, want) {
			t.Fatalf("sink saw %v, want %v", seen, want)
		}
	})
}

// Producers that push concurrently (the real-clock regime) share one
// scratch slot through the atomic claim: every completion must reach
// the sink exactly once, none torn by a neighbour's write. Run under
// -race, this is also the check that the claim orders the slot's users.
func TestCQSinkConcurrentProducers(t *testing.T) {
	const producers, each = 8, 2000
	cq := NewCQ(4, false)
	var mu sync.Mutex
	seen := make(map[uint64]int, producers*each)
	cq.SetSink(func(cqes []CQE) {
		for _, e := range cqes {
			if uint64(e.Imm) != e.WRID {
				t.Errorf("torn completion: imm %d, wrid %d", e.Imm, e.WRID)
			}
			mu.Lock()
			seen[e.WRID]++
			mu.Unlock()
		}
	}, false)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := uint64(p*each + i)
				cq.Push(CQE{Imm: uint32(id), WRID: id})
			}
		}()
	}
	wg.Wait()
	if len(seen) != producers*each {
		t.Fatalf("sink saw %d distinct completions, want %d", len(seen), producers*each)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("completion %d delivered %d times", id, n)
		}
	}
}

// A sink-mode queue buffers nothing — Poll and PollInto see it empty
// however much was pushed — and drops what is pushed after Close.
func TestCQSinkBypassesRingAndStopsAtClose(t *testing.T) {
	claimPaths(t, func(t *testing.T, serial bool) {
		cq := NewCQ(4, false)
		delivered := 0
		cq.SetSink(func(cqes []CQE) { delivered += len(cqes) }, serial)
		for i := 0; i < 10; i++ { // past the capacity: nothing blocks, nothing overruns
			cq.Push(CQE{})
		}
		var buf [4]CQE
		var drain []CQE
		if n, m := cq.Poll(buf[:]), cq.PollInto(&drain); n != 0 || m != 0 {
			t.Fatalf("Poll = %d, PollInto = %d on a sink-mode queue, want 0 / 0", n, m)
		}
		cq.Close()
		cq.Push(CQE{})
		if delivered != 10 || cq.Dropped.Load() != 0 {
			t.Fatalf("delivered %d (want the 10 pushed before Close), Dropped %d", delivered, cq.Dropped.Load())
		}
	})
}

// A poller that parks in Wait before anything was pushed — its wait
// makes the queue's wakeup channel — wakes on the first Push, and, on a
// queue that never gets one, on Close. Run under -race.
func TestCQWaitParkedBeforeFirstPush(t *testing.T) {
	for _, tc := range []struct {
		name  string
		wake  func(*CQ)
		ready bool
	}{
		{"push", func(q *CQ) { q.Push(CQE{Imm: 7}) }, true},
		{"close", (*CQ).Close, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cq := NewCQ(4, false)
			woke := make(chan bool)
			go func() { woke <- cq.Wait() }()
			for parked := false; !parked; {
				time.Sleep(time.Millisecond)
				cq.mu.Lock()
				parked = cq.wake != nil
				cq.mu.Unlock()
			}
			tc.wake(cq)
			select {
			case ready := <-woke:
				if ready != tc.ready {
					t.Fatalf("Wait = %t, want %t", ready, tc.ready)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the parked poller never woke")
			}
		})
	}
}

// A sink-mode queue never makes a wakeup channel: nothing polls it.
func TestCQSinkMakesNoWakeChannel(t *testing.T) {
	cq := NewCQ(4, false)
	cq.SetSink(func([]CQE) {}, true)
	cq.Push(CQE{})
	cq.Close()
	if cq.wake != nil || cq.Handled.Load() != 1 {
		t.Fatalf("wake channel %v, Handled %d; want none and 1", cq.wake, cq.Handled.Load())
	}
}

// PollInto appends the backlog in push order after what dst holds, and
// a buffer too small for it at least doubles, so a drain buffer that
// starts empty, as a DPA poller's does, reaches a backlog in a few steps.
func TestCQPollIntoGrowsByDoubling(t *testing.T) {
	cq := NewCQ(64, false)
	push := func(from, to uint32) {
		for i := from; i < to; i++ {
			cq.Push(CQE{Imm: i})
		}
	}
	var buf []CQE
	push(0, 3)
	if n := cq.PollInto(&buf); n != 3 || cap(buf) != 3 {
		t.Fatalf("first drain: %d CQEs, capacity %d; want 3 and 3", n, cap(buf))
	}
	push(3, 7)
	if n := cq.PollInto(&buf); n != 4 || cap(buf) != 7 {
		t.Fatalf("second drain: %d CQEs, capacity %d; want 4 and the 7 needed", n, cap(buf))
	}
	push(7, 9)
	if n := cq.PollInto(&buf); n != 2 || cap(buf) != 14 {
		t.Fatalf("third drain: %d CQEs, capacity %d; want 2 and 14, double the 7 held", n, cap(buf))
	}
	for i, e := range buf {
		if e.Imm != uint32(i) {
			t.Fatalf("buf[%d].Imm = %d: the drains reordered or lost completions", i, e.Imm)
		}
	}
}
