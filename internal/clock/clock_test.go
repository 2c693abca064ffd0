package clock

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

func TestRealNotifyWakesWaiter(t *testing.T) {
	r := NewReal()
	epoch := r.Epoch()
	go func() {
		time.Sleep(5 * time.Millisecond)
		r.Notify()
	}()
	if !r.WaitNotify(epoch, time.Second) {
		t.Fatal("WaitNotify returned timeout despite Notify")
	}
}

func TestRealWaitNotifyTimesOut(t *testing.T) {
	r := NewReal()
	start := time.Now()
	if r.WaitNotify(r.Epoch(), 5*time.Millisecond) {
		t.Fatal("WaitNotify reported a notification that never happened")
	}
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("WaitNotify returned before its timeout")
	}
}

func TestRealEpochPreventsLostWakeup(t *testing.T) {
	r := NewReal()
	epoch := r.Epoch()
	r.Notify() // notification lands before the wait starts
	if !r.WaitNotify(epoch, -1) {
		t.Fatal("stale epoch must return immediately as notified")
	}
}

func TestVirtualSleepAdvancesVirtualTimeOnly(t *testing.T) {
	v := NewVirtual()
	wallStart := time.Now()
	var elapsed time.Duration
	v.spawn(func() {
		start := v.Now()
		v.Sleep(10 * time.Second)
		elapsed = v.Since(start)
	})
	v.run()
	if elapsed != 10*time.Second {
		t.Fatalf("virtual elapsed = %v, want exactly 10s", elapsed)
	}
	if wall := time.Since(wallStart); wall > 2*time.Second {
		t.Fatalf("10 virtual seconds took %v wall-clock", wall)
	}
}

func TestVirtualActorsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		v := NewVirtual()
		var trace []string
		for i := 0; i < 4; i++ {
			i := i
			v.spawn(func() {
				for step := 0; step < 3; step++ {
					v.Sleep(time.Duration(i+1) * time.Millisecond)
					trace = append(trace, fmt.Sprintf("a%d@%v", i, v.Elapsed()))
				}
			})
		}
		v.run()
		return trace
	}
	first := run()
	prev := runtime.GOMAXPROCS(1)
	second := run()
	runtime.GOMAXPROCS(prev)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("traces differ across runs/GOMAXPROCS:\n%v\n%v", first, second)
	}
}

func TestVirtualNotifyWakesBeforeTimeout(t *testing.T) {
	v := NewVirtual()
	var waiterWoke, notified bool
	var wokeAt time.Duration
	v.spawn(func() {
		epoch := v.Epoch()
		notified = v.WaitNotify(epoch, time.Hour)
		waiterWoke = true
		wokeAt = v.Elapsed()
	})
	v.spawn(func() {
		v.Sleep(3 * time.Millisecond)
		v.Notify()
	})
	v.run()
	if !waiterWoke || !notified {
		t.Fatalf("woke=%v notified=%v, want notified wake", waiterWoke, notified)
	}
	if wokeAt != 3*time.Millisecond {
		t.Fatalf("woke at %v, want exactly 3ms (virtual)", wokeAt)
	}
}

func TestVirtualWaitNotifyTimeout(t *testing.T) {
	v := NewVirtual()
	var notified bool
	v.spawn(func() {
		notified = v.WaitNotify(v.Epoch(), 7*time.Millisecond)
	})
	v.run()
	if notified {
		t.Fatal("no Notify was issued; wait must time out")
	}
	if v.Elapsed() != 7*time.Millisecond {
		t.Fatalf("clock at %v, want exactly the 7ms timeout", v.Elapsed())
	}
}

func TestVirtualStaleEpochReturnsImmediately(t *testing.T) {
	v := NewVirtual()
	var notified bool
	v.spawn(func() {
		epoch := v.Epoch()
		v.Notify()
		notified = v.WaitNotify(epoch, -1) // d<0: would deadlock if lost
	})
	v.run()
	if !notified {
		t.Fatal("stale epoch must report notified without blocking")
	}
}

func TestVirtualAfterFuncTimer(t *testing.T) {
	v := NewVirtual()
	var fired []time.Duration
	v.spawn(func() {
		stopped := v.AfterFunc(5*time.Millisecond, func() {
			fired = append(fired, v.Elapsed())
		})
		reset := v.AfterFunc(2*time.Millisecond, func() {
			fired = append(fired, v.Elapsed())
		})
		if !stopped.Stop() {
			t.Error("Stop on a pending timer must report true")
		}
		if stopped.Stop() {
			t.Error("second Stop must report false")
		}
		if !reset.Reset(8 * time.Millisecond) {
			t.Error("Reset on a pending timer must report true")
		}
		v.Sleep(20 * time.Millisecond)
		if reset.Reset(time.Millisecond) {
			t.Error("Reset after firing must report false")
		}
		v.Sleep(5 * time.Millisecond)
	})
	v.run()
	if fmt.Sprint(fired) != fmt.Sprint([]time.Duration{8 * time.Millisecond, 21 * time.Millisecond}) {
		t.Fatalf("timer firings = %v", fired)
	}
}

// TestVirtualDroppedTimerIsCollected: a timer that fired, or was
// stopped, and that its holder dropped is garbage while the clock lives
// on, and so is what its closure captured (reliability's retire timer
// holds a segment's handles and final ACK).
func TestVirtualDroppedTimerIsCollected(t *testing.T) {
	v := NewVirtual()
	var timers []weak.Pointer[virtualTimer]
	var payloads []weak.Pointer[[4096]byte]
	fired := 0
	Join(v, func() {
		for i := 0; i < 2; i++ {
			payload := new([4096]byte)
			tm := v.AfterFunc(time.Millisecond, func() { fired += len(payload) })
			if i == 1 {
				tm.Stop()
			}
			timers = append(timers, weak.Make(tm.(*virtualTimer)))
			payloads = append(payloads, weak.Make(payload))
		}
		v.Sleep(2 * time.Millisecond)
	})
	if fired != 4096 {
		t.Fatalf("the fired timer's callback ran for %d bytes, want 4096", fired)
	}
	runtime.GC()
	for i := range timers {
		if timers[i].Value() != nil || payloads[i].Value() != nil {
			t.Errorf("timer %d (stopped: %v) or its closure outlived its holder on a live clock", i, i == 1)
		}
	}
	runtime.KeepAlive(v)
}

func TestVirtualDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run must panic on a blocked-forever actor")
		}
	}()
	v := NewVirtual()
	v.spawn(func() { v.WaitNotify(v.Epoch(), -1) })
	v.run()
}

func TestVirtualActorsSpawnActors(t *testing.T) {
	v := NewVirtual()
	var count atomic.Int32
	v.spawn(func() {
		v.Sleep(time.Millisecond)
		for i := 0; i < 3; i++ {
			v.spawn(func() {
				v.Sleep(time.Millisecond)
				count.Add(1)
			})
		}
	})
	v.run()
	if count.Load() != 3 {
		t.Fatalf("nested actors ran %d times, want 3", count.Load())
	}
	if v.Elapsed() != 2*time.Millisecond {
		t.Fatalf("elapsed %v, want 2ms", v.Elapsed())
	}
}

func TestJoinBothBackends(t *testing.T) {
	for _, clk := range []Clock{NewReal(), NewVirtual()} {
		var a, b bool
		Join(clk, func() { a = true }, func() { b = true })
		if !a || !b {
			t.Fatalf("IsVirtual=%v: Join did not run all fns (a=%v b=%v)",
				clk.IsVirtual(), a, b)
		}
	}
}

func TestOrDefaultsToSharedRealtime(t *testing.T) {
	if Or(nil) != Realtime() {
		t.Fatal("Or(nil) must return the shared realtime clock")
	}
	v := NewVirtual()
	if Or(v) != Clock(v) {
		t.Fatal("Or must pass a non-nil clock through")
	}
}

// fixedEventLog is a stand-in flight recorder for the deadlock
// diagnostic: it answers ActorTail with a canned tail for one actor.
type fixedEventLog struct {
	actor, tail string
}

func (l fixedEventLog) ActorTail(actor string, max int) string {
	if actor == l.actor && max > 0 {
		return l.tail
	}
	return ""
}

func TestVirtualDeadlockDumpsEventLog(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run must panic on a blocked-forever actor")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "stalled-sender") {
			t.Fatalf("diagnostic %q does not name the actor", msg)
		}
		if !strings.Contains(msg, "[recent: retransmit@1ms]") {
			t.Fatalf("diagnostic %q does not carry the actor's telemetry tail", msg)
		}
	}()
	v := NewVirtual()
	v.SetEventLog(fixedEventLog{actor: "stalled-sender", tail: "recent: retransmit@1ms"})
	v.spawnNamed("stalled-sender", func() { v.WaitNotify(v.Epoch(), -1) })
	v.run()
}

func TestVirtualResetDetachesEventLog(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run must panic on a blocked-forever actor")
		}
		if msg := fmt.Sprint(r); strings.Contains(msg, "recent:") {
			t.Fatalf("diagnostic %q leaked the previous cell's event log", msg)
		}
	}()
	v := NewVirtual()
	v.SetEventLog(fixedEventLog{actor: "stalled-sender", tail: "recent: retransmit@1ms"})
	v.spawn(func() {})
	v.run()
	v.reset()
	v.spawnNamed("stalled-sender", func() { v.WaitNotify(v.Epoch(), -1) })
	v.run()
}

// The timeline is integer nanoseconds however long a run gets. At
// offsets from 0 up to 10¹³ ns (≈ 2.8 virtual hours), four instants
// 1 ns apart — through At, At, RunAtLane and a Sleep's wake — fire in
// time order, each reading its own instant back from NowNanos exactly,
// and an instant already past fires at once, at the current one.
func TestIntegerTimeline(t *testing.T) {
	v := NewVirtual()
	base := v.NowNanos()
	var lane Lane
	var want, got []int64
	record := func(at int64) func() {
		want = append(want, at)
		return func() { got = append(got, v.NowNanos()) }
	}
	offsets := 0
	Join(v, func() {
		for off := int64(0); off <= 1e13; off = off + off/5 + 4 {
			now, at := v.NowNanos(), base+off
			v.At(now-1, record(now))
			v.At(at, record(at))
			v.At(at+1, record(at+1))
			v.RunAtLane(&lane, at+2, record(at+2))
			v.Sleep(time.Duration(at + 3 - now))
			got = append(got, v.NowNanos())
			want = append(want, at+3)
			offsets++
		}
	})
	if last := want[len(want)-1] - base; offsets < 140 || last < 8e12 {
		t.Fatalf("covered %d offsets up to %d ns", offsets, last)
	}
	if !slices.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("event %d read NowNanos %d (offset %d), want %d", i, got[i], got[i]-base, want[i]-base)
			}
		}
		t.Fatalf("%d events fired, want %d", len(got), len(want))
	}
}

// On a real clock At never fires before its instant.
func TestRealAtNotEarly(t *testing.T) {
	r := NewReal()
	want := r.NowNanos() + int64(2*time.Millisecond)
	got := make(chan int64, 1)
	r.At(want, func() { got <- r.NowNanos() })
	if g := <-got; g < want {
		t.Fatalf("fired at %d, before %d", g, want)
	}
}

// A real clock's lane keeps the lane rule of a Virtual's: a
// same-instant burst runs in schedule order, one closure at a time, and
// a closure pushed with an earlier instant runs behind those already
// queued; a closure that blocks on one lane does not hold up another.
// Every check counts: a lane that waited on another would hang here
// until the test binary's timeout.
func TestRealLaneRunsInScheduleOrder(t *testing.T) {
	r := NewReal()
	ln, other := new(Lane), new(Lane)
	release := make(chan struct{})
	r.RunAtLane(ln, r.NowNanos(), func() { <-release })
	r.RunAtLane(other, r.NowNanos(), func() { close(release) })

	const n = 64
	var inside, overlaps atomic.Int32
	got := make(chan int, n+1)
	at := r.NowNanos() + int64(time.Millisecond)
	for k := 0; k < n; k++ {
		r.RunAtLane(ln, at, func() {
			if inside.Add(1) > 1 {
				overlaps.Add(1)
			}
			runtime.Gosched()
			got <- k
			inside.Add(-1)
		})
	}
	r.RunAtLane(ln, at-int64(time.Millisecond), func() { got <- n })
	for k := 0; k <= n; k++ {
		if g := <-got; g != k {
			t.Fatalf("closure %d ran in place %d", g, k)
		}
	}
	if o := overlaps.Load(); o != 0 {
		t.Fatalf("a closure of the lane started %d times while another ran", o)
	}
}

// A real clock's NowNanos never runs backwards and stays on the Unix
// timeline.
func TestRealNowNanos(t *testing.T) {
	r := NewReal()
	prev := r.NowNanos()
	for range 10000 {
		now := r.NowNanos()
		if now < prev {
			t.Fatalf("NowNanos went back from %d to %d", prev, now)
		}
		prev = now
	}
	time.Sleep(2 * time.Millisecond)
	if skew := time.Duration(r.NowNanos() - time.Now().UnixNano()); skew.Abs() > 100*time.Millisecond {
		t.Fatalf("NowNanos is %v off the wall clock", skew)
	}
}
