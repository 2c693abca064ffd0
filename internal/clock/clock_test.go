package clock

import (
	"fmt"
	"runtime"
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

// An instant worked out as Instant + d.Seconds() is, bit for bit, where
// After(d) fires; an instant already past fires at once.
func TestAtMatchesAfter(t *testing.T) {
	v := NewVirtual()
	var after, at []float64
	Join(v, func() {
		v.Sleep(3 * time.Millisecond)
		d := 1234567 * time.Nanosecond
		After(v, d, func() { after = append(after, Instant(v)) })
		At(v, Instant(v)+d.Seconds(), func() { at = append(at, Instant(v)) })
		At(v, Instant(v)-1, func() { at = append(at, Instant(v)) })
		v.Sleep(time.Second)
	})
	if len(after) != 1 || len(at) != 2 || at[0] != (3*time.Millisecond).Seconds() || at[1] != after[0] {
		t.Fatalf("After fired at %v, At at %v", after, at)
	}
}

// On a real clock At never fires before its instant.
func TestRealAtNotEarly(t *testing.T) {
	r := NewReal()
	want := Instant(r) + 0.002
	got := make(chan float64, 1)
	At(r, want, func() { got <- Instant(r) })
	if g := <-got; g < want {
		t.Fatalf("fired at %v, before %v", g, want)
	}
}
