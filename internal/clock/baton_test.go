package clock

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A drive fires engine events back to back without the clock mutex, but an
// event whose callback makes an actor runnable — its wake-up timer, a
// Notify, a Go — must hand the baton to that actor before the next
// event fires, even one due at the same instant. The expected order is
// the one the per-event-locking scheduler produced (recorded on the
// parent commit).
func TestVirtualEventHandsBatonBeforeNextEvent(t *testing.T) {
	v := NewVirtual()
	var order []string
	log := func(s string) { order = append(order, fmt.Sprintf("%s@%v", s, v.Elapsed())) }

	// Five events due at the same instant, in scheduling order: a plain
	// callback, the sleeper's wake-up, a Notify, a Go, a plain callback;
	// then one later event.
	v.AfterFunc(time.Millisecond, func() { log("e0") })
	v.spawnNamed("sleeper", func() {
		v.Sleep(time.Millisecond)
		log("sleeper-woke")
		v.Sleep(time.Millisecond)
		log("sleeper-done")
	})
	v.spawnNamed("waiter", func() {
		v.WaitNotify(v.Epoch(), -1)
		log("waiter-notified")
	})
	v.spawnNamed("setup", func() {
		// Runs after sleeper and waiter parked, so these three events
		// are sequenced after the sleeper's wake-up.
		v.AfterFunc(time.Millisecond, func() { log("e-notify"); v.Notify() })
		v.AfterFunc(time.Millisecond, func() {
			log("e-go")
			v.spawnNamed("spawned", func() { log("spawned-ran") })
		})
		v.AfterFunc(time.Millisecond, func() { log("e-last") })
		v.AfterFunc(1500*time.Microsecond, func() { log("e-later") })
	})
	v.run()

	want := "e0@1ms sleeper-woke@1ms e-notify@1ms waiter-notified@1ms e-go@1ms spawned-ran@1ms " +
		"e-last@1ms e-later@1.5ms sleeper-done@2ms"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("interleaving changed:\n got %s\nwant %s", got, want)
	}
}

func switchesOf(v *Virtual) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.switches
}

// An actor whose own wake-up is the next thing to happen keeps the
// baton: after its first grant a lone sleeper makes no goroutine switch
// at all. Two actors ping-ponging through Notify/WaitNotify make one
// switch per turn — the one hand-off the driver keeps.
func TestVirtualDriverSwitches(t *testing.T) {
	v := NewVirtual()
	var first, last int
	Join(v, func() {
		first = switchesOf(v)
		for i := 0; i < 100; i++ {
			v.Sleep(time.Microsecond)
		}
		last = switchesOf(v)
	})
	if first != 1 || last != first {
		t.Fatalf("lone sleeper: %d switches at its first grant, %d after 100 sleeps; want 1 and 1", first, last)
	}

	const turns = 50
	turn := 0
	player := func(me int) func() {
		return func() {
			for i := 0; i < turns; i++ {
				for turn != me {
					v.WaitNotify(v.Epoch(), -1)
				}
				turn = 1 - me
				v.Notify()
			}
		}
	}
	before := switchesOf(v)
	Join(v, player(0), player(1))
	// run's first grant, then one switch between consecutive turns.
	if got := switchesOf(v) - before; got != 2*turns {
		t.Fatalf("ping-pong of %d turns made %d switches, want %d", 2*turns, got, 2*turns)
	}
}

// A callback that panics while an actor drives the clock surfaces from
// Join on the Join goroutine with its own value; the actor's own
// recover (chaos wraps each side in one) never sees it.
func TestVirtualCallbackPanicSurfacesFromJoin(t *testing.T) {
	type boom struct{ n int }
	v := NewVirtual()
	v.AfterFunc(time.Millisecond, func() { panic(boom{7}) })
	actorCaught := false
	defer func() {
		if r := recover(); r != (boom{7}) {
			t.Fatalf("Join raised %v, want the callback's panic value", r)
		}
		if actorCaught {
			t.Fatal("the driving actor's recover caught a callback's panic")
		}
	}()
	Join(v, func() {
		defer func() { actorCaught = recover() != nil }()
		v.Sleep(time.Second)
	})
}

// A callback that calls runtime.Goexit (t.FailNow does) on a driving
// actor's goroutine makes run panic with a diagnostic instead of
// hanging.
func TestVirtualCallbackGoexitPanicsRun(t *testing.T) {
	v := NewVirtual()
	v.AfterFunc(time.Millisecond, runtime.Goexit)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "runtime.Goexit") {
			t.Fatalf("Join raised %q, want a diagnostic naming runtime.Goexit", msg)
		}
	}()
	Join(v, func() { v.Sleep(time.Second) })
}

// The last actor to finish fires no events: an AfterFunc still pending
// stays pending, and fires at its own virtual time inside the next
// Join.
func TestVirtualPendingEventOutlivesRun(t *testing.T) {
	v := NewVirtual()
	firedAt := time.Duration(-1)
	Join(v, func() {
		v.AfterFunc(5*time.Millisecond, func() { firedAt = v.Elapsed() })
		v.Sleep(time.Millisecond)
	})
	if firedAt != -1 || v.Elapsed() != time.Millisecond {
		t.Fatalf("after the run: fired at %v, clock at %v; want unfired at 1ms", firedAt, v.Elapsed())
	}
	Join(v, func() { v.Sleep(10 * time.Millisecond) })
	if firedAt != 5*time.Millisecond {
		t.Fatalf("pending AfterFunc fired at %v, want 5ms", firedAt)
	}
}

// An actor spawned from a plain goroutine while an actor drives the
// clock stops the drive before the next event, even one due at the
// same instant, and joins the ready FIFO behind the actors an event
// had already readied.
func TestVirtualOutsideSpawnStopsDrive(t *testing.T) {
	v := NewVirtual()
	var order []string
	log := func(s string) { order = append(order, fmt.Sprintf("%s@%v", s, v.Elapsed())) }
	spawnOutside := func(name string) {
		done := make(chan struct{})
		go func() {
			v.spawnNamed(name, func() { log(name) })
			close(done)
		}()
		<-done
	}
	v.spawnNamed("waiter", func() {
		v.WaitNotify(v.Epoch(), -1)
		log("waiter")
	})
	v.spawnNamed("driver", func() {
		v.AfterFunc(time.Millisecond, func() { spawnOutside("outside-1") })
		v.AfterFunc(time.Millisecond, func() { log("after-1") })
		v.AfterFunc(2*time.Millisecond, func() { v.Notify(); spawnOutside("outside-2") })
		v.AfterFunc(2*time.Millisecond, func() { log("after-2") })
		v.Sleep(5 * time.Millisecond)
		log("driver")
	})
	v.run()
	want := "outside-1@1ms after-1@1ms waiter@2ms outside-2@2ms after-2@2ms driver@5ms"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("interleaving:\n got %s\nwant %s", got, want)
	}
}

// Blocking outside an actor panics with a message naming the way in.
func TestVirtualSleepOutsideActorNamesJoin(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "clock.Join") {
			t.Fatalf("panic %q does not name clock.Join", msg)
		}
	}()
	NewVirtual().Sleep(time.Millisecond)
}

// The all-blocked diagnostic must still fire — and still name the
// actors — when the queue runs dry at the end of a run of events that
// readied nobody, i.e. from inside the lock-free event loop.
func TestVirtualDeadlockAfterEventRunNamesActors(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run must panic once the last event fired and every actor is still blocked")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"virtual deadlock at", "2 actor(s) blocked", "stuck-a (WaitNotify)", "stuck-b (WaitNotify)"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("diagnostic %q lacks %q", msg, want)
			}
		}
	}()
	v := NewVirtual()
	fired := 0
	var tm Timer
	tm = v.AfterFunc(time.Microsecond, func() {
		if fired++; fired < 100 {
			tm.Reset(time.Microsecond)
		}
	})
	v.spawnNamed("stuck-a", func() { v.WaitNotify(v.Epoch(), -1) })
	v.spawnNamed("stuck-b", func() { v.WaitNotify(v.Epoch(), -1) })
	v.run()
}
