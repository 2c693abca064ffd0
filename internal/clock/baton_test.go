package clock

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Run fires engine events back to back without the clock mutex, but an
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
