package clock

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// coroOf returns the coroutine running the calling actor.
func coroOf(v *Virtual) *coro {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.current.co
}

// pooled reports whether c waits in the idle pool, which it drains and
// refills in order; no other goroutine may use the pool meanwhile.
func pooled(c *coro) bool {
	var idle []*coro
	for len(idleCoros) > 0 {
		idle = append(idle, <-idleCoros)
	}
	for _, ic := range idle {
		idleCoros <- ic
	}
	return slices.Contains(idle, c)
}

// An actor body's own panic comes out of Join on the Join goroutine
// with its own value, as a callback's does.
func TestVirtualActorPanicSurfacesFromJoin(t *testing.T) {
	type boom struct{ n int }
	v := NewVirtual()
	defer func() {
		if r := recover(); r != (boom{3}) {
			t.Fatalf("Join raised %v, want the actor's panic value", r)
		}
	}()
	Join(v, func() { v.Sleep(time.Millisecond) }, func() { panic(boom{3}) })
}

// Finished actors hand their coroutines back: a thousand sequential
// Joins, and one Join wider than the pool, leave no more goroutines
// behind than the pool holds.
func TestVirtualJoinsReuseCoroutines(t *testing.T) {
	v := NewVirtual()
	nap := func() { v.Sleep(time.Microsecond) }
	Join(v, nap, nap)
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		Join(v, nap, nap)
	}
	if n := runtime.NumGoroutine(); n > base+maxIdleCoros {
		t.Fatalf("1000 two-actor Joins: %d goroutines, want at most %d (baseline %d plus the pool)", n, base+maxIdleCoros, base)
	}
	wide := make([]func(), 3*maxIdleCoros)
	for i := range wide {
		wide[i] = nap
	}
	Join(v, wide...)
	if n := runtime.NumGoroutine(); n > base+maxIdleCoros {
		t.Fatalf("a %d-actor Join: %d goroutines, want at most %d", len(wide), n, base+maxIdleCoros)
	}
}

// A steady-state spawn takes a pooled actor and a pooled coroutine: a
// two-actor Join of no-op actors allocates nothing.
func TestVirtualSteadyStateJoinAllocs(t *testing.T) {
	v := NewVirtual()
	noop := func() {}
	Join(v, noop, noop)
	if n := testing.AllocsPerRun(100, func() { Join(v, noop, noop) }); n != 0 {
		t.Fatalf("a steady-state two-actor Join allocates %v objects, want 0", n)
	}
}

// A coroutine whose body panicked, or whose drive faulted, is
// abandoned: it never goes back to the pool, so no later actor runs on
// it.
func TestVirtualFaultedCoroutineNeverReused(t *testing.T) {
	faults := []struct {
		name  string
		fault func(v *Virtual)
	}{
		{"body panic", func(*Virtual) { panic("boom") }},
		{"callback panic", func(v *Virtual) {
			v.AfterFunc(time.Millisecond, func() { panic("boom") })
			v.Sleep(time.Second)
		}},
		{"callback Goexit", func(v *Virtual) {
			v.AfterFunc(time.Millisecond, runtime.Goexit)
			v.Sleep(time.Second)
		}},
	}
	for _, f := range faults {
		v := NewVirtual()
		Join(v, func() {}) // the faulting actor takes this coroutine from the pool
		var faulted *coro
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Join returned normally", f.name)
				}
			}()
			Join(v, func() {
				faulted = coroOf(v)
				f.fault(v)
			})
		}()
		if faulted == nil || pooled(faulted) {
			t.Fatalf("%s: the faulted coroutine %p went back to the pool", f.name, faulted)
		}
		w := NewVirtual()
		var got []*coro
		actors := make([]func(), 2*maxIdleCoros)
		for i := range actors {
			actors[i] = func() { got = append(got, coroOf(w)) }
		}
		Join(w, actors...)
		if slices.Contains(got, faulted) {
			t.Fatalf("%s: a later actor ran on the faulted coroutine", f.name)
		}
	}
}
