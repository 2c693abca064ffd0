package clock

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"
)

// laneCell runs one deterministic mini-simulation on v: three named
// actors interleaving rng-drawn sleeps, AfterFunc timers (some still
// pending at Reset) and a notify handshake, returning the full execution
// trace. Two runs with the same seed must produce identical traces —
// on a fresh clock, on a Reset clock, and on any lane of a sweep.
func laneCell(v *Virtual, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	for i := 0; i < 3; i++ {
		i := i
		v.spawnNamed(fmt.Sprintf("cell-actor%d", i), func() {
			for s := 0; s < 4; s++ {
				d := time.Duration(rng.Int63n(int64(time.Millisecond)))
				v.Sleep(d)
				v.AfterFunc(d/2, func() {
					trace = append(trace, fmt.Sprintf("t%d@%v", i, v.Elapsed()))
				})
				trace = append(trace, fmt.Sprintf("a%d@%v", i, v.Elapsed()))
				v.Notify()
			}
		})
	}
	v.run()
	return strings.Join(trace, ",")
}

// The lane-reuse guarantee: a cell run on a Reset (pooled) engine is
// byte-identical to the same cell on a fresh engine.
func TestVirtualResetReuseIdenticalOutput(t *testing.T) {
	v := NewVirtual()
	first := laneCell(v, 42)
	v.reset()
	second := laneCell(v, 42)
	fresh := laneCell(NewVirtual(), 42)
	if first != second {
		t.Fatalf("pooled engine diverged from its own first run:\n%s\n%s", first, second)
	}
	if first != fresh {
		t.Fatalf("pooled engine diverged from a fresh engine:\n%s\n%s", first, fresh)
	}
	v.reset()
	if other := laneCell(v, 43); other == first {
		t.Fatal("different seeds produced identical traces — cell not actually seeded")
	}
}

// Reset must rewind time and the notification epoch so a reused lane
// starts from the exact initial state.
func TestVirtualResetRewindsClockState(t *testing.T) {
	v := NewVirtual()
	v.spawn(func() {
		v.Sleep(5 * time.Millisecond)
		v.Notify()
	})
	v.run()
	if v.Elapsed() == 0 || v.Epoch() == 0 {
		t.Fatal("run did not advance time/epoch")
	}
	v.reset()
	if v.Elapsed() != 0 || v.Epoch() != 0 {
		t.Fatalf("Reset left elapsed=%v epoch=%d", v.Elapsed(), v.Epoch())
	}
}

// A sweep's output must not depend on how many lanes compute it.
func TestRunLanesDeterministicAcrossWorkers(t *testing.T) {
	const cells = 12
	render := func(workers int) string {
		out := make([]string, cells)
		(&Lanes{Workers: workers}).Run(cells, func(v *Virtual, i int) {
			out[i] = laneCell(v, CellSeed(7, i))
		})
		return strings.Join(out, "\n")
	}
	serial := render(1)
	for _, w := range []int{0, 2, 4, 8} {
		if got := render(w); got != serial {
			t.Fatalf("workers=%d diverged from the serial sweep", w)
		}
	}
}

// A Lanes pool reused across Run calls must keep producing the serial
// results (engines stay warm in between).
func TestLanesPoolReuseAcrossRuns(t *testing.T) {
	l := &Lanes{Workers: 3}
	run := func() string {
		out := make([]string, 6)
		l.Run(6, func(v *Virtual, i int) { out[i] = laneCell(v, CellSeed(99, i)) })
		return strings.Join(out, "\n")
	}
	first := run()
	second := run()
	if first != second {
		t.Fatal("pooled lanes diverged across Run calls")
	}
}

// A cell that recovers a virtual deadlock leaves its blocked actor
// parked on its engine for good: the lane must give the next cell a
// fresh engine instead of panicking in Reset.
func TestLanesRenewEngineAfterRecoveredDeadlock(t *testing.T) {
	out := make([]string, 2)
	(&Lanes{Workers: 1}).Run(2, func(v *Virtual, i int) {
		if i == 1 {
			out[1] = laneCell(v, 7)
			return
		}
		defer func() { out[0] = fmt.Sprint(recover()) }()
		v.spawnNamed("stuck", func() { v.WaitNotify(v.Epoch(), -1) })
		v.run()
	})
	if !strings.Contains(out[0], "virtual deadlock") {
		t.Fatalf("cell 0 recovered %q, want the deadlock diagnostic", out[0])
	}
	if want := laneCell(NewVirtual(), 7); out[1] != want {
		t.Fatalf("cell 1 after the deadlocked cell diverged from a fresh engine:\n%s\n%s", out[1], want)
	}
}

// CellSeed must match protosim's sample-seed derivation discipline:
// stable, and decorrelated across neighbouring cells.
func TestCellSeedStableAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		s := CellSeed(42, i)
		if s != CellSeed(42, i) {
			t.Fatal("CellSeed not deterministic")
		}
		if seen[s] {
			t.Fatalf("CellSeed collision at cell %d", i)
		}
		seen[s] = true
	}
	if CellSeed(1, 0) == CellSeed(2, 0) {
		t.Fatal("CellSeed ignores the root seed")
	}
}

// The all-blocked diagnostic must name the stuck actors and report the
// pending-timer count — the information a multi-lane deadlock needs to
// be attributable.
func TestVirtualDeadlockDiagnosticNamesActors(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run must panic on a blocked-forever actor")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"rx-loop", "WaitNotify", "timer(s) pending", "actor-"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("diagnostic %q missing %q", msg, want)
			}
		}
	}()
	v := NewVirtual()
	v.spawnNamed("rx-loop", func() { v.WaitNotify(v.Epoch(), -1) })
	v.spawn(func() { v.WaitNotify(v.Epoch(), -1) }) // anonymous: actor-N fallback
	v.run()
}

// BenchmarkVirtualHandoff measures the baton cost: two actors
// ping-ponging through Notify/WaitNotify, i.e. the park-self/
// grant-next switch that dominates every functional-stack simulation.
// Tracked in BENCH_protosim.json; a grant is two coroutine switches
// (the parking actor to run, run to the next actor) and allocates
// nothing.
func BenchmarkVirtualHandoff(b *testing.B) {
	v := NewVirtual()
	b.ReportAllocs()
	turn := 0
	actor := func(me int) func() {
		return func() {
			for i := 0; i < b.N; i++ {
				for turn != me {
					epoch := v.Epoch()
					if turn == me {
						break
					}
					v.WaitNotify(epoch, -1)
				}
				turn = 1 - me
				v.Notify()
			}
		}
	}
	v.spawn(actor(0))
	v.spawn(actor(1))
	v.run()
}

// BenchmarkVirtualSleepChurn measures the timer-wake path: one actor
// sleeping in a tight loop (engine lane push + typed wake per
// iteration, no closures). The sleeper fires its own wake-up and keeps
// the baton, so no iteration switches goroutines.
func BenchmarkVirtualSleepChurn(b *testing.B) {
	v := NewVirtual()
	b.ReportAllocs()
	v.spawn(func() {
		for i := 0; i < b.N; i++ {
			v.Sleep(time.Microsecond)
		}
	})
	v.run()
}

// laneChurnCell is a cell that binds fresh lanes, as a sweep cell's
// wires and queues do: an actor fires two events on each of lanes, then
// sleeps past them. It returns the events that ran.
func laneChurnCell(v *Virtual, lanes []Lane) (fired int) {
	v.spawn(func() {
		for k := range lanes {
			for j := 1; j <= 2; j++ {
				v.RunAtLane(&lanes[k], v.NowNanos()+int64(j)*int64(time.Microsecond), func() { fired++ })
			}
		}
		v.Sleep(time.Millisecond)
	})
	v.run()
	return fired
}

// A Virtual hands its engine lanes out again from 0 at every Reset, so
// the engine of a sweep worker holds no more lanes than one cell binds,
// however many cells it has run: each of 600 cells binds four fresh
// Lanes and its sleeping actor's, and no lane of any cell, nor any
// actor's, is bound past id 4.
func TestLanesBoundPerRun(t *testing.T) {
	const cells, perCell = 600, 4
	var worst int32
	var engines []*Virtual
	(&Lanes{Workers: 1}).Run(cells, func(v *Virtual, i int) {
		lanes := make([]Lane, perCell)
		if n := laneChurnCell(v, lanes); n != 2*perCell {
			t.Errorf("cell %d fired %d lane events, want %d", i, n, 2*perCell)
		}
		for k := range lanes {
			worst = max(worst, lanes[k].id)
		}
		for _, a := range v.slab {
			if a.lane.v == v && a.lane.run == v.runs {
				worst = max(worst, a.lane.id)
			}
		}
		if len(engines) == 0 || engines[len(engines)-1] != v {
			engines = append(engines, v)
		}
	})
	if worst >= perCell+1 {
		t.Fatalf("an engine lane id reached %d after %d cells; one cell binds %d", worst, cells, perCell+1)
	}
	if len(engines) != 1 {
		t.Fatalf("the sweep ran on %d engines, want one reused engine", len(engines))
	}
}

// A real clock holds no lane of its own: once its closures have run,
// the wallLane of a dropped Lane is garbage, though the clock lives on.
func TestRealLaneCollectedWithOwner(t *testing.T) {
	r := NewReal()
	l := new(Lane)
	ran := make(chan struct{})
	r.RunAtLane(l, r.NowNanos(), func() { close(ran) })
	<-ran
	w := weak.Make(l.w)
	l = nil
	// The drain may still be returning from the closure; give it time.
	for i := 0; i < 100 && w.Value() != nil; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if w.Value() != nil {
		t.Fatal("the real clock kept a dropped lane alive")
	}
	runtime.KeepAlive(r)
}

// BenchmarkLanesSweep runs b.N cells on one Lanes worker, each binding
// four fresh Lanes (laneChurnCell). ns/op is per cell, so an engine
// that kept the lanes of earlier cells — and scanned them all on every
// event — shows as ns/op rising with b.N.
func BenchmarkLanesSweep(b *testing.B) {
	b.ReportAllocs()
	(&Lanes{Workers: 1}).Run(b.N, func(v *Virtual, i int) {
		var lanes [4]Lane
		laneChurnCell(v, lanes[:])
	})
}
