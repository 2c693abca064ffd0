package simnet

import "testing"

// chainHandler re-schedules itself until n events have fired — the
// steady-state pattern of a protocol simulator (every fired event
// schedules a successor).
type chainHandler struct {
	e *Engine
	n int
}

func (h *chainHandler) HandleEvent(kind, a, b int32) {
	if h.n > 0 {
		h.n--
		h.e.ScheduleAfter(1, 0, a+1, b)
	}
}

// BenchmarkSimnetEvents measures the allocation-free typed-event path:
// ns/op and allocs/op are per event. The slab warms up once; the
// steady state must be ~0 allocs/event.
func BenchmarkSimnetEvents(b *testing.B) {
	e := New()
	h := &chainHandler{e: e}
	e.SetHandler(h)
	b.ReportAllocs()
	b.ResetTimer()
	h.n = b.N
	e.Schedule(e.Now(), 0, 0, 0)
	e.run()
}

// BenchmarkSimnetHeapChurn stresses the index heap with a deep queue:
// 1024 pending timers with continuous schedule/cancel/fire churn, the
// shape of a window of in-flight chunks with RTO backstops.
func BenchmarkSimnetHeapChurn(b *testing.B) {
	const window = 1024
	e := New()
	timers := make([]Timer, window)
	h := &chainHandler{e: e}
	e.SetHandler(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % window
		timers[slot].Cancel()
		timers[slot] = e.ScheduleAfter(float64(window), 0, int32(slot), 0)
		if i%window == window-1 {
			e.Step()
		}
	}
	b.StopTimer()
	e.Reset()
}

// BenchmarkSimnetReset measures campaign-style reuse: fill the queue,
// drain half, reset.
func BenchmarkSimnetReset(b *testing.B) {
	e := New()
	h := &chainHandler{e: e}
	e.SetHandler(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 256; j++ {
			e.ScheduleAfter(float64(j), 0, int32(j), 0)
		}
		for j := 0; j < 128; j++ {
			e.Step()
		}
		e.Reset()
	}
}
