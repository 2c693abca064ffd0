package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"sdrrdma/internal/clock"
)

// The sink-nil guard every instrumented component uses (netem queues,
// reliability endpoints, session pools): copy the sink under the
// component lock, test, return. With telemetry detached the probe must
// cost nothing — no interface call, no argument boxing, no allocation.
func TestDisabledProbeAllocs(t *testing.T) {
	var sink Sink
	var track int32
	probe := func(kind EventKind, a0, a1 int64) {
		if sink == nil {
			return
		}
		sink.Event(0, kind, track, a0, a1, 0, 0)
	}
	if n := testing.AllocsPerRun(1000, func() { probe(EvTailDrop, 3, 4096) }); n != 0 {
		t.Fatalf("disabled probe allocates %v per call, want 0", n)
	}
	// The explicit no-op sink must be alloc-free too (pre-boxed values).
	sink = Nop{}
	if n := testing.AllocsPerRun(1000, func() { probe(EvTailDrop, 3, 4096) }); n != 0 {
		t.Fatalf("Nop probe allocates %v per call, want 0", n)
	}
}

func TestRecorderEventsAndCounters(t *testing.T) {
	r := NewRecorder("cell")
	r.setBase(1_000_000)
	tr := r.Track("edge/fwd")
	if tr2 := r.Track("edge/fwd"); tr2 != tr {
		t.Fatalf("Track re-intern: got %d, want %d", tr2, tr)
	}
	r.Event(1_500_000, EvTailDrop, tr, 7, 4096, 0, 0)
	r.Event(2_000_000, EvRetransmit, tr, 12, CauseRTO, 0, 0)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Kind != EvTailDrop || evs[0].A0 != 7 || evs[0].A1 != 4096 {
		t.Fatalf("event 0 mismatch: %+v", evs[0])
	}

	var c Counter
	c.Add(41)
	c.Add(1)
	r.RegisterCounter("edge/fwd taildrops", &c)
	if c.Load() != 42 {
		t.Fatalf("counter = %d, want 42", c.Load())
	}
}

func TestQueueDepthFoldsIntoSeries(t *testing.T) {
	r := NewRecorder("cell")
	r.setBase(0)
	tr := r.Track("edge/fwd")
	s := r.FoldQueueDepth(tr, "edge/fwd qdepth")
	// Per-packet occupancy probes must fold, not fill the event slab.
	for i := int64(0); i < 100; i++ {
		r.Event(i*10_000, EvEnqueue, tr, i%7, 0, 0, 0)
	}
	if got := len(r.Events()); got != 0 {
		t.Fatalf("enqueue events leaked into the slab: %d", got)
	}
	samples := s.vals
	if len(samples) != 1 {
		t.Fatalf("100 sub-millisecond observations want 1 bucket, got %d", len(samples))
	}
	if samples[0] != 6 {
		t.Fatalf("bucket max = %d, want 6", samples[0])
	}
}

func TestSeriesModes(t *testing.T) {
	r := NewRecorder("cell")
	r.setBase(0)
	tr := r.Track("flow")
	sum := r.NewSeries("goodput", tr, SeriesSum)
	sum.Add(100_000, 10)
	sum.Add(900_000, 5)
	sum.Add(1_200_000, 7)
	if got := sum.vals; len(got) != 2 || got[0] != 15 || got[1] != 7 {
		t.Fatalf("SeriesSum samples = %v, want [15 7]", got)
	}
	maxs := r.NewSeries("inflight", tr, SeriesMax)
	maxs.ObserveMax(100_000, 3)
	maxs.ObserveMax(200_000, 9)
	maxs.ObserveMax(300_000, 4)
	if got := maxs.vals; len(got) != 1 || got[0] != 9 {
		t.Fatalf("SeriesMax samples = %v, want [9]", got)
	}
}

// A series created before the recorder has a time origin must anchor
// itself on its first observation instead of indexing from zero — a
// Unix-epoch timestamp against base 0 would otherwise grow the slab by
// trillions of buckets.
func TestSeriesLazyAnchor(t *testing.T) {
	r := NewRecorder("cell")
	tr := r.Track("flow")
	s := r.NewSeries("goodput", tr, SeriesSum)
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	s.Add(epoch, 10)
	s.Add(epoch+500_000, 5)
	if got := s.vals; len(got) != 1 || got[0] != 15 {
		t.Fatalf("lazy-anchored samples = %v, want [15]", got)
	}
}

func TestActorAttributionAndTail(t *testing.T) {
	r := NewRecorder("cell")
	r.setBase(0)
	tr := r.Track("flow")
	current := "send-actor"
	r.SetActorSource(func() string { return current })
	r.Event(1_000_000, EvRetransmit, tr, 1, CauseRTO, 0, 0)
	current = "recv-actor"
	r.Event(2_000_000, EvNack, tr, 3, 0, 0, 0)

	tail := r.ActorTail("send-actor", 8)
	if !strings.Contains(tail, "retransmit@1ms") {
		t.Fatalf("send-actor tail = %q, want retransmit@1ms", tail)
	}
	if strings.Contains(tail, "nack") {
		t.Fatalf("send-actor tail includes another actor's event: %q", tail)
	}
	if got := r.ActorTail("absent", 8); got != "" {
		t.Fatalf("unknown actor tail = %q, want empty", got)
	}
	// A background event fired inside an actor's call names no actor.
	r.BackgroundEvent(3_000_000, EvTailDrop, tr, 0, 4096, 0, 0)
	if evs := r.Events(); evs[len(evs)-1].Actor != -1 {
		t.Fatalf("background event attributed to actor %d", evs[len(evs)-1].Actor)
	}
}

func TestWriteChromeParses(t *testing.T) {
	tr := NewTrace("unit")
	tr.CellStart(0, 1_000_000)
	r := tr.Cell(0)
	r.SetLabel("sr")
	edge := r.Track("edge/fwd")
	s := r.FoldQueueDepth(edge, "edge/fwd qdepth")
	r.Event(1_200_000, EvTailDrop, edge, 2, 4096, 0, 0)
	r.Event(1_300_000, EvLadderSwitch, edge, 4, 0, 1, 46875)
	s.ObserveMax(1_400_000, 5)
	tr.CellFinish(0, 3_000_000)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChrome output is not valid JSON: %v", err)
	}
	byPh := map[string]int{}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		byPh[e.Ph]++
		names[e.Name] = true
	}
	if byPh["M"] == 0 {
		t.Fatal("no metadata events (process/thread names)")
	}
	if byPh["X"] != 1 {
		t.Fatalf("cell span events = %d, want 1", byPh["X"])
	}
	if byPh["C"] != 1 {
		t.Fatalf("counter samples = %d, want 1", byPh["C"])
	}
	if !names["tail-drop"] || !names["ladder-switch"] {
		t.Fatalf("missing instant events, have %v", names)
	}
	// Determinism at the byte level: re-export and compare.
	var buf2 bytes.Buffer
	if err := tr.WriteChrome(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteChrome output differs across identical exports")
	}
}

// Instants leave WriteChrome in timestamp order whatever order they
// were recorded in — a queue settles a departure's probe after later
// events of other tracks — and events at one timestamp keep their
// recording order.
func TestWriteChromeSortsInstantsStably(t *testing.T) {
	tr := NewTrace("unit")
	tr.CellStart(0, 0)
	r := tr.Cell(0)
	a, b := r.Track("a"), r.Track("b")
	r.Event(3000, EvTailDrop, a, 1, 0, 0, 0)
	r.BackgroundEvent(1000, EvChannelDrop, b, 0, 2, 0, 0)
	r.Event(3000, EvTailDrop, b, 3, 0, 0, 0)
	r.BackgroundEvent(2000, EvChannelDrop, a, 0, 4, 0, 0)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, e := range doc.TraceEvents {
		if e.Ph == "i" && e.Ts > 0 {
			v, _ := e.Args["occ"].(float64)
			w, _ := e.Args["bytes"].(float64)
			got = append(got, v+w)
		}
	}
	if want := []float64{2, 4, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("instants emitted as %v, want %v (by timestamp, ties in recording order)", got, want)
	}
	if evs := r.Events(); evs[1].At != 3000 || evs[2].At != 1000 {
		t.Fatal("export reordered the recorder's own slab")
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder("cell")
	r.setBase(5)
	tr := r.Track("edge")
	s := r.FoldQueueDepth(tr, "qdepth")
	var c Counter
	c.Add(1)
	r.RegisterCounter("drops", &c)
	r.Event(1_000_000, EvTailDrop, tr, 1, 1, 0, 0)
	r.Event(1_000_001, EvEnqueue, tr, 1, 0, 0, 0)
	r.Reset()
	if got := len(r.Events()); got != 0 {
		t.Fatalf("events after Reset = %d", got)
	}
	if got := s.vals; len(got) != 0 {
		t.Fatalf("series samples after Reset = %v", got)
	}
	// The recorder must be reusable: a fresh lease re-registers.
	r.setBase(7)
	tr2 := r.Track("edge")
	if tr2 != 0 {
		t.Fatalf("track ids should restart after Reset, got %d", tr2)
	}
	r.Event(2_000_000, EvLease, tr2, 1, 0, 0, 0)
	if evs := r.Events(); len(evs) != 1 || evs[0].Kind != EvLease {
		t.Fatalf("post-Reset events = %+v, want one lease", evs)
	}
}

func BenchmarkTelemetryProbeDisabled(b *testing.B) {
	var sink Sink
	var track int32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sink != nil {
			sink.Event(0, EvTailDrop, track, 1, 2, 0, 0)
		}
	}
}

func BenchmarkTelemetryProbeEnabled(b *testing.B) {
	r := NewRecorder("bench")
	r.setBase(0)
	tr := r.Track("edge")
	b.ReportAllocs()
	b.ResetTimer()
	recorded := 0
	for i := 0; i < b.N; i++ {
		r.Event(int64(i), EvTailDrop, tr, 1, 2, 0, 0)
		if recorded++; recorded >= 1<<19 {
			b.StopTimer()
			r.Reset()
			tr = r.Track("edge")
			recorded = 0
			b.StartTimer()
		}
	}
}

func BenchmarkTelemetryDepthFold(b *testing.B) {
	r := NewRecorder("bench")
	r.setBase(0)
	tr := r.Track("edge")
	r.FoldQueueDepth(tr, "qdepth")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Event(int64(i), EvEnqueue, tr, int64(i&15), 0, 0, 0)
	}
}

// twoCellTrace records a small two-cell trace on a virtual clock: cell
// 0 spans 5 ms with drops, a retransmit and counters; cell 1 never
// finishes and overflows a three-event cap.
func twoCellTrace() *Trace {
	tr := NewTrace("unit")
	vc := clock.NewVirtual()
	tr.CellStart(0, vc.NowNanos())
	r := tr.Cell(0)
	r.SetLabel("sr")
	edge := r.Track("edge/fwd")
	var drops, idle Counter
	r.RegisterCounter("edge/fwd taildrops", &drops)
	r.RegisterCounter("edge/fwd idle", &idle)
	clock.Join(vc, func() {
		vc.Sleep(time.Millisecond)
		r.Event(vc.NowNanos(), EvTailDrop, edge, 3, 4096, 0, 0)
		drops.Add(1)
		vc.Sleep(time.Millisecond)
		r.Event(vc.NowNanos(), EvTailDrop, edge, 4, 4096, 0, 0)
		drops.Add(1)
		r.Event(vc.NowNanos(), EvRetransmit, r.Track("sr/A"), 7, CauseRTO, 0, 0)
		vc.Sleep(3 * time.Millisecond)
	})
	tr.CellFinish(0, vc.NowNanos())

	c1 := tr.Cell(1)
	c1.SetLabel("ec")
	c1.maxEvents = 3
	tr.CellStart(1, vc.NowNanos())
	for i := range 4 {
		c1.Event(vc.NowNanos(), EvNack, c1.Track("ec/B"), int64(i), 0, 0, 0)
	}
	return tr
}

func TestTraceSummary(t *testing.T) {
	want := "trace unit: 2 cell(s)\n" +
		"cell 0 [sr]: 5 event(s), 5ms virtual\n" +
		"  events: tail-drop=2 retransmit=1 cell-start=1 cell-finish=1\n" +
		"  counters: edge/fwd taildrops=2\n" +
		"cell 1 [ec]: 3 event(s), 2 DROPPED past the 3-event cap\n" +
		"  events: nack=2 cell-start=1\n"
	if got := twoCellTrace().Summary(); got != want {
		t.Fatalf("Summary:\n%s\nwant:\n%s", got, want)
	}
}

// WriteChromeFile writes exactly what WriteChrome does, and reports a
// path it cannot create.
func TestWriteChromeFile(t *testing.T) {
	tr := twoCellTrace()
	var want bytes.Buffer
	if err := tr.WriteChrome(&want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteChromeFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file holds %d B, WriteChrome wrote %d B", len(got), want.Len())
	}
	if err := tr.WriteChromeFile(filepath.Join(path, "under-a-file.json")); err == nil {
		t.Fatal("WriteChromeFile under a regular file succeeded")
	}
}
