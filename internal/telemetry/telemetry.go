// Package telemetry is the stack's flight recorder and metrics fabric:
// a virtual-clock-native observability layer every simulation layer —
// netem queues, reliability endpoints, session pools, clock lanes —
// reports into through one narrow probe interface.
//
// # Design
//
//   - Probes. Instrumented components hold a Sink field that is nil by
//     default; every probe site is guarded by a nil check, so a
//     deployment that never attaches telemetry pays one predictable
//     branch and zero allocations per event (pinned by
//     TestDisabledProbeAllocs). Events carry only scalars — a
//     timestamp in clock nanos, a kind, a track id and four int64
//     arguments — so the enabled path stays allocation-bounded too:
//     the Recorder appends into a grow-once slab.
//   - Metrics. Counter is the one counter type the stack shares:
//     netem queue drop/mark counters, path reroutes, traffic-generator
//     emission counts and reliability retransmit counts are all
//     telemetry.Counters, registrable by name into a Recorder so
//     figures and tests read one source of truth. Series buckets
//     values by virtual time (goodput, queue depth, in-flight chunks)
//     into reusable int64 slabs.
//   - Determinism. A Recorder captures exactly one sweep cell. Within
//     a cell, the virtual clock serializes every probe call, so the
//     event slab, the track table and every series are a pure function
//     of the cell's seed. The Trace container keys recorders by cell
//     index and exports them in index order, which is what makes the
//     Chrome-trace output byte-identical across sweep-worker counts
//     and GOMAXPROCS — the same contract every figure obeys.
//
// Export lives in export.go: Chrome trace-event JSON loadable in
// Perfetto (per-cell processes, per-component threads, instant events
// for drops/switches/flaps, counter tracks for the series) plus a
// deterministic text summary.
package telemetry

import (
	"strconv"
	"sync"
	"time"
)

// EventKind classifies one flight-recorder event. The four int64
// arguments (a0..a3) are kind-specific; the comments below document
// each kind's convention, and kindMeta in export.go labels them in the
// Chrome trace output.
type EventKind uint8

const (
	// EvEnqueue: a queue accepted a packet. a0 = buffered wire bytes
	// after admission. High-volume: the Recorder folds it into the
	// track's queue-depth series instead of storing an event.
	EvEnqueue EventKind = iota
	// EvDepart: a head-of-line transmission completed. a0 = buffered
	// wire bytes after departure. Folded like EvEnqueue.
	EvDepart
	// EvTailDrop: finite buffer full on arrival. a0 = occupancy, a1 =
	// packet wire bytes.
	EvTailDrop
	// EvChannelDrop: the wire loss process ate a departing packet.
	// a1 = packet wire bytes.
	EvChannelDrop
	// EvLinkDownDrop: the packet met a flapped (failed-closed) link.
	// a1 = packet wire bytes.
	EvLinkDownDrop
	// EvECNMark: admission crossed the mark threshold. a0 = occupancy.
	EvECNMark
	// EvLinkDown / EvLinkUp: a scheduled flap took the edge down /
	// restored it. a0 = edge index.
	EvLinkDown
	EvLinkUp
	// EvReroute: a live path re-pointed around an edge-state change
	// (a0 = 1) or blackholed because no route remained (a0 = 0).
	EvReroute
	// EvRetransmit: a sender re-sent a chunk. a0 = chunk index, a1 =
	// cause (CauseRTO, CauseHole, CauseNack).
	EvRetransmit
	// EvNack: a receiver sent an explicit EC NACK. a0 = missing chunks.
	EvNack
	// EvLateReAck: the re-ACK table answered late data into a retired
	// slot. a0 = receive slot.
	EvLateReAck
	// EvSegPlan: the adaptive receiver announced a segment's scheme.
	// a0 = segment, a1 = ladder rung.
	EvSegPlan
	// EvSegStats: one adaptive segment completed and fed the controller.
	// a0 = segment, a1 = loss signal (ppm), a2 = mark fraction (ppm),
	// a3 = rung observed under.
	EvSegStats
	// EvLadderSwitch: the adaptor moved a rung. a0 = segment observed,
	// a1 = from rung, a2 = to rung, a3 = loss signal (ppm).
	EvLadderSwitch
	// EvColdBuild: a session pool constructed a deployment. a0 =
	// deployments ever built.
	EvColdBuild
	// EvLease: a pool leased a reset deployment off the free list.
	// a0 = deployments now leased.
	EvLease
	// EvRebind: a leased deployment bound a flow's link + OOB.
	EvRebind
	// EvRelease: a session released its deployment to the pool. a0 =
	// deployments still leased.
	EvRelease
	// evCellStart / evCellFinish: a sweep cell began / finished on a
	// clock lane. a0 = cell index; finish a1 = virtual nanos elapsed.
	evCellStart
	evCellFinish
	// EvTransfer: one message-level transfer completed. a0 = bytes,
	// a1 = duration nanos.
	EvTransfer
	// EvAbort: an endpoint was cancelled (Endpoint.Abort) — its blocked
	// operation unwinds with ErrAborted.
	EvAbort
	// EvQuarantine: a pool retired a deployment from circulation after
	// a failure left its state untrusted. a0 = deployments quarantined
	// so far.
	EvQuarantine

	kindCount // sentinel
)

// Retransmit causes (EvRetransmit a1).
const (
	// CauseRTO: the per-chunk retransmission timer expired.
	CauseRTO int64 = iota
	// CauseHole: ack evidence proved the chunk lost (SACK hole behind
	// the frontier, or cross-segment evidence on the adaptive sender).
	CauseHole
	// CauseNack: the receiver explicitly NACKed the chunk (EC fallback).
	CauseNack
)

// String returns the kind's stable wire name (also used in the Chrome
// trace and the text summary).
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "ev-" + strconv.Itoa(int(k))
}

var kindNames = [...]string{
	EvEnqueue:      "enqueue",
	EvDepart:       "depart",
	EvTailDrop:     "tail-drop",
	EvChannelDrop:  "channel-drop",
	EvLinkDownDrop: "link-down-drop",
	EvECNMark:      "ecn-mark",
	EvLinkDown:     "link-down",
	EvLinkUp:       "link-up",
	EvReroute:      "reroute",
	EvRetransmit:   "retransmit",
	EvNack:         "nack",
	EvLateReAck:    "late-reack",
	EvSegPlan:      "seg-plan",
	EvSegStats:     "seg-stats",
	EvLadderSwitch: "ladder-switch",
	EvColdBuild:    "cold-build",
	EvLease:        "lease",
	EvRebind:       "rebind",
	EvRelease:      "release",
	evCellStart:    "cell-start",
	evCellFinish:   "cell-finish",
	EvTransfer:     "transfer",
	EvAbort:        "abort",
	EvQuarantine:   "quarantine",
}

// Event is one recorded probe firing. At is in clock nanoseconds (the
// stamping clock's NowNanos domain); Track indexes the Recorder's
// track table; Actor indexes its actor table (-1: not attributed).
type Event struct {
	At     int64
	Kind   EventKind
	Track  int32
	Actor  int32
	A0, A1 int64
	A2, A3 int64
}

// Sink receives probe events. Implementations must tolerate calls from
// engine callbacks and actor goroutines alike; under a virtual clock
// those are serialized, under a real clock Recorder takes its own
// lock. The no-op default for an instrumented component is a nil Sink
// field — probe sites guard with a nil check, which is the zero-cost
// disabled path. Nop exists for callers that want a non-nil Sink.
type Sink interface {
	Event(at int64, kind EventKind, track int32, a0, a1, a2, a3 int64)
	// BackgroundEvent receives a probe that fires on behalf of no actor
	// even when an actor's call runs it: a netem queue replaying
	// background packets inside a flow's admission. Recorder records it
	// unattributed.
	BackgroundEvent(at int64, kind EventKind, track int32, a0, a1, a2, a3 int64)
}

// Nop is the explicit no-op Sink.
type Nop struct{}

// Event implements Sink by discarding the event.
func (Nop) Event(int64, EventKind, int32, int64, int64, int64, int64) {}

// BackgroundEvent implements Sink by discarding the event.
func (Nop) BackgroundEvent(int64, EventKind, int32, int64, int64, int64, int64) {}

// Recorder is one cell's flight recorder and metrics registry: an
// event slab, a track table, named counters and virtual-time series.
// It implements Sink (for probes) and clock.EventLog (for the
// all-blocked deadlock diagnostic).
//
// Pooling discipline: slabs grow to the cell's high-watermark and
// Reset rewinds them without freeing, so a recorder reused across
// leases (or across perftest repetitions) allocates only on growth.
type Recorder struct {
	mu sync.Mutex

	label string
	// base is the cell's virtual time origin (the stamping clock's
	// NowNanos at attach time); export renders event times relative to
	// it. Under clock.Virtual it is the engine's fixed epoch.
	base    int64
	baseSet bool
	// span is the cell's total virtual duration, set by CellFinish.
	span int64

	events    []Event
	maxEvents int
	dropped   int

	tracks  []string
	trackIx map[string]int32

	counters []counterEntry

	series []*Series
	bucket int64 // default series bucket width (nanos)

	// depthFold maps track id → the series EvEnqueue/EvDepart fold
	// into (see FoldQueueDepth); indexed by track id.
	depthFold []*Series

	// actorSrc names the actor on whose behalf an event fires (wired
	// to clock.Virtual.CurrentActorName); actors/actorIx intern those
	// names.
	actorSrc func() string
	actors   []string
	actorIx  map[string]int32
}

type counterEntry struct {
	name string
	c    *Counter
}

// defaultMaxEvents bounds a recorder's event slab; past it, events are
// counted as dropped (reported in the summary — never silently).
const defaultMaxEvents = 1 << 20

// defaultBucket is the default Series bucket width.
const defaultBucket = time.Millisecond

// NewRecorder returns an empty recorder labelled label.
func NewRecorder(label string) *Recorder {
	return &Recorder{
		label:     label,
		maxEvents: defaultMaxEvents,
		bucket:    int64(defaultBucket),
		trackIx:   map[string]int32{},
		actorIx:   map[string]int32{},
	}
}

// SetLabel renames the cell (figures label cells by scheme after the
// lane probe created them by index).
func (r *Recorder) SetLabel(label string) {
	r.mu.Lock()
	r.label = label
	r.mu.Unlock()
}

// setBase fixes the cell's virtual time origin. The first caller wins;
// attach helpers call it with their clock's current NowNanos, which at
// cell-build time is the virtual epoch.
func (r *Recorder) setBase(nanos int64) {
	r.mu.Lock()
	if !r.baseSet {
		r.base, r.baseSet = nanos, true
	}
	r.mu.Unlock()
}

// Base returns the cell's time origin (0 until setBase).
func (r *Recorder) Base() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.base
}

// SetActorSource wires the actor-attribution callback (typically
// clock.Virtual.CurrentActorName). Events recorded while an actor
// holds the virtual baton carry its name; engine-callback events stay
// unattributed.
func (r *Recorder) SetActorSource(fn func() string) {
	r.mu.Lock()
	r.actorSrc = fn
	r.mu.Unlock()
}

// Track interns a track name — a component's identity in the trace
// (an edge direction, an endpoint role, "dynamics") — and returns its
// id. Interning order is registration order, which is deterministic
// within a cell.
func (r *Recorder) Track(name string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.trackIx[name]; ok {
		return id
	}
	id := int32(len(r.tracks))
	r.tracks = append(r.tracks, name)
	r.trackIx[name] = id
	return id
}

// RegisterCounter adds c to the registry under name. Registered
// counters appear in the text summary; registering the same name again
// re-points it (the lease-reuse path).
func (r *Recorder) RegisterCounter(name string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.counters {
		if r.counters[i].name == name {
			r.counters[i].c = c
			return
		}
	}
	r.counters = append(r.counters, counterEntry{name: name, c: c})
}

// NewSeries creates (or re-binds, by name) a virtual-time-bucketed
// series on track with the recorder's current bucket width.
func (r *Recorder) NewSeries(name string, track int32, mode SeriesMode) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.series {
		if s.name == name {
			return s
		}
	}
	s := &Series{name: name, track: track, mode: mode, bucket: r.bucket, base: r.base, baseSet: r.baseSet}
	r.series = append(r.series, s)
	return s
}

// FoldQueueDepth declares that EvEnqueue/EvDepart events on track are
// occupancy samples: instead of filling the event slab at packet rate,
// they fold into the returned max-per-bucket series. This is the
// metrics-vs-events split that keeps per-packet probes cheap while
// drops, marks and protocol decisions stay individually visible.
func (r *Recorder) FoldQueueDepth(track int32, name string) *Series {
	s := r.NewSeries(name, track, SeriesMax)
	r.mu.Lock()
	for int(track) >= len(r.depthFold) {
		r.depthFold = append(r.depthFold, nil)
	}
	r.depthFold[track] = s
	r.mu.Unlock()
	return s
}

// Event implements Sink: record one probe firing, attributed to the
// actor the actor source names. EvEnqueue/EvDepart on a folded track
// update the depth series and skip the slab.
func (r *Recorder) Event(at int64, kind EventKind, track int32, a0, a1, a2, a3 int64) {
	r.event(at, kind, track, r.actorSrc, a0, a1, a2, a3)
}

// BackgroundEvent implements Sink: Event with no actor.
func (r *Recorder) BackgroundEvent(at int64, kind EventKind, track int32, a0, a1, a2, a3 int64) {
	r.event(at, kind, track, nil, a0, a1, a2, a3)
}

// event records one probe firing attributed to the actor src names
// (nil: none).
func (r *Recorder) event(at int64, kind EventKind, track int32, src func() string, a0, a1, a2, a3 int64) {
	if kind == EvEnqueue || kind == EvDepart {
		r.mu.Lock()
		if int(track) < len(r.depthFold) {
			if s := r.depthFold[track]; s != nil {
				s.observe(at, a0)
			}
		}
		r.mu.Unlock()
		return
	}
	// Resolve the actor before taking r.mu: the source reads the
	// virtual clock's scheduler state under its own lock, and the
	// deadlock diagnostic calls back into ActorTail while holding it —
	// the consistent order (clock lock, then recorder lock) on both
	// paths is what keeps the real-clock case deadlock free.
	actorName := ""
	if src != nil {
		actorName = src()
	}
	r.mu.Lock()
	if len(r.events) >= r.maxEvents {
		r.dropped++
		r.mu.Unlock()
		return
	}
	actor := int32(-1)
	if actorName != "" {
		actor = r.internActorLocked(actorName)
	}
	r.events = append(r.events, Event{
		At: at, Kind: kind, Track: track, Actor: actor,
		A0: a0, A1: a1, A2: a2, A3: a3,
	})
	r.mu.Unlock()
}

func (r *Recorder) internActorLocked(name string) int32 {
	if id, ok := r.actorIx[name]; ok {
		return id
	}
	id := int32(len(r.actors))
	r.actors = append(r.actors, name)
	r.actorIx[name] = id
	return id
}

// Events returns a snapshot copy of the recorded events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// ActorTail implements clock.EventLog: the last max recorded events
// attributed to the named actor, oldest first, rendered compactly for
// the all-blocked deadlock diagnostic. Empty when the actor never
// recorded an event.
func (r *Recorder) ActorTail(actor string, max int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.actorIx[actor]
	if !ok || max <= 0 {
		return ""
	}
	idx := make([]int, 0, max)
	for i := len(r.events) - 1; i >= 0 && len(idx) < max; i-- {
		if r.events[i].Actor == id {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return ""
	}
	var b []byte
	b = append(b, "recent: "...)
	for i := len(idx) - 1; i >= 0; i-- {
		ev := &r.events[idx[i]]
		b = append(b, ev.Kind.String()...)
		b = append(b, '@')
		b = append(b, time.Duration(ev.At-r.base).String()...)
		if i > 0 {
			b = append(b, ", "...)
		}
	}
	return string(b)
}

// Reset rewinds the recorder for reuse across leases: events, tracks,
// series contents, counters and actor tables clear while every slab
// keeps its capacity.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = r.events[:0]
	r.dropped = 0
	r.span = 0
	r.baseSet = false
	r.tracks = r.tracks[:0]
	clear(r.trackIx)
	r.counters = r.counters[:0]
	for _, s := range r.series {
		s.reset()
	}
	r.series = r.series[:0]
	for i := range r.depthFold {
		r.depthFold[i] = nil
	}
	r.actors = r.actors[:0]
	clear(r.actorIx)
	r.actorSrc = nil
}
