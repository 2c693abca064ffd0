package reliability

import (
	"fmt"
	"sync"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/ec"
	"sdrrdma/internal/telemetry"
)

// errGlobalTimeout is returned when an operation exceeds
// Config.GlobalTimeout (§4.1.2's deadlock guard). It matches
// errors.Is(err, ErrTimeout) — the typed taxonomy in abort.go.
var errGlobalTimeout = fmt.Errorf("%w: global timeout exceeded", ErrTimeout)

// Endpoint is one side of a reliable connection: the SDR data path
// plus the lossy control path. Operations on a single endpoint are
// serialized (matching the paper's sequential per-connection stages);
// distinct endpoint pairs run concurrently.
//
// All waiting — RTO deadlines, poll and ACK cadences — goes
// through the deployment's clock.Clock: real time by default,
// discrete virtual time when the session was built on a
// clock.Virtual (in which case Transfer.Write/Receive and the engine
// loops under them must run in actor goroutines, via clock.Join or
// clock.JoinNamed).
type Endpoint struct {
	QP   *core.QP
	CP   *ControlPlane
	Cfg  Config
	opMu sync.Mutex

	// reack answers late retransmissions into retired receive slots
	// with a copy of the slot's final ACK (see reack.go).
	reack reackTable

	// scr stages per-operation working state reused across the messages
	// of a long-lived session (chunk tracking, EC shard tables, parity
	// slabs, the instantiated code). Guarded by opMu like the
	// operations themselves.
	scr opScratch

	// Retransmits counts chunk resends (all causes), NacksSent the
	// EC-mode NACK control messages, LateReAcks the re-ACK answers to
	// late retransmissions. They count whether or not a telemetry
	// recorder is attached; setTelemetry registers them on one. They are
	// pointers because a recorder keeps what it registered: a lease that
	// attached one leaves its counters to it, and the next lease counts
	// on fresh ones (see rebind).
	Retransmits *telemetry.Counter
	NacksSent   *telemetry.Counter
	LateReAcks  *telemetry.Counter

	// lateFn is the bound handleLate, installed as the QP's late sink
	// on every rebind.
	lateFn func(slot int, gen uint32)

	// aborted holds the first Abort cause (abort.go); protocol loops
	// check it once per wake and unwind with ErrAborted.
	aborted abortState

	// tel is the flight-recorder attachment (zero value = dark: every
	// probe is a nil check and nothing else).
	tel endpointTel
}

// endpointTel bundles an endpoint's telemetry attachment: the event
// sink plus the direct-fed series handles (goodput and in-flight don't
// round-trip through events — the endpoint writes the series itself).
type endpointTel struct {
	sink     telemetry.Sink
	track    int32
	goodput  *telemetry.Series
	inflight *telemetry.Series
}

// setTelemetry attaches the endpoint to a flight recorder under the
// given track name (e.g. "flow0/A"): retransmits, NACKs, late re-ACKs
// and adaptive ladder decisions become instant events; received-bytes
// goodput and sender in-flight chunks feed bucketed series; the
// unified counters register on rec. Call before starting operations;
// pass nil to detach.
func (e *Endpoint) setTelemetry(rec *telemetry.Recorder, name string) {
	if rec == nil {
		e.tel = endpointTel{}
		return
	}
	track := rec.Track(name)
	e.tel = endpointTel{
		sink:     rec,
		track:    track,
		goodput:  rec.NewSeries(name+" goodput_bytes", track, telemetry.SeriesSum),
		inflight: rec.NewSeries(name+" inflight_chunks", track, telemetry.SeriesMax),
	}
	rec.RegisterCounter(name+" retransmits", e.Retransmits)
	rec.RegisterCounter(name+" nacks_sent", e.NacksSent)
	rec.RegisterCounter(name+" late_reacks", e.LateReAcks)
}

// probe records one protocol event when a recorder is attached.
func (e *Endpoint) probe(kind telemetry.EventKind, a0, a1, a2, a3 int64) {
	if e.tel.sink == nil {
		return
	}
	e.tel.sink.Event(e.clock().NowNanos(), kind, e.tel.track, a0, a1, a2, a3)
}

// noteInflight feeds the sender's outstanding-chunk series.
func (e *Endpoint) noteInflight(outstanding int) {
	if e.tel.inflight == nil {
		return
	}
	e.tel.inflight.ObserveMax(e.clock().NowNanos(), int64(outstanding))
}

// noteGoodput feeds received bytes into the goodput series.
func (e *Endpoint) noteGoodput(bytes int64) {
	if e.tel.goodput == nil || bytes <= 0 {
		return
	}
	e.tel.goodput.Add(e.clock().NowNanos(), bytes)
}

// opScratch is the endpoint's pooled chunk staging: every slice here
// would otherwise be a per-message (or per-segment) allocation on the
// send/receive hot path, re-made thousands of times in a line-rate run.
// Reuse is safe because opMu serializes operations and every buffer's
// lifetime ends with its operation (UD control sends copy payloads;
// parity slabs are only aliased by the wire until the message
// completes, which the operation awaits before returning).
type opScratch struct {
	// send and recv are the engine loops' per-message state, with their
	// segment tables (engine.go).
	send        sendOp
	recv        recvOp
	shards      [][]byte
	present     []bool
	spans       [][2]int // the byte ranges the last decode rewrote (lostSpans)
	missBuf     []int
	sackBuf     []byte
	tailScratch []byte
	// zeroChunk is all-zero and only ever read (it stands in for the
	// virtual zero chunks of a padded tail submessage), so reuse never
	// re-clears it.
	zeroChunk []byte
	// paritySlab backs the operation's parity submessages; parityUsed
	// is the bump cursor parityAlloc advances.
	paritySlab []byte
	parityUsed int

	// codes caches instantiated erasure codes: RS construction builds
	// the encode and repair matrices, far too expensive to redo per
	// message, and codes are stateless once built.
	codes map[codeKey]ec.Code
}

type codeKey struct {
	name string
	k, m int
}

// codeFor returns the endpoint's code family instantiated with the
// (k, m) split, building it on first use.
func (e *Endpoint) codeFor(k, m int) (ec.Code, error) {
	key := codeKey{e.Cfg.Code, k, m}
	if code, ok := e.scr.codes[key]; ok {
		return code, nil
	}
	c := e.Cfg
	c.K, c.M = k, m
	code, err := c.newCode()
	if err != nil {
		return nil, err
	}
	if e.scr.codes == nil {
		e.scr.codes = map[codeKey]ec.Code{}
	}
	e.scr.codes[key] = code
	return code, nil
}

// scratchSlice returns (*s)[:n] with reused capacity, zeroing the
// elements so stale state from the previous operation cannot leak.
func scratchSlice[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	out := (*s)[:n]
	clear(out)
	*s = out
	return out
}

// scratchBytesN returns an n-byte scratch slice holding whatever its
// last user left there: callers either fully overwrite it or, like the
// all-zero chunk, never write it at all.
func scratchBytesN(s *[]byte, n int) []byte {
	if cap(*s) < n {
		*s = make([]byte, n)
	}
	return (*s)[:n]
}

// reserveParity sizes the parity slab for an operation expected to
// carve n bytes out of it and rewinds the cursor.
func (s *opScratch) reserveParity(n int) {
	s.paritySlab = scratchBytesN(&s.paritySlab, n)
	s.parityUsed = 0
}

// parityAlloc carves one segment's n parity bytes out of the slab.
// Regions are never reused within an operation — the wire aliases a
// segment's parity until it is acknowledged. A request beyond the
// reservation (a plan naming a rung the sender's ladder lacks) gets its
// own allocation.
func (s *opScratch) parityAlloc(n int) []byte {
	if s.parityUsed+n > len(s.paritySlab) {
		return make([]byte, n)
	}
	p := s.paritySlab[s.parityUsed : s.parityUsed+n]
	s.parityUsed += n
	return p
}

// rebind puts the endpoint in its initial state under cfg — the one
// initialisation path, run by NewSessionOver for the only session of a
// cold-built deployment and for every lease of a pooled one, whose
// endpoints outlive their sessions. What a lease could have left
// behind is erased: the re-ACK ring (only the entries it used), the counters, the abort cause, the telemetry
// attachment. The working storage stays — operation scratch and the
// code cache, which every operation re-initialises before use, and the
// ring's slot lists. Only call between leases, once core.QP.Reset has
// cleared the late sink. A delivery that loaded the sink before that
// may still be inside handleLate on a real clock, which is why the wipe
// runs under the ring's lock.
func (e *Endpoint) rebind(cfg Config) {
	e.reack.mu.Lock()
	defer e.reack.mu.Unlock()
	e.Cfg = cfg.WithDefaults()
	e.reack.resetLocked()
	if e.Retransmits == nil || e.tel.sink != nil {
		ctrs := new([3]telemetry.Counter)
		e.Retransmits, e.NacksSent, e.LateReAcks = &ctrs[0], &ctrs[1], &ctrs[2]
	} else {
		e.Retransmits.Store(0)
		e.NacksSent.Store(0)
		e.LateReAcks.Store(0)
	}
	e.aborted.Store(nil)
	e.tel = endpointTel{}
	e.QP.SetLateSink(e.lateFn)
}

// clock returns the deployment clock.
func (e *Endpoint) clock() clock.Clock { return e.QP.Clock() }
