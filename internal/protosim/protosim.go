// Package protosim is a chunk-level discrete-event simulator for the
// reliability protocols of §4, complementing the closed-form model in
// internal/model (the paper's contribution #4: "a framework to
// simulate and analyze the performance of SDR-based reliability
// algorithms").
//
// Unlike the closed-form model, the simulator captures effects the
// Appendix A analysis idealizes away: retransmissions serialize with
// new traffic on the shared link, ACKs can be lost and carry delay,
// and Go-Back-N's window restart amplifies a single loss. It runs in
// virtual time on internal/simnet, so a 25 ms-RTT cross-continent
// transfer simulates in microseconds.
//
// Supported schemes: "sr" (per-chunk RTO), "sr-nack" (receiver-driven
// 1-RTT recovery), "gbn" (classic Go-Back-N, the commodity-ASIC
// baseline of §2.2), and "ec" (erasure coding with SR fallback).
//
// # Performance architecture
//
// The simulators are built for planetary-scale Monte Carlo campaigns
// (GiB messages ⇒ tens of thousands of chunks, hundreds of samples per
// table cell), so the hot path is allocation free and all per-event
// state transitions are O(1):
//
//   - Events are typed (kind, chunk, aux) records dispatched through
//     simnet's slab-backed engine — no closure allocation per event.
//   - Receiver delivery state lives in internal/bitmap, whose
//     monotonic scan hint makes the SR-NACK receive-frontier cursor
//     O(1) amortized (previously an O(n²) rescan of [0, gap)).
//   - EC recoverability is tracked incrementally: per-submessage
//     missing-data and delivered-parity counters plus a global
//     remaining-unrecoverable count replace the former all-submessage
//     rescan on every delivery.
//   - Dead timers (per-chunk RTO backstops disarmed by ACKs or by a
//     submessage becoming recoverable, GBN's window timer at
//     completion) are cancelled in O(1) instead of draining through
//     the heap, and each sample stops stepping the engine the moment
//     completion is known.
//
// One runner (engine + per-scheme state) is reused across the samples
// of a campaign, so steady-state sampling allocates nothing. Sample
// fans the campaign out across GOMAXPROCS with per-sample derived
// seeds; its output is bit-identical regardless of core count.
package protosim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"sdrrdma/internal/bitmap"
	"sdrrdma/internal/simnet"
	"sdrrdma/internal/wan"
)

// Config parameterizes one protocol simulation.
type Config struct {
	// Ch supplies bandwidth, RTT and the per-chunk drop probability.
	Ch wan.Params
	// Scheme is "sr", "sr-nack", "gbn" or "ec" (the MDS EC(ecK, ecM)
	// code with an SR fallback).
	Scheme string
	// AckLossProb drops acknowledgments (and NACKs) independently —
	// the control path rides the same lossy channel (§4.1).
	AckLossProb float64
}

// The protocol constants every simulation shares: RTO = rtoFactor·RTT
// (sr-nack uses the NACK path for recovery and keeps the RTO as a
// backstop), and "ec" runs the paper's MDS EC(32, 8) (§5.2.1), whose
// receiver recovers a submessage once any k of its k+m chunks arrive.
const (
	rtoFactor = 3
	ecK, ecM  = 32, 8
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	c.Ch = c.Ch.WithDefaults()
	if c.Scheme == "" {
		c.Scheme = "sr"
	}
	return c
}

// errEventBudget is wrapped by errors reported when a sample exhausts
// its event budget — the diagnosable form of a divergent configuration
// that would otherwise simulate forever.
var errEventBudget = errors.New("protosim: event budget exhausted")

// eventBudget bounds the engine events one sample of nchunks chunks may
// fire. A divergent configuration — e.g. Go-Back-N whose window timer
// expires before a chunk can even serialize, resending forever — would
// otherwise loop in virtual time without ever draining the queue; the
// budget turns that into errEventBudget. ~5 events per chunk per
// delivery round, and heavy-loss GBN can resend its window per drop:
// 10k·chunks (plus slack for tiny messages) is orders of magnitude
// above any converging campaign.
func eventBudget(nchunks int) int64 { return 100_000 + 10_000*int64(nchunks) }

// validate rejects unknown schemes and configurations known to
// diverge. cfg must already have defaults applied.
func validate(cfg Config) error {
	switch cfg.Scheme {
	case "sr", "sr-nack":
	case "gbn":
		// Real protocol property, not a simulator artifact: if the
		// window timer expires before a chunk finishes serializing, the
		// sender restarts the window forever and never completes. Catch
		// it at config time instead of burning the event budget.
		if rto := rtoFactor * cfg.Ch.RTT(); rto <= cfg.Ch.ChunkInjectionTime() {
			return fmt.Errorf(
				"protosim: gbn diverges: RTO %.3gs (%d · RTT %.3gs) ≤ chunk injection time %.3gs — shrink chunks or widen the link",
				rto, rtoFactor, cfg.Ch.RTT(), cfg.Ch.ChunkInjectionTime())
		}
	case "ec":
	default:
		return fmt.Errorf("protosim: unknown scheme %q", cfg.Scheme)
	}
	return nil
}

// Sample draws n completion times with a deterministic seed. The
// campaign fans out across GOMAXPROCS workers, each owning a reusable
// engine; sample i always draws from its own rng seeded by a splitmix64
// mix of (seed, i), so the returned slice is bit-identical regardless
// of core count or work distribution.
func Sample(cfg Config, msgBytes int64, n int, seed int64) ([]float64, error) {
	cfg = cfg.withDefaults()
	if err := validate(cfg); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	body := func(r *runner) {
		for firstErr.Load() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			r.rng.Seed(sampleSeed(seed, i))
			v, err := r.simulate(cfg, r.rng, msgBytes)
			if err != nil {
				err = fmt.Errorf("sample %d: %w", i, err)
				firstErr.CompareAndSwap(nil, &err)
				return
			}
			out[i] = v
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(newRunner())
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(newRunner())
			}()
		}
		wg.Wait()
	}
	if errp := firstErr.Load(); errp != nil {
		return nil, *errp
	}
	return out, nil
}

// sampleSeed derives a per-sample rng seed from (seed, i)
// (simnet.SplitMix64, shared with clock.Lanes' per-cell seeds) so
// neighbouring samples get decorrelated streams and the derivation is
// independent of which worker runs the sample.
func sampleSeed(seed int64, i int) int64 { return simnet.SplitMix64(seed, i) }

// runner bundles a reusable engine with per-scheme simulator state so
// one warm-up serves a whole campaign.
type runner struct {
	eng *simnet.Engine
	rng *rand.Rand // reseeded per sample on the Sample path
	sr  srSim
	gbn gbnSim
	ec  ecSim
}

func newRunner() *runner {
	r := &runner{eng: simnet.New(), rng: rand.New(rand.NewSource(1))}
	r.eng.Lanes(int(numLanes))
	return r
}

// simulate runs one sample: the sender-side completion time for a
// message of msgBytes, in seconds of virtual time. Completion is
// reported by an explicit done flag, so a legitimate completion at
// virtual time 0 (degenerate zero-latency configs) is not confused
// with "never finished"; if the event queue drains without the
// transfer completing, simulate returns +Inf. A config whose event
// queue never drains — e.g. Go-Back-N with RTO < T_inj, whose window
// timer keeps firing and resending before the first chunk finishes
// serializing — is rejected up front by the config sanity check when
// the divergence is predictable, and otherwise stopped by the
// per-sample event budget with an error wrapping errEventBudget.
//
// cfg must already be defaulted and validated (Sample does this once,
// not per sample); each scheme's run() leaves the engine Reset, so
// samples chain with no per-sample prologue.
func (r *runner) simulate(cfg Config, rng *rand.Rand, msgBytes int64) (float64, error) {
	nchunks := cfg.Ch.ChunksIn(msgBytes)
	switch cfg.Scheme {
	case "sr":
		return r.sr.run(r.eng, cfg, rng, nchunks, false)
	case "sr-nack":
		return r.sr.run(r.eng, cfg, rng, nchunks, true)
	case "gbn":
		return r.gbn.run(r.eng, cfg, rng, nchunks)
	default: // "ec" — validate guarantees no other value reaches here
		return r.ec.run(r.eng, cfg, rng, nchunks)
	}
}

// drive steps the engine until *done, the queue drains, or the budget
// runs out, returning the diagnosable budget error in the last case.
// The engine is Reset on exit either way, so the runner stays reusable.
func drive(eng *simnet.Engine, done *bool, budget int64, scheme string) error {
	var steps int64
	for !*done && eng.Step() {
		if steps++; steps >= budget && !*done {
			now, pending := eng.Now(), eng.Pending()
			eng.Reset()
			return fmt.Errorf("%w: %s fired %d events without completing (t=%.3gs, %d events still queued) — likely divergent (e.g. RTO below injection time)",
				errEventBudget, scheme, steps, now, pending)
		}
	}
	eng.Reset() // drop post-completion backstops without draining them
	return nil
}

// reuse returns s resized to n with all elements zeroed, keeping the
// backing array when capacity allows.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reuseBitmap returns a cleared bitmap of n bits, recycling b when the
// size matches (the common case: every sample of a campaign shares one
// geometry).
func reuseBitmap(b *bitmap.Bitmap, n int) *bitmap.Bitmap {
	if b == nil || b.Len() != n {
		return bitmap.New(n)
	}
	b.Reset()
	return b
}

// Monotone FIFO lanes (see simnet.ScheduleLane): every hot event class
// is scheduled at now+const, so per class the timestamps are
// nondecreasing and the O(log n) heap is bypassed. laneTx carries
// link-serialized transmit completions, laneNet the +half-RTT
// deliveries and control-path (ACK/NACK) arrivals, laneRTO the
// +RTO backstops that are armed thousands of times and almost always
// cancelled.
const (
	laneTx int32 = iota
	laneNet
	laneRTO
	numLanes
)

// link serializes transmissions onto the shared sender uplink: a chunk
// occupies the wire for tinj starting no earlier than the link is
// free. Retransmissions therefore compete with first transmissions —
// the effect the Appendix A "case 2" caveat describes.
type link struct {
	eng    *simnet.Engine
	tinj   float64
	freeAt float64
}

// transmit schedules a (kind, a, b) event at the instant the chunk
// finishes serializing.
func (l *link) transmit(kind, a, b int32) {
	start := l.eng.Now()
	if l.freeAt > start {
		start = l.freeAt
	}
	done := start + l.tinj
	l.freeAt = done
	l.eng.ScheduleLane(laneTx, done, kind, a, b)
}

// --- Selective Repeat (with optional NACK) --------------------------------

// srSim event kinds; a carries the chunk index (srNackArrive: the
// in-flight NACK-list slot).
const (
	srTx int32 = iota
	srDeliver
	srAck
	srRTO
	srNackArrive
)

// srSim runs Selective Repeat. The receiver ACKs each delivered chunk
// (selectively); in NACK mode a delivery whose chunk index exceeds the
// receive frontier NACKs the gap immediately, giving ~1-RTT recovery.
type srSim struct {
	eng     *simnet.Engine
	rng     *rand.Rand
	link    link
	nack    bool
	nchunks int

	half, rto      float64
	pdrop, ackLoss float64

	delivered *bitmap.Bitmap // receiver state
	acked     *bitmap.Bitmap // sender state; Count/Full are O(1)
	nacked    []bool         // chunk has an in-flight NACK request
	rtoTimer  []simnet.Timer // per-chunk backstop, disarmed by the ACK

	// pooled per-NACK snapshot lists (multiple NACKs can be in flight)
	nackLists [][]int32
	nackFree  []int32
	scratch   []int

	done   bool
	doneAt float64
}

func (s *srSim) run(eng *simnet.Engine, cfg Config, rng *rand.Rand, nchunks int, nack bool) (float64, error) {
	s.eng, s.rng, s.nack, s.nchunks = eng, rng, nack, nchunks
	s.link = link{eng: eng, tinj: cfg.Ch.ChunkInjectionTime()}
	s.half = cfg.Ch.RTT() / 2
	s.rto = rtoFactor * cfg.Ch.RTT()
	s.pdrop = cfg.Ch.PDrop
	s.ackLoss = cfg.AckLossProb
	s.delivered = reuseBitmap(s.delivered, nchunks)
	s.acked = reuseBitmap(s.acked, nchunks)
	s.nacked = reuse(s.nacked, nchunks)
	s.rtoTimer = reuse(s.rtoTimer, nchunks)
	s.nackFree = s.nackFree[:0]
	for i := range s.nackLists {
		s.nackLists[i] = s.nackLists[i][:0]
		s.nackFree = append(s.nackFree, int32(i))
	}
	s.done, s.doneAt = false, 0

	eng.SetHandler(s)
	for i := 0; i < nchunks; i++ {
		s.send(int32(i))
	}
	scheme := "sr"
	if nack {
		scheme = "sr-nack"
	}
	if err := drive(eng, &s.done, eventBudget(nchunks), scheme); err != nil {
		return 0, err
	}
	if !s.done {
		return math.Inf(1), nil
	}
	return s.doneAt, nil
}

func (s *srSim) send(i int32) { s.link.transmit(srTx, i, 0) }

func (s *srSim) HandleEvent(kind, a, b int32) {
	if s.done {
		return
	}
	switch kind {
	case srTx:
		// chunk finished serializing: (re)arm the per-chunk RTO backstop
		s.rtoTimer[a].Cancel()
		s.rtoTimer[a] = s.eng.ScheduleLaneAfter(laneRTO, s.rto, srRTO, a, 0)
		if s.rng.Float64() < s.pdrop {
			return // chunk lost in transit
		}
		s.eng.ScheduleLaneAfter(laneNet, s.half, srDeliver, a, 0)
	case srDeliver:
		s.delivered.Set(int(a))
		if s.rng.Float64() >= s.ackLoss {
			s.eng.ScheduleLaneAfter(laneNet, s.half, srAck, a, 0)
		}
		if s.nack && a > 0 {
			s.sendNack(int(a))
		}
	case srAck:
		if s.acked.Set(int(a)) {
			s.rtoTimer[a].Cancel()
			if s.acked.Full() {
				s.done, s.doneAt = true, s.eng.Now()
			}
		}
	case srRTO:
		if !s.acked.Test(int(a)) {
			s.send(a)
		}
	case srNackArrive:
		list := s.nackLists[a]
		for _, j := range list {
			s.nacked[j] = false
			if !s.acked.Test(int(j)) {
				s.send(j)
			}
		}
		s.nackLists[a] = list[:0]
		s.nackFree = append(s.nackFree, a)
	}
}

// sendNack requests every undelivered, not-yet-NACKed chunk below
// gapEnd. The scan starts at the receive frontier (the cumulative
// delivery prefix, O(1) amortized via the bitmap's monotonic hint)
// instead of rescanning [0, gapEnd) — the fix for the former O(n²)
// behaviour on long transfers.
func (s *srSim) sendNack(gapEnd int) {
	if s.rng.Float64() < s.ackLoss {
		return
	}
	frontier := s.delivered.CumulativeCount()
	if frontier >= gapEnd {
		return
	}
	s.scratch = s.delivered.Missing(s.scratch[:0], frontier, gapEnd)
	li := int32(-1)
	var list []int32
	for _, j := range s.scratch {
		if s.nacked[j] {
			continue
		}
		s.nacked[j] = true
		if li < 0 {
			li = s.allocNackList()
			list = s.nackLists[li]
		}
		list = append(list, int32(j))
	}
	if li < 0 {
		return
	}
	s.nackLists[li] = list
	s.eng.ScheduleLaneAfter(laneNet, s.half, srNackArrive, li, 0)
}

func (s *srSim) allocNackList() int32 {
	if n := len(s.nackFree); n > 0 {
		li := s.nackFree[n-1]
		s.nackFree = s.nackFree[:n-1]
		return li
	}
	s.nackLists = append(s.nackLists, nil)
	return int32(len(s.nackLists) - 1)
}

// --- Go-Back-N ------------------------------------------------------------

// gbnSim event kinds; a carries the chunk index (gbnAck: the
// cumulative-ACK value).
const (
	gbnTx int32 = iota
	gbnDeliver
	gbnAck
	gbnTimeout
)

// gbnSim runs classic Go-Back-N: the receiver only accepts the next
// in-order chunk and cumulative-ACKs; on timeout of the oldest unacked
// chunk the sender resends the whole outstanding window. This is the
// commodity-NIC baseline SDR's SR is provably no worse than (§4, [7]).
type gbnSim struct {
	eng  *simnet.Engine
	rng  *rand.Rand
	link link

	half, rto      float64
	pdrop, ackLoss float64

	nchunks  int
	expected int // receiver's next in-order chunk
	base     int // sender's first unacked chunk
	sent     int // next never-sent chunk
	window   int

	timer      simnet.Timer
	timerArmed bool

	done   bool
	doneAt float64
}

func (s *gbnSim) run(eng *simnet.Engine, cfg Config, rng *rand.Rand, nchunks int) (float64, error) {
	s.eng, s.rng, s.nchunks = eng, rng, nchunks
	s.link = link{eng: eng, tinj: cfg.Ch.ChunkInjectionTime()}
	s.half = cfg.Ch.RTT() / 2
	s.rto = rtoFactor * cfg.Ch.RTT()
	s.pdrop = cfg.Ch.PDrop
	s.ackLoss = cfg.AckLossProb
	s.expected, s.base, s.sent = 0, 0, 0
	// window: allow a full BDP of chunks outstanding (plus slack) so
	// the pipe stays full, like a tuned RC QP.
	s.window = int(cfg.Ch.BDPBytes()/float64(cfg.Ch.ChunkBytes))*2 + 16
	s.timer, s.timerArmed = simnet.Timer{}, false
	s.done, s.doneAt = false, 0

	eng.SetHandler(s)
	s.pump()
	s.armTimer()
	if err := drive(eng, &s.done, eventBudget(nchunks), "gbn"); err != nil {
		return 0, err
	}
	if !s.done {
		return math.Inf(1), nil
	}
	return s.doneAt, nil
}

func (s *gbnSim) armTimer() {
	if s.timerArmed {
		s.timer.Cancel()
	}
	s.timerArmed = true
	s.timer = s.eng.ScheduleLaneAfter(laneRTO, s.rto, gbnTimeout, 0, 0)
}

func (s *gbnSim) pump() {
	for s.sent < s.nchunks && s.sent-s.base < s.window {
		s.link.transmit(gbnTx, int32(s.sent), 0)
		s.sent++
	}
}

func (s *gbnSim) HandleEvent(kind, a, b int32) {
	if s.done {
		// base >= nchunks: completion already cancelled the window
		// timer; any event still in flight is stale and must not touch
		// sender state.
		return
	}
	switch kind {
	case gbnTx:
		if s.rng.Float64() < s.pdrop {
			return
		}
		s.eng.ScheduleLaneAfter(laneNet, s.half, gbnDeliver, a, 0)
	case gbnDeliver:
		if int(a) == s.expected {
			s.expected++
		}
		if s.rng.Float64() >= s.ackLoss {
			s.eng.ScheduleLaneAfter(laneNet, s.half, gbnAck, int32(s.expected), 0)
		}
	case gbnAck:
		if cum := int(a); cum > s.base {
			s.base = cum
			if s.base >= s.nchunks {
				s.timer.Cancel() // disarm the window-resend backstop
				s.timerArmed = false
				s.done, s.doneAt = true, s.eng.Now()
				return
			}
			s.armTimer()
			s.pump()
		}
	case gbnTimeout:
		s.timerArmed = false
		// go back N: resend everything outstanding
		for i := s.base; i < s.sent; i++ {
			s.link.transmit(gbnTx, int32(i), 0)
		}
		s.armTimer()
	}
}

// --- Erasure coding -------------------------------------------------------

// ecSim event kinds; a carries the global data-chunk index for data
// events and the submessage index for parity events.
const (
	ecDataTx int32 = iota
	ecDataDeliver
	ecParityTx
	ecParityDeliver
	ecRTO
	ecAckSend
	ecAckArrive
)

// ecSim runs the erasure-coded scheme: data and parity chunks are
// injected back to back; the receiver decodes submessages in place and
// positively ACKs when everything is recoverable (§4.1.2), with a
// per-data-chunk SR backstop as fallback.
//
// Recoverability is tracked incrementally in O(1) per delivery:
// missing[sub] and parityOK[sub] counters feed a monotone
// recovered[sub] flag and a global remaining-unrecoverable-submessage
// count, replacing the former scan of every submessage on every
// delivery.
type ecSim struct {
	eng  *simnet.Engine
	rng  *rand.Rand
	link link

	half, rto      float64
	pdrop, ackLoss float64

	nchunks, nsubs int

	dataOK    *bitmap.Bitmap // delivered data chunks, global index
	parityOK  []int32        // delivered parity count per submessage
	missing   []int32        // missing data chunks per submessage
	recovered []bool
	unrecov   int // submessages not yet recoverable
	rtoTimer  []simnet.Timer

	done   bool
	doneAt float64
}

// realChunks returns the number of data chunks in submessage sub (the
// last submessage may be short).
func (s *ecSim) realChunks(sub int) int {
	real := s.nchunks - sub*ecK
	if real > ecK {
		real = ecK
	}
	return real
}

func (s *ecSim) run(eng *simnet.Engine, cfg Config, rng *rand.Rand, nchunks int) (float64, error) {
	s.eng, s.rng, s.nchunks = eng, rng, nchunks
	s.link = link{eng: eng, tinj: cfg.Ch.ChunkInjectionTime()}
	s.half = cfg.Ch.RTT() / 2
	s.rto = rtoFactor * cfg.Ch.RTT()
	s.pdrop = cfg.Ch.PDrop
	s.ackLoss = cfg.AckLossProb
	s.nsubs = (nchunks + ecK - 1) / ecK
	s.dataOK = reuseBitmap(s.dataOK, nchunks)
	s.parityOK = reuse(s.parityOK, s.nsubs)
	s.missing = reuse(s.missing, s.nsubs)
	s.recovered = reuse(s.recovered, s.nsubs)
	s.rtoTimer = reuse(s.rtoTimer, nchunks)
	s.unrecov = s.nsubs
	for sub := 0; sub < s.nsubs; sub++ {
		s.missing[sub] = int32(s.realChunks(sub))
	}
	s.done, s.doneAt = false, 0

	eng.SetHandler(s)
	for sub := 0; sub < s.nsubs; sub++ {
		for j := 0; j < s.realChunks(sub); j++ {
			s.link.transmit(ecDataTx, int32(sub*ecK+j), 0)
		}
		for j := 0; j < ecM; j++ {
			s.link.transmit(ecParityTx, int32(sub), 0)
		}
	}
	if err := drive(eng, &s.done, eventBudget(nchunks), "ec"); err != nil {
		return 0, err
	}
	if !s.done {
		return math.Inf(1), nil
	}
	return s.doneAt, nil
}

func (s *ecSim) HandleEvent(kind, a, b int32) {
	if s.done {
		return
	}
	switch kind {
	case ecDataTx:
		// (re)arm the SR-fallback backstop for this data chunk
		s.rtoTimer[a].Cancel()
		s.rtoTimer[a] = s.eng.ScheduleLaneAfter(laneRTO, s.rto, ecRTO, a, 0)
		if s.rng.Float64() < s.pdrop {
			return
		}
		s.eng.ScheduleLaneAfter(laneNet, s.half, ecDataDeliver, a, 0)
	case ecDataDeliver:
		if s.dataOK.Set(int(a)) {
			s.rtoTimer[a].Cancel()
			sub := int(a) / ecK
			s.missing[sub]--
			s.checkRecovered(sub)
		}
	case ecParityTx:
		if s.rng.Float64() < s.pdrop {
			return
		}
		s.eng.ScheduleLaneAfter(laneNet, s.half, ecParityDeliver, a, 0)
	case ecParityDeliver:
		s.parityOK[a]++
		s.checkRecovered(int(a))
	case ecRTO:
		if !s.dataOK.Test(int(a)) && !s.recovered[int(a)/ecK] {
			s.link.transmit(ecDataTx, a, 0)
		}
	case ecAckSend:
		s.tryAck()
	case ecAckArrive:
		s.done, s.doneAt = true, s.eng.Now()
	}
}

// checkRecovered re-evaluates submessage sub after a delivery. All
// counter transitions are monotone toward recoverability, so the O(1)
// threshold test here is exact: an MDS submessage decodes once its
// delivered parity covers its missing data.
func (s *ecSim) checkRecovered(sub int) {
	if s.recovered[sub] || s.missing[sub] > s.parityOK[sub] {
		return
	}
	s.recovered[sub] = true
	// The submessage's losses decode in place: its outstanding SR
	// backstops are dead weight — disarm them instead of letting them
	// drain through the heap.
	lo, hi := sub*ecK, sub*ecK+s.realChunks(sub)
	for c := lo; c < hi; c++ {
		if !s.dataOK.Test(c) {
			s.rtoTimer[c].Cancel()
		}
	}
	s.unrecov--
	if s.unrecov == 0 {
		s.tryAck()
	}
}

// tryAck sends the positive ACK back to the sender. A lost ACK retries
// after an RTO — previously a lost final ACK left the sender waiting
// forever (the run returned the zero-value sentinel).
func (s *ecSim) tryAck() {
	if s.rng.Float64() < s.ackLoss {
		s.eng.ScheduleAfter(s.rto, ecAckSend, 0, 0)
		return
	}
	s.eng.ScheduleAfter(s.half, ecAckArrive, 0, 0)
}
