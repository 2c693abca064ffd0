package reliability

import (
	"fmt"
	"time"

	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/telemetry"
)

// Adaptive mid-flight reliability (README, "Adaptive reliability under
// faults"; its policy is ROADMAP's "The adaptive policy, measured
// against the oracle"): instead of fixing SR or EC for the whole
// connection, the transfer is cut into segments of SegmentChunks chunks
// and each segment runs the scheme a per-session Adaptor picked from
// the signals of already-completed segments — duplicate arrivals
// (retransmission ≈ wire loss), missing data chunks recovered from
// parity (erasure rate), and ECN marks (congestion, which parity would
// worsen rather than mask).
//
// The decision is receiver-driven: every adaptation signal already
// lives on the receiver (bitmaps, duplicate counters, the Marked bit
// threaded up from netem queues), so the receiver picks the scheme
// when it posts a segment and announces it to the sender in a plan
// control message. Segment 0 always runs Ladder[0], so the transfer
// needs no rendezvous before first byte.
//
// Segments overlap in a window: the receiver keeps up to Window
// segments posted ahead of the completion head, and the sender starts
// a segment as soon as its plan is known and the matching clear-to-
// send arrived (QP.SendReady — never blocking the pump loop that
// services retransmissions of open segments). Completion and
// observation advance strictly in segment order, which is what makes
// the adaptation trajectory — and therefore every byte on the wire —
// deterministic per seed.
//
// Loss robustness of the control additions mirrors the rest of the
// protocol: plans ride the lossy control path, so the receiver
// re-sends the plan of any posted segment that has seen no arrivals on
// every ACK tick, and the sender ignores plans for segments it already
// started.

// Scheme selects a per-segment reliability scheme.
type Scheme byte

const (
	// SchemeSR runs the segment under Selective Repeat with NACK fast
	// retransmission — zero overhead bytes, recovery costs round trips.
	SchemeSR Scheme = iota
	// SchemeEC runs the segment erasure-coded — overhead bytes buy
	// recovery without retransmission round trips.
	SchemeEC
)

// Mode is one rung of the adaptive ladder: a scheme plus its EC split.
type Mode struct {
	Scheme Scheme
	// K and M are the erasure-code split (SchemeEC only). K must equal
	// AdaptorConfig.SegmentChunks so each segment is exactly one
	// submessage.
	K, M int
}

// Name labels the mode for figure output.
func (m Mode) Name() string {
	if m.Scheme == SchemeSR {
		return "sr"
	}
	return fmt.Sprintf("ec(%d,%d)", m.K, m.M)
}

// AdaptorConfig tunes the adaptive controller.
type AdaptorConfig struct {
	// SegmentChunks is the adaptation granularity: scheme switches
	// happen only at boundaries of SegmentChunks-chunk segments.
	SegmentChunks int
	// Window bounds how many segments the receiver keeps posted ahead
	// of the completion head. It must cover the path's bandwidth-delay
	// product (in segments) or the pipeline throttles below line rate.
	Window int
	// Ladder orders the modes from cheapest (index 0, clean network) to
	// most protective. Escalation and de-escalation move one rung at a
	// time. Ladder[0] is the segment-0 convention both sides assume.
	Ladder []Mode
	// EnterLoss and ExitLoss are the hysteresis thresholds on the
	// per-segment loss signal: escalate at or above EnterLoss,
	// de-escalate at or below ExitLoss. EnterLoss > ExitLoss keeps a
	// flapping signal from thrashing the ladder.
	EnterLoss, ExitLoss float64
	// CongestionMarkFrac discriminates congestion from wire loss: when
	// at least this fraction of a segment's packets carried the ECN
	// mark, the loss is self-inflicted queue pressure and the adaptor
	// de-escalates (parity overhead feeds the queue) instead of
	// escalating.
	CongestionMarkFrac float64
	// MinDwell is the floor: at least this many segments must complete
	// between consecutive switches.
	MinDwell int
}

// WithDefaults fills zero fields with the regime-sweep calibration.
func (c AdaptorConfig) WithDefaults() AdaptorConfig {
	if c.SegmentChunks == 0 {
		c.SegmentChunks = 16
	}
	if c.Window == 0 {
		c.Window = 6
	}
	if c.Ladder == nil {
		k := c.SegmentChunks
		c.Ladder = []Mode{
			{Scheme: SchemeSR},
			{Scheme: SchemeEC, K: k, M: (k + 7) / 8},
			{Scheme: SchemeEC, K: k, M: (k + 3) / 4},
			{Scheme: SchemeEC, K: k, M: (k + 1) / 2},
		}
	}
	if c.EnterLoss == 0 {
		c.EnterLoss = 0.02
	}
	if c.ExitLoss == 0 {
		c.ExitLoss = 0.005
	}
	if c.CongestionMarkFrac == 0 {
		c.CongestionMarkFrac = 0.05
	}
	if c.MinDwell == 0 {
		c.MinDwell = 2
	}
	return c
}

// validate reports configuration errors.
func (c AdaptorConfig) validate() error {
	switch {
	case c.SegmentChunks <= 0:
		return fmt.Errorf("reliability: adaptor segment %d chunks <= 0", c.SegmentChunks)
	case c.Window <= 0:
		return fmt.Errorf("reliability: adaptor window %d <= 0", c.Window)
	case len(c.Ladder) == 0:
		return fmt.Errorf("reliability: adaptor ladder empty")
	case c.EnterLoss <= c.ExitLoss:
		return fmt.Errorf("reliability: adaptor hysteresis inverted (enter %g <= exit %g)",
			c.EnterLoss, c.ExitLoss)
	case c.ExitLoss < 0:
		return fmt.Errorf("reliability: adaptor exit threshold %g < 0", c.ExitLoss)
	case c.CongestionMarkFrac <= 0 || c.CongestionMarkFrac > 1:
		return fmt.Errorf("reliability: adaptor mark fraction %g outside (0,1]", c.CongestionMarkFrac)
	case c.MinDwell < 1:
		return fmt.Errorf("reliability: adaptor dwell floor %d < 1", c.MinDwell)
	}
	for i, m := range c.Ladder {
		if m.Scheme == SchemeSR {
			continue
		}
		if m.K != c.SegmentChunks {
			return fmt.Errorf("reliability: ladder[%d] K=%d != segment chunks %d (one submessage per segment)",
				i, m.K, c.SegmentChunks)
		}
		if m.M <= 0 {
			return fmt.Errorf("reliability: ladder[%d] M=%d <= 0", i, m.M)
		}
	}
	return nil
}

// segStats is what the receiver observed over one completed segment —
// the adaptor's only input.
type segStats struct {
	// Seg is the segment index; Mode the scheme it ran under.
	Seg  int
	Mode Mode
	// Arrived counts packets accepted across the segment's receives;
	// Dups the accepted packets that were retransmission overlap;
	// Marked the accepted packets carrying the ECN bit.
	Arrived, Dups, Marked uint64
	// MissingData counts real data chunks that never arrived on the
	// wire (recovered from parity or NACK fallback); DataChunks the
	// segment's real data chunk count.
	MissingData, DataChunks int
}

// lossSignal condenses the stats into the scalar the hysteresis
// thresholds compare against: the wire-loss fraction the segment
// experienced.
func (s segStats) lossSignal() float64 {
	var sig float64
	if s.Arrived > 0 {
		sig = float64(s.Dups) / float64(s.Arrived)
	}
	if s.DataChunks > 0 {
		if f := float64(s.MissingData) / float64(s.DataChunks); f > sig {
			sig = f
		}
	}
	return sig
}

// markFrac is the fraction of arrived packets that carried the ECN
// congestion-experienced bit.
func (s segStats) markFrac() float64 {
	if s.Arrived == 0 {
		return 0
	}
	return float64(s.Marked) / float64(s.Arrived)
}

// Switch records one ladder move for figure output.
type Switch struct {
	AfterSeg int
	From, To Mode
}

// Adaptor is the per-session adaptation controller. It lives on the
// receiver, persists across transfers, and is NOT safe for concurrent
// use (operations on an endpoint are serialized anyway).
type Adaptor struct {
	cfg      AdaptorConfig
	idx      int
	dwell    int
	observed int
	switches []Switch
}

// NewAdaptor validates cfg (after defaults) and returns a controller
// starting at Ladder[0].
func NewAdaptor(cfg AdaptorConfig) (*Adaptor, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Adaptor{cfg: cfg, dwell: cfg.MinDwell}, nil
}

// Config returns the adaptor's configuration (defaults applied).
func (a *Adaptor) Config() AdaptorConfig { return a.cfg }

// mode returns the mode the next posted segment should run under.
func (a *Adaptor) mode() Mode { return a.cfg.Ladder[a.idx] }

// rung returns the current ladder index.
func (a *Adaptor) rung() int { return a.idx }

// Switches returns the ladder moves taken so far (shared; do not
// mutate).
func (a *Adaptor) Switches() []Switch { return a.switches }

// observe feeds one completed segment's stats into the controller,
// possibly moving the ladder one rung. Hysteresis (EnterLoss/ExitLoss)
// and the MinDwell floor keep a flapping signal from thrashing.
func (a *Adaptor) observe(s segStats) {
	a.observed++
	a.dwell++
	if a.dwell < a.cfg.MinDwell {
		return
	}
	loss := s.lossSignal()
	congested := s.markFrac() >= a.cfg.CongestionMarkFrac
	next := a.idx
	switch {
	case congested:
		// Queue pressure: parity overhead feeds the very queue that is
		// marking, so shed protection instead of adding it.
		if a.idx > 0 {
			next = a.idx - 1
		}
	case loss >= a.cfg.EnterLoss:
		if a.idx < len(a.cfg.Ladder)-1 {
			next = a.idx + 1
		}
	case loss <= a.cfg.ExitLoss:
		if a.idx > 0 {
			next = a.idx - 1
		}
	}
	if next == a.idx {
		return
	}
	a.switches = append(a.switches, Switch{AfterSeg: s.Seg, From: a.cfg.Ladder[a.idx], To: a.cfg.Ladder[next]})
	a.idx = next
	a.dwell = 0
}

// --- geometry --------------------------------------------------------------

// planBit distinguishes the plan control stream's opID from real
// operation sequence numbers (which never reach the top bit).
const planBit = uint64(1) << 63

// segmentation cuts a message of total bytes into the adaptive
// protocol's segments. It is ecGeometry's submessage arithmetic with
// k = SegmentChunks and no parity: g.L segments, segment i spanning
// g.subBytes(i, total) bytes from g.subOffset(i).
func segmentation(acfg AdaptorConfig, chunkBytes, total int) ecGeometry {
	return newECGeometry(total, chunkBytes, acfg.SegmentChunks, 0)
}

// segParityBytes is the per-segment parity region size: each segment
// is one submessage (validate pins K = SegmentChunks), so the region
// holds the M chunks of the ladder's most protective rung.
func segParityBytes(acfg AdaptorConfig, chunkBytes int) int {
	maxM := 0
	for _, m := range acfg.Ladder {
		if m.Scheme == SchemeEC {
			maxM = max(maxM, m.M)
		}
	}
	return maxM * chunkBytes
}

// AdaptiveScratchBytes returns the parity scratch ReceiveAdaptive
// requires for a message of msgBytes: one region per segment (regions
// are never reused, so a late parity packet from a stale path cannot
// corrupt a newer segment's scratch), each sized for the most
// protective rung.
func AdaptiveScratchBytes(acfg AdaptorConfig, chunkBytes, msgBytes int) int {
	acfg = acfg.WithDefaults()
	return segmentation(acfg, chunkBytes, msgBytes).L * segParityBytes(acfg, chunkBytes)
}

// --- sender ----------------------------------------------------------------

// segGeometry is the geometry a segment of size bytes runs under mode:
// plain for SR, one (K, M) submessage for EC.
func segGeometry(mode Mode, size, chunkBytes int) ecGeometry {
	if mode.Scheme == SchemeSR {
		return plainGeometry(size, chunkBytes)
	}
	return newECGeometry(size, chunkBytes, mode.K, mode.M)
}

// WriteAdaptive reliably writes data under the adaptive segment
// protocol. acfg must match the receiver's Adaptor configuration
// (SegmentChunks, Window and Ladder[0] are load-bearing; the rest of
// the ladder is learned from plan messages).
func (e *Endpoint) WriteAdaptive(acfg AdaptorConfig, data []byte) error {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	acfg = acfg.WithDefaults()
	if err := acfg.validate(); err != nil {
		return err
	}
	cfg := e.Cfg
	clk := e.clock()
	chunkBytes := e.QP.Config().ChunkBytes
	g := segmentation(acfg, chunkBytes, len(data))

	// A segment's plan is its geometry: segs[i].g stays zero (k = 0)
	// until the scheme of segment i is known.
	segs := scratchSlice(&e.scr.sendSegs, g.L)
	streams := scratchSlice(&e.scr.streams, g.L)
	chunks := scratchSlice(&e.scr.srChunks, g.L*acfg.SegmentChunks)
	e.scr.reserveParity(g.L * segParityBytes(acfg, chunkBytes))
	plan := func(i int, mode Mode) {
		segs[i].g = segGeometry(mode, g.subBytes(i, len(data)), chunkBytes)
	}

	started := 0
	defer func() {
		for i := range segs[:started] {
			segs[i].end()
		}
		clear(segs) // the pooled table must not pin the caller's payload
	}()
	start := func() error {
		i := started
		s := &segs[i]
		*s = sendSeg{
			e: e, data: data[g.subOffset(i):][:g.subBytes(i, len(data))], g: s.g, sub0: i,
			streams: streams[i : i+1],
			chunks:  chunks[i*acfg.SegmentChunks:][:s.g.nchunks],
		}
		started++
		return s.start()
	}

	// Segment 0 runs Ladder[0] and starts unconditionally (the receiver
	// posts it on entry); it anchors the plan stream's opID on both
	// sides.
	plan(0, acfg.Ladder[0])
	if err := start(); err != nil {
		return err
	}
	planID := planBit | segs[0].opID
	planCh := e.CP.register(planID)
	defer e.CP.unregister(planID)

	applyPlan := func(m ctrlMsg) {
		i := int(m.planSeg)
		if m.typ != msgPlan || i >= g.L || i < started {
			return // stale or already committed
		}
		mode := Mode{Scheme: Scheme(m.planScheme)}
		if mode.Scheme == SchemeEC {
			mode.K, mode.M = int(m.planK), int(m.planM)
			if mode.K != acfg.SegmentChunks {
				return // not one submessage per segment
			}
			if _, err := e.codeFor(mode.K, mode.M); err != nil {
				return // unusable plan: keep waiting for a sane one
			}
		}
		plan(i, mode)
	}

	rto := cfg.rto()
	deadline := clk.Now().Add(cfg.GlobalTimeout)
	completed := 0
	for {
		epoch := clk.Epoch()
		if err := e.abortErr(); err != nil {
			return fmt.Errorf("adaptive write %d B: %w", len(data), err)
		}
		for more := true; more; {
			select {
			case m := <-planCh:
				applyPlan(m)
			default:
				more = false
			}
		}
		// Start every segment whose plan is known and whose receive is
		// already posted: SendReady keeps this loop non-blocking, so a
		// stalled head segment can still be pumped below.
		for started < g.L && segs[started].g.k > 0 && e.QP.SendReady() {
			if err := start(); err != nil {
				return err
			}
		}
		now := clk.Now()
		// Pump every segment's acks first, so repair below sees one
		// consistent ack snapshot. First transmissions are injected
		// strictly in segment order, so ack evidence from segment j
		// proves every chunk of segments i < j crossed the network once
		// — and had a chunk survived, its own SACK would be in the same
		// drained batch (the receiver SACKs every posted segment each
		// ack interval). A hole in the snapshot is therefore loss, not
		// data in flight, and the first repair needs no age gate at all:
		// age-gating against a fixed RTT underestimates queueing delay
		// and turns every standing queue into spurious retransmissions.
		maxAcked := -1
		for i := completed; i < started; i++ {
			s := &segs[i]
			if !s.done {
				if _, err := s.pump(); err != nil {
					return err
				}
				if s.done {
					if err := s.end(); err != nil {
						return err
					}
				}
			}
			if s.done || s.acked > 0 {
				maxAcked = i
			}
		}
		outstanding := 0
		for i := completed; i < started; i++ {
			s := &segs[i]
			if s.done {
				continue
			}
			outstanding += len(s.chunks) - s.acked
			if s.g.m > 0 {
				continue // coded segments repair on the receiver's NACK
			}
			// Evidence frontier: every chunk below the segment's own
			// highest acked chunk is provably lost — or the whole
			// segment is, when a later segment has acked anything.
			limit := len(s.chunks)
			if i >= maxAcked {
				limit = s.highestAcked()
			}
			for c := 0; c < limit; c++ {
				if ch := &s.chunks[c]; !ch.acked && !ch.repaired {
					ch.repaired = true
					if err := s.resend(0, c, telemetry.CauseHole); err != nil {
						return err
					}
				}
			}
			// RTO sweep: the last resort for repairs that were
			// themselves lost and for tail holes with no later evidence.
			if err := s.sweepRTO(now, rto); err != nil {
				return err
			}
		}
		for completed < started && segs[completed].done {
			completed++
		}
		if completed >= g.L {
			return nil
		}
		if now.After(deadline) {
			return fmt.Errorf("%w: adaptive write %d B, %d/%d segments done",
				errGlobalTimeout, len(data), completed, g.L)
		}
		e.noteInflight(outstanding)
		clk.WaitNotify(epoch, cfg.PollInterval)
	}
}

// rungOf returns mode's index on the ladder (-1 when absent).
func rungOf(acfg AdaptorConfig, m Mode) int {
	for i, r := range acfg.Ladder {
		if r == m {
			return i
		}
	}
	return -1
}

// --- receiver --------------------------------------------------------------

// adaptiveSegRecv is one posted segment on the receiver: the segment
// mechanism plus the adaptive policy's per-segment timing state.
type adaptiveSegRecv struct {
	recvSeg
	mode Mode

	sawData  bool
	seen     uint64 // packets observed at last tick (progress gate)
	nextNack time.Time
}

// packets counts the packets accepted so far across the segment's
// receives.
func (s *adaptiveSegRecv) packets() uint64 {
	sub := s.subs[0]
	n := uint64(sub.dataH.PacketBitmap().Count())
	if sub.parityH != nil {
		n += uint64(sub.parityH.PacketBitmap().Count())
	}
	return n
}

// stats condenses what the receiver observed over the completed segment.
func (s *adaptiveSegRecv) stats() segStats {
	sub := s.subs[0]
	st := segStats{
		Seg:         s.idx,
		Mode:        s.mode,
		Arrived:     s.packets(),
		Dups:        sub.dataH.DuplicatePackets(),
		Marked:      sub.dataH.MarkedPackets(),
		DataChunks:  sub.dataH.NumChunks(),
		MissingData: s.missing,
	}
	if sub.parityH != nil {
		st.Dups += sub.parityH.DuplicatePackets()
		st.Marked += sub.parityH.MarkedPackets()
	}
	return st
}

// ReceiveAdaptive receives one adaptive Write into
// mr[offset:offset+size], driving ad's scheme decisions from the
// observed per-segment signals. scratch must hold
// AdaptiveScratchBytes(ad.Config(), chunkBytes, size) bytes.
func (e *Endpoint) ReceiveAdaptive(ad *Adaptor, mr *nicsim.MR, offset uint64, size int, scratch *nicsim.MR) error {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	cfg := e.Cfg
	acfg := ad.cfg
	clk := e.clock()
	chunkBytes := e.QP.Config().ChunkBytes
	g := segmentation(acfg, chunkBytes, size)
	perSegScratch := segParityBytes(acfg, chunkBytes)
	if need := uint64(g.L * perSegScratch); scratch.Span() < need {
		return fmt.Errorf("reliability: adaptive scratch %d B, need %d", scratch.Span(), need)
	}

	segs := scratchSlice(&e.scr.recvSegs, g.L)
	subs := scratchSlice(&e.scr.subs, g.L)
	var planID uint64
	head, posted := 0, 0
	// fail retires every receive still posted before an error exit, so
	// the endpoint's next operation finds its slots free.
	fail := func(err error) error {
		for i := head; i < posted; i++ {
			segs[i].abandon()
		}
		return err
	}

	sendPlan := func(s *adaptiveSegRecv) {
		m := ctrlMsg{typ: msgPlan, opID: planID, planSeg: uint32(s.idx), planScheme: byte(s.mode.Scheme)}
		if s.mode.Scheme == SchemeEC {
			m.planK, m.planM = uint16(s.mode.K), uint16(s.mode.M)
		}
		e.CP.send(m)
	}

	// postAhead keeps up to Window segments posted beyond the head, each
	// under the adaptor's current rung, announcing the choice to the
	// sender. Segment 0 runs Ladder[0] unannounced (the no-rendezvous
	// convention) and its receive's sequence number anchors the plan
	// stream's opID, which every later plan needs.
	postAhead := func() error {
		for ; posted < g.L && posted < head+acfg.Window; posted++ {
			i := posted
			mode := ad.mode()
			if i == 0 {
				mode = acfg.Ladder[0]
			}
			s, segSize := &segs[i], g.subBytes(i, size)
			*s = adaptiveSegRecv{mode: mode, recvSeg: recvSeg{
				e: e, idx: i, g: segGeometry(mode, segSize, chunkBytes),
				mr: mr, base: offset + uint64(g.subOffset(i)), size: segSize,
				scratch: scratch, pbase: uint64(i * perSegScratch),
				subs: subs[i : i+1],
			}}
			if err := s.post(); err != nil {
				return fmt.Errorf("reliability: adaptive segment %d: %w", i, err)
			}
			// The first fallback deadline must cover the posting-ahead
			// pipeline lag — this segment is posted up to Window segments
			// before the sender's stream reaches it — not just the
			// injection estimate, or it NACKs data that is still queued
			// behind its predecessors. Once packets arrive, the progress
			// gate in tick re-arms the timer from observed deliveries.
			s.nextNack = clk.Now().Add(cfg.fto() + cfg.rto())
			if i == 0 {
				planID = planBit | s.opID()
			} else {
				sendPlan(s)
			}
			e.probe(telemetry.EvSegPlan, int64(i), int64(rungOf(acfg, mode)), 0, 0)
		}
		return nil
	}
	if err := postAhead(); err != nil {
		return fail(err)
	}

	// finalize completes the head segment and feeds the adaptor.
	finalize := func(s *adaptiveSegRecv) {
		s.finish()
		stats := s.stats()
		before := ad.rung()
		ad.observe(stats)
		e.noteGoodput(int64(s.size))
		if e.tel.sink != nil {
			lossPPM := int64(stats.lossSignal() * 1e6)
			markPPM := int64(stats.markFrac() * 1e6)
			e.probe(telemetry.EvSegStats, int64(s.idx), lossPPM, markPPM, int64(before))
			if after := ad.rung(); after != before {
				e.probe(telemetry.EvLadderSwitch, int64(s.idx), int64(before), int64(after), lossPPM)
			}
		}
	}

	// tick runs one segment's periodic duties: SR progress ACKs, EC
	// fallback NACKs, and plan re-sends while the sender may not have
	// heard the plan yet.
	tick := func(s *adaptiveSegRecv, now time.Time) {
		if !s.sawData && s.subs[0].dataH.PacketBitmap().Count() > 0 {
			s.sawData = true
		}
		if s.idx > 0 && !s.sawData {
			sendPlan(s) // plan may have been lost; data cannot flow without it
		}
		if s.mode.Scheme == SchemeSR {
			e.CP.send(s.ackMsg(false))
			return
		}
		// Recoverable segments need no repair traffic: parity already
		// covers the losses, and the decode happens when the head
		// reaches them. Without this check a parity-covered segment
		// parked behind a stalled head NACKs its missing data chunks
		// every round, and every resend is a pure duplicate.
		if s.recoverAll() {
			return
		}
		if n := s.packets(); n > s.seen {
			// The stream is still making progress; a gap now is
			// indistinguishable from in-flight data, so re-arm the
			// fallback from the latest delivery instead of NACKing
			// into the pipe. Half an RTT of silence on a segment the
			// sender has already reached means loss, not reordering:
			// the stream is strictly windowed, so nothing legitimate
			// arrives that far behind the frontier.
			s.seen = n
			s.nextNack = now.Add(cfg.RTT / 2)
			return
		}
		if now.After(s.nextNack) {
			s.nack()
			s.nextNack = now.Add(cfg.RTT)
		}
	}

	start := clk.Now()
	deadline := start.Add(cfg.GlobalTimeout)
	nextAck := start.Add(cfg.AckInterval)
	for {
		epoch := clk.Epoch()
		// Advance the completion head in order: observation order is
		// what keeps the adaptation trajectory deterministic.
		for head < posted && segs[head].recoverAll() {
			finalize(&segs[head])
			head++
			if err := postAhead(); err != nil {
				return fail(err)
			}
		}
		if head >= g.L {
			return nil
		}
		if err := e.abortErr(); err != nil {
			return fail(fmt.Errorf("adaptive receive %d B: %w", size, err))
		}
		now := clk.Now()
		if now.After(deadline) {
			return fail(fmt.Errorf("%w: adaptive receive %d B, %d/%d segments",
				errGlobalTimeout, size, head, g.L))
		}
		if !now.Before(nextAck) {
			for i := head; i < posted; i++ {
				tick(&segs[i], now)
			}
			nextAck = now.Add(cfg.AckInterval)
		}
		clk.WaitNotify(epoch, nextAck.Sub(now))
	}
}
