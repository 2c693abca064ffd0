package reliability

import (
	"fmt"
	"time"

	"sdrrdma/internal/core"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/telemetry"
)

// The engine: the one send loop (write) and the one receive loop
// (receive) every scheme runs. Both follow a ladder — an AdaptorConfig
// whose SegmentChunks cuts the message into segments, whose Window
// bounds how many the receiver keeps posted and whose rungs are the
// modes a segment may run under. A static scheme is a one-rung ladder
// (srLadder, Config.ecLadder): one segment spanning the message, window
// 1, and a rung carrying the scheme's timing policy (Mode.static). The
// adaptive scheme is the Adaptor's ladder, whose controller picks each
// later segment's rung (adaptive.go).
//
// A loop's state for one message (sendOp, recvOp) lives in the
// endpoint's scratch, not in the loop's frame. Every message's actors
// may start on fresh goroutines, whose stacks start small, and a parked
// actor drives the clock's deliveries on top of its loop frame: a bulky
// frame makes them grow their stacks on every message.

// planBit distinguishes the plan control stream's opID from real
// operation sequence numbers (which never reach the top bit).
const planBit = uint64(1) << 63

// srLadder is the one-rung ladder sr and sr-nack run on: SegmentChunks
// 0 makes the whole message one plain segment, and the rung is marked
// static. Config.NACK tells the two schemes apart.
var srLadder = AdaptorConfig{Window: 1, Ladder: []Mode{{Scheme: SchemeSR, static: true}}}

// ecLadder is the one-rung ladder static EC runs on: one coded segment
// holding all L submessages of the config's (K, M) split.
func (c Config) ecLadder() AdaptorConfig {
	return AdaptorConfig{Window: 1, Ladder: []Mode{{Scheme: SchemeEC, K: c.K, M: c.M, static: true}}}
}

// --- geometry --------------------------------------------------------------

// segmentation cuts a message of total bytes into the ladder's
// segments. It is ecGeometry's submessage arithmetic with
// k = SegmentChunks and no parity: g.L segments, segment i spanning
// g.subBytes(i, total) bytes from g.subOffset(i). A static ladder's
// SegmentChunks 0 makes it the plain geometry: one segment.
func segmentation(acfg AdaptorConfig, chunkBytes, total int) ecGeometry {
	if acfg.SegmentChunks == 0 {
		return plainGeometry(total, chunkBytes)
	}
	return newECGeometry(total, chunkBytes, acfg.SegmentChunks, 0)
}

// segGeometry is the geometry a segment of size bytes runs under mode:
// plain for SR, (K, M) submessages for EC.
func segGeometry(mode Mode, size, chunkBytes int) ecGeometry {
	if mode.Scheme == SchemeSR {
		return plainGeometry(size, chunkBytes)
	}
	return newECGeometry(size, chunkBytes, mode.K, mode.M)
}

// segParityBytes is the per-segment parity region of a message of size
// bytes: room for the parity submessages of the largest segment (the
// first) under the ladder's most protective rung. On an adaptive ladder
// each segment is one submessage (validate pins K = SegmentChunks), so
// that is the M chunks of the rung with the largest M.
func segParityBytes(acfg AdaptorConfig, chunkBytes, size int) int {
	seg := segmentation(acfg, chunkBytes, size).subBytes(0, size)
	n := 0
	for _, m := range acfg.Ladder {
		if m.Scheme == SchemeEC {
			g := segGeometry(m, seg, chunkBytes)
			n = max(n, g.L*g.parityBytes())
		}
	}
	return n
}

// scratchBytes is the parity scratch the receiver of a msgBytes message
// needs under the ladder: one region per segment (regions are never
// reused, so a late parity packet from a stale path cannot corrupt a
// newer segment's scratch) — none on a ladder without an EC rung.
func scratchBytes(acfg AdaptorConfig, chunkBytes, msgBytes int) int {
	return segmentation(acfg, chunkBytes, msgBytes).L * segParityBytes(acfg, chunkBytes, msgBytes)
}

// ECScratchBytes returns the parity scratch ReceiveEC requires for a
// message of msgBytes under this config and chunk size: L·m chunks.
func (c Config) ECScratchBytes(chunkBytes, msgBytes int) int {
	return scratchBytes(c.WithDefaults().ecLadder(), chunkBytes, msgBytes)
}

// AdaptiveScratchBytes returns the parity scratch ReceiveAdaptive
// requires for a message of msgBytes: one region per segment, each
// sized for the most protective rung.
func AdaptiveScratchBytes(acfg AdaptorConfig, chunkBytes, msgBytes int) int {
	return scratchBytes(acfg.WithDefaults(), chunkBytes, msgBytes)
}

// --- sender ----------------------------------------------------------------

// sendOp is the send loop's state for one message.
type sendOp struct {
	e        *Endpoint
	data     []byte
	g        ecGeometry   // the message's segmentation
	plans    chan ctrlMsg // the plan stream
	deadline time.Time
	// segs, streams and chunks are pooled. A segment's plan is its
	// geometry: segs[i].g stays zero (k = 0) until the rung of segment i
	// is known.
	segs    []sendSeg
	streams []*core.SendStream
	chunks  []chunkState
	// started segments have opened subs streams; the first completed
	// ones are done.
	started, subs, completed int
}

// begin cuts data into the ladder's segments and plans segment 0 on
// Ladder[0]. Every submessage holds a real chunk, so the message opens
// at most max(nchunks, 1) streams.
func (op *sendOp) begin(e *Endpoint, acfg AdaptorConfig, data []byte) {
	chunkBytes := e.QP.Config().ChunkBytes
	op.e, op.data, op.plans = e, data, nil
	op.g = segmentation(acfg, chunkBytes, len(data))
	scratchSlice(&op.segs, op.g.L)
	scratchSlice(&op.streams, max(op.g.nchunks, 1))
	scratchSlice(&op.chunks, op.g.L*op.g.k)
	op.started, op.subs, op.completed = 0, 0, 0
	e.scr.reserveParity(op.g.L * segParityBytes(acfg, chunkBytes, len(data)))
	op.plan(0, acfg.Ladder[0])
}

// plan fixes segment i's rung: its geometry and timing policy.
func (op *sendOp) plan(i int, mode Mode) {
	s := &op.segs[i]
	s.g = segGeometry(mode, op.g.subBytes(i, len(op.data)), op.g.chunkBytes)
	s.static = mode.static
}

// applyPlan takes the receiver's rung for a segment not yet started.
func (op *sendOp) applyPlan(m ctrlMsg) {
	i := int(m.planSeg)
	if m.typ != msgPlan || i >= op.g.L || i < op.started {
		return // stale or already committed
	}
	mode := Mode{Scheme: Scheme(m.planScheme)}
	if mode.Scheme == SchemeEC {
		mode.K, mode.M = int(m.planK), int(m.planM)
		if mode.K != op.g.k {
			return // not one submessage per segment
		}
		if _, err := op.e.codeFor(mode.K, mode.M); err != nil {
			return // unusable plan: keep waiting for a sane one
		}
	}
	op.plan(i, mode)
}

// start opens the next segment, whose plan is known.
func (op *sendOp) start() error {
	i, s := op.started, &op.segs[op.started]
	s.e, s.sub0 = op.e, op.subs
	s.data = op.data[op.g.subOffset(i):][:op.g.subBytes(i, len(op.data))]
	s.streams = op.streams[op.subs:][:s.g.L]
	s.chunks = op.chunks[i*op.g.k:][:s.g.nchunks]
	op.started++
	op.subs += s.g.L
	return s.start()
}

// step is one wake of the send loop; it reports whether the message is
// done. It applies the receiver's plans and starts every segment whose
// plan is known and whose receive is already posted: SendReady keeps
// that non-blocking, so a stalled head segment can still be pumped. It
// starts none reackOps or more past the oldest segment not yet
// completed, whose final ACK must stay in the receiver's re-ACK table.
// Then it applies every open segment's queued control messages before
// any repair, so repair sees one consistent ack snapshot (see
// repairHoles), and repairs the plain segments; coded ones repair on
// the receiver's NACK and probe once they have been silent too long.
func (op *sendOp) step() (bool, error) {
	e := op.e
	if err := e.abortErr(); err != nil {
		return false, fmt.Errorf("write %d B: %w", len(op.data), err)
	}
	for op.started < op.g.L && len(op.plans) > 0 { // with every segment started, plans are stale
		op.applyPlan(<-op.plans)
	}
	for op.started < op.g.L && op.started-op.completed < reackOps && op.segs[op.started].g.k > 0 && e.QP.SendReady() {
		if err := op.start(); err != nil {
			return false, err
		}
	}
	now := e.clock().Now()
	maxAcked, maxDone := -1, -1 // the last segments holding any ack evidence, and done
	for i := op.completed; i < op.started; i++ {
		s := &op.segs[i]
		if !s.done {
			if err := s.pump(now); err != nil {
				return false, err
			}
		}
		if s.done || s.acked > 0 {
			maxAcked = i
		}
		if s.done {
			maxDone = i
		}
	}
	for op.completed < op.started && op.segs[op.completed].done {
		op.completed++
	}
	if op.completed >= op.g.L {
		return true, nil
	}
	if now.After(op.deadline) {
		return false, fmt.Errorf("%w: write %d B, %d/%d segments done",
			errGlobalTimeout, len(op.data), op.completed, op.g.L)
	}
	outstanding := 0
	for i := op.completed; i < op.started; i++ {
		s := &op.segs[i]
		if s.done {
			continue
		}
		outstanding += len(s.chunks) - s.acked
		if s.g.m > 0 {
			// Coded repair rides the receiver's NACKs; the probe pulls
			// a lost final ACK out of its re-ACK table.
			if err := s.probeRTO(now, e.Cfg.rto(), i < maxDone); err != nil {
				return false, err
			}
			continue
		}
		if err := s.repairHoles(now, i < maxAcked); err != nil {
			return false, err
		}
		// The RTO sweep, checked on every wake: the last resort for
		// repairs that were themselves lost and for tail holes with no
		// later evidence.
		if err := s.sweepRTO(now, e.Cfg.rto()); err != nil {
			return false, err
		}
	}
	e.noteInflight(outstanding)
	return false, nil
}

// end closes every started segment and drops the caller's payload,
// which the pooled state must not pin.
func (op *sendOp) end() {
	for i := range op.segs[:op.started] {
		op.segs[i].end()
	}
	clear(op.segs)
	op.data = nil
}

// write reliably writes data under ladder acfg. An adaptive ladder must
// match the receiver's Adaptor configuration (SegmentChunks and
// Ladder[0] are load-bearing; later rungs are learned from plan
// messages).
func (e *Endpoint) write(acfg AdaptorConfig, data []byte) error {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	if err := acfg.validate(); err != nil {
		return err
	}
	op := &e.scr.send
	op.begin(e, acfg, data)
	defer op.end()
	// Segment 0 runs Ladder[0] and starts unconditionally (the receiver
	// posts it on entry); it anchors the plan stream's opID on both
	// sides.
	if err := op.start(); err != nil {
		return err
	}
	if op.g.L > 1 { // plans name later segments: a one-segment message has none
		planID := planBit | op.segs[0].opID
		op.plans = e.CP.register(planID)
		defer e.CP.unregister(planID)
	}
	clk := e.clock()
	op.deadline = clk.Now().Add(e.Cfg.GlobalTimeout)
	for {
		// Snapshot BEFORE the step drains the control streams: an ACK
		// that lands after the drain wakes the wait below immediately
		// (no lost wakeup).
		epoch := clk.Epoch()
		if done, err := op.step(); done || err != nil {
			return err
		}
		clk.WaitNotify(epoch, e.Cfg.PollInterval)
	}
}

// --- receiver --------------------------------------------------------------

// postedSeg is one posted segment on the receiver: the segment
// mechanism plus the rung's per-segment timing state.
type postedSeg struct {
	recvSeg
	mode Mode

	sawData  bool
	seen     uint64 // packets observed at last tick (progress gate)
	nextNack time.Time
	// fed is the goodput already reported for the segment, in bytes.
	fed int64
}

// packets counts the packets accepted so far across the segment's
// receives.
func (s *postedSeg) packets() uint64 {
	sub := s.subs[0]
	n := uint64(sub.dataH.PacketBitmap().Count())
	if sub.parityH != nil {
		n += uint64(sub.parityH.PacketBitmap().Count())
	}
	return n
}

// stats condenses what the receiver observed over the completed segment.
func (s *postedSeg) stats() segStats {
	sub := s.subs[0]
	st := segStats{
		Seg:         s.idx,
		Mode:        s.mode,
		Arrived:     s.packets(),
		Dups:        sub.dataH.DuplicatePackets(),
		Marked:      sub.dataH.MarkedPackets(),
		DataChunks:  sub.dataH.Bitmap().Len(),
		MissingData: s.missing,
	}
	if sub.parityH != nil {
		st.Dups += sub.parityH.DuplicatePackets()
		st.Marked += sub.parityH.MarkedPackets()
	}
	return st
}

// feed reports the segment's delivered bytes up to watermark b to the
// goodput series, so it integrates to exactly the message size.
func (s *postedSeg) feed(b int64) {
	s.e.noteGoodput(b - s.fed)
	s.fed = b
}

// recvOp is the receive loop's state for one message.
type recvOp struct {
	e      *Endpoint
	ad     *Adaptor // nil on a static ladder
	rung0  Mode
	window int

	mr, scratch       *nicsim.MR
	offset            uint64
	size              int
	g                 ecGeometry // the message's segmentation
	perSegScratch     int
	deadline, nextAck time.Time

	// segs and subs are pooled; segments [head, posted) are posted, and
	// they and their predecessors hold subs[:nsubs].
	segs                []postedSeg
	subs                []ecRecvState
	head, posted, nsubs int
	planID              uint64
}

// begin cuts the message into the ladder's segments and checks the
// parity scratch against them.
func (op *recvOp) begin(e *Endpoint, acfg AdaptorConfig, ad *Adaptor, mr *nicsim.MR, offset uint64, size int, scratch *nicsim.MR) error {
	chunkBytes := e.QP.Config().ChunkBytes
	g := segmentation(acfg, chunkBytes, size)
	perSeg := segParityBytes(acfg, chunkBytes, size)
	if need := uint64(g.L * perSeg); need > 0 && scratch.Span() < need {
		return fmt.Errorf("reliability: parity scratch %d B, need %d", scratch.Span(), need)
	}
	*op = recvOp{
		e: e, ad: ad, rung0: acfg.Ladder[0], window: acfg.Window,
		mr: mr, scratch: scratch, offset: offset, size: size, g: g, perSegScratch: perSeg,
		segs: scratchSlice(&op.segs, g.L),
		subs: scratchSlice(&op.subs, max(g.nchunks, 1)),
	}
	return nil
}

// fail retires every receive still posted before an error exit, so the
// endpoint's next operation finds its slots free.
func (op *recvOp) fail(err error) error {
	for i := op.head; i < op.posted; i++ {
		op.segs[i].retire()
	}
	return err
}

// sendPlan announces segment s's rung to the sender.
func (op *recvOp) sendPlan(s *postedSeg) {
	m := ctrlMsg{typ: msgPlan, opID: op.planID, planSeg: uint32(s.idx), planScheme: byte(s.mode.Scheme)}
	if s.mode.Scheme == SchemeEC {
		m.planK, m.planM = uint16(s.mode.K), uint16(s.mode.M)
	}
	op.e.CP.send(m)
}

// postAhead keeps up to Window segments posted beyond the head, each
// under the adaptor's current rung, announcing the choice to the
// sender. Segment 0 runs Ladder[0] unannounced (the no-rendezvous
// convention) and its receive's sequence number anchors the plan
// stream's opID, which every later plan needs.
func (op *recvOp) postAhead() error {
	e, g := op.e, op.g
	for ; op.posted < g.L && op.posted < op.head+op.window; op.posted++ {
		i := op.posted
		mode, rung := op.rung0, 0
		if i > 0 {
			mode, rung = op.ad.mode(), op.ad.rung()
		}
		s, segSize := &op.segs[i], g.subBytes(i, op.size)
		s.e, s.idx, s.mode = e, i, mode
		s.g = segGeometry(mode, segSize, g.chunkBytes)
		s.mr, s.base, s.size = op.mr, op.offset+uint64(g.subOffset(i)), segSize
		s.scratch, s.pbase = op.scratch, uint64(i*op.perSegScratch)
		s.subs = op.subs[op.nsubs:][:s.g.L]
		op.nsubs += s.g.L
		if err := s.post(); err != nil {
			return fmt.Errorf("reliability: segment %d: %w", i, err)
		}
		// A static rung arms the fallback at posting (§4.1.2). An
		// adaptive rung's first deadline must also cover the
		// posting-ahead pipeline lag — this segment is posted up to
		// Window segments before the sender's stream reaches it — not
		// just the injection estimate, or it NACKs data that is still
		// queued behind its predecessors. Once packets arrive, the
		// progress gate in tick re-arms the timer from observed
		// deliveries.
		s.nextNack = e.clock().Now().Add(e.Cfg.fto())
		if !mode.static {
			s.nextNack = s.nextNack.Add(e.Cfg.rto())
		}
		if i == 0 {
			op.planID = planBit | s.opID()
		} else {
			op.sendPlan(s)
		}
		e.probe(telemetry.EvSegPlan, int64(i), int64(rung), 0, 0)
	}
	return nil
}

// finalize completes the head segment and feeds the adaptor.
func (op *recvOp) finalize(s *postedSeg) {
	s.finish()
	s.feed(int64(s.size))
	ad, e := op.ad, op.e
	if ad == nil {
		return
	}
	stats := s.stats()
	before := ad.rung()
	ad.observe(stats)
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
// fallback NACKs, and plan re-sends while the sender may not have heard
// the plan yet. It runs every AckInterval, and on every wake for a
// static coded rung (see step).
func (op *recvOp) tick(s *postedSeg, now time.Time) {
	cfg := &op.e.Cfg
	if s.idx > 0 && !s.sawData {
		// The plan may have been lost; data cannot flow without it.
		if s.sawData = s.subs[0].dataH.PacketBitmap().Count() > 0; !s.sawData {
			op.sendPlan(s)
		}
	}
	if s.mode.Scheme == SchemeSR {
		ack := s.ackMsg(false)
		s.feed(min(int64(ack.cumAck)*int64(s.g.chunkBytes), int64(s.size)))
		op.e.CP.send(ack)
		return
	}
	if s.mode.static {
		// Static EC (§4.1.2): once the fallback timeout has expired, NACK
		// the missing chunks of the submessages parity could not cover,
		// then again every RTO.
		if now.After(s.nextNack) {
			s.nack()
			s.nextNack = now.Add(cfg.rto())
		}
		return
	}
	// Recoverable segments need no repair traffic: parity already
	// covers the losses, and the decode happens when the head reaches
	// them. Without this check a parity-covered segment parked behind a
	// stalled head NACKs its missing data chunks every round, and every
	// resend is a pure duplicate.
	if s.recoverAll() {
		return
	}
	if n := s.packets(); n > s.seen {
		// The stream is still making progress; a gap now is
		// indistinguishable from in-flight data, so re-arm the fallback
		// from the latest delivery instead of NACKing into the pipe. Half
		// an RTT of silence on a segment the sender has already reached
		// means loss, not reordering: the stream is strictly windowed, so
		// nothing legitimate arrives that far behind the frontier.
		s.seen = n
		s.nextNack = now.Add(cfg.RTT / 2)
		return
	}
	if now.After(s.nextNack) {
		s.nack()
		s.nextNack = now.Add(cfg.RTT)
	}
}

// step is one wake of the receive loop: it reports whether the message
// is delivered or else how long the loop may wait. It completes the
// delivered head segments in order — observation order is what keeps
// the adaptation trajectory deterministic — posting more behind them,
// and ticks the posted segments when an ACK tick is due. A static coded
// rung instead polls: it ticks on every wake and wakes every
// PollInterval.
func (op *recvOp) step() (done bool, wait time.Duration, err error) {
	e := op.e
	for op.head < op.posted && op.segs[op.head].recoverAll() {
		op.finalize(&op.segs[op.head])
		op.head++
		if err := op.postAhead(); err != nil {
			return false, 0, err
		}
	}
	if op.head >= op.g.L {
		return true, 0, nil
	}
	if err := e.abortErr(); err != nil {
		return false, 0, fmt.Errorf("receive %d B: %w", op.size, err)
	}
	now := e.clock().Now()
	if now.After(op.deadline) {
		return false, 0, fmt.Errorf("%w: receive %d B, %d/%d segments",
			errGlobalTimeout, op.size, op.head, op.g.L)
	}
	due := !now.Before(op.nextAck)
	if due {
		op.nextAck = now.Add(e.Cfg.AckInterval)
	}
	wait = op.nextAck.Sub(now)
	for i := op.head; i < op.posted; i++ {
		s := &op.segs[i]
		if s.mode.static && s.g.m > 0 {
			wait = e.Cfg.PollInterval
		} else if !due {
			continue
		}
		op.tick(s, now)
	}
	return false, wait, nil
}

// receive receives one Write into mr[offset:offset+size] under ladder
// acfg. ad, when non-nil, is the controller that picks the rung of every
// segment after the first from the observed per-segment signals; a
// static ladder runs without one. scratch must hold
// scratchBytes(acfg, chunkBytes, size) bytes; a ladder without an EC
// rung needs none.
func (e *Endpoint) receive(acfg AdaptorConfig, ad *Adaptor, mr *nicsim.MR, offset uint64, size int, scratch *nicsim.MR) error {
	e.opMu.Lock()
	defer e.opMu.Unlock()
	op := &e.scr.recv
	if err := op.begin(e, acfg, ad, mr, offset, size, scratch); err != nil {
		return err
	}
	if err := op.postAhead(); err != nil {
		return op.fail(err)
	}
	clk := e.clock()
	start := clk.Now()
	op.deadline = start.Add(e.Cfg.GlobalTimeout)
	op.nextAck = start.Add(e.Cfg.AckInterval)
	for {
		// Snapshot BEFORE the step probes recoverability: the delivery
		// that completes a submessage notifies the clock, so the wait
		// below cannot sleep past it.
		epoch := clk.Epoch()
		done, wait, err := op.step()
		if err != nil {
			return op.fail(err)
		}
		if done {
			return nil
		}
		clk.WaitNotify(epoch, wait)
	}
}

// The six exported loops are the engine under the names
// benchmark/rep.go calls (ROADMAP item 5b unexports them); everything
// else runs a scheme through Transfer.

// WriteSR reliably writes data under Selective Repeat (§4.1.1): one
// plain segment spanning the message — per-chunk RTO retransmission,
// cumulative + selective ACKs and, when Config.NACK is set, fast
// retransmission of holes behind the ACK frontier after ~1 RTT.
func (e *Endpoint) WriteSR(data []byte) error { return e.write(srLadder, data) }

// ReceiveSR receives one WriteSR into mr[offset:offset+size].
func (e *Endpoint) ReceiveSR(mr *nicsim.MR, offset uint64, size int) error {
	return e.receive(srLadder, nil, mr, offset, size, nil)
}

// WriteEC reliably writes data erasure-coded (§4.1.2): one coded
// segment of L (K, M) submessages, recovered in place on the receiver,
// with Selective-Repeat fallback on its NACKs.
func (e *Endpoint) WriteEC(data []byte) error { return e.write(e.Cfg.ecLadder(), data) }

// ReceiveEC receives one WriteEC into mr[offset:offset+size], staging
// parity in scratch (ECScratchBytes).
func (e *Endpoint) ReceiveEC(mr *nicsim.MR, offset uint64, size int, scratch *nicsim.MR) error {
	return e.receive(e.Cfg.ecLadder(), nil, mr, offset, size, scratch)
}

// WriteAdaptive reliably writes data under the adaptive segment
// protocol; acfg must match the receiver's Adaptor configuration.
func (e *Endpoint) WriteAdaptive(acfg AdaptorConfig, data []byte) error {
	return e.write(acfg.WithDefaults(), data)
}

// ReceiveAdaptive receives one WriteAdaptive into
// mr[offset:offset+size], driving ad's rung decisions from the observed
// per-segment signals; scratch holds AdaptiveScratchBytes.
func (e *Endpoint) ReceiveAdaptive(ad *Adaptor, mr *nicsim.MR, offset uint64, size int, scratch *nicsim.MR) error {
	return e.receive(ad.cfg, ad, mr, offset, size, scratch)
}
