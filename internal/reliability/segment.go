package reliability

import (
	"errors"
	"fmt"
	"time"

	"sdrrdma/internal/bitmap"
	"sdrrdma/internal/core"
	"sdrrdma/internal/ec"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/telemetry"
)

// The segment mechanism: the one implementation of every protocol step
// the reliability schemes share. A segment is a contiguous byte range
// of a message carried as g.L data submessages — each on its own SDR
// stream, kept open so chunks can be re-injected — and, when g.m > 0,
// one parity submessage per data submessage. The plain (Selective
// Repeat) segment is the degenerate geometry L = 1, m = 0.
//
// Every scheme is a ladder of rungs run by one engine over it
// (engine.go; §4.1: reliability is software written against the
// partial-completion bitmap): static SR and SR-NACK are one rung whose
// plain segment spans the message, static EC one rung whose coded
// segment holds all L submessages of the message, adaptive a window of
// single-submessage segments on the Adaptor's ladder plus the plan
// stream. What a rung carries besides its geometry is its timing
// policy (Mode.static): when a hole is repaired (repairHoles), when a
// NACK goes out and how often the receiver wakes.

// ecGeometry captures how a byte range decomposes into erasure-coded
// submessages (§4.1.2): L data submessages of k chunks (the tail
// submessage may have fewer real chunks and is padded with virtual
// zero chunks so the (k, m) code applies uniformly), each paired with
// a parity submessage of m chunks.
type ecGeometry struct {
	chunkBytes int
	k, m       int
	nchunks    int // real data chunks
	L          int // submessages
}

func newECGeometry(size, chunkBytes, k, m int) ecGeometry {
	nchunks := (size + chunkBytes - 1) / chunkBytes
	l := (nchunks + k - 1) / k
	if l == 0 {
		l = 1
	}
	return ecGeometry{chunkBytes: chunkBytes, k: k, m: m, nchunks: nchunks, L: l}
}

// plainGeometry is the geometry of a segment without parity: one
// submessage holding every chunk.
func plainGeometry(size, chunkBytes int) ecGeometry {
	nchunks := (size + chunkBytes - 1) / chunkBytes
	return newECGeometry(size, chunkBytes, max(nchunks, 1), 0)
}

// realChunks returns how many real data chunks submessage i holds.
func (g ecGeometry) realChunks(i int) int {
	return max(0, min(g.k, g.nchunks-i*g.k))
}

// subOffset returns the byte offset of data submessage i within the
// range.
func (g ecGeometry) subOffset(i int) int { return i * g.k * g.chunkBytes }

// subBytes returns the real byte size of data submessage i within a
// range of total bytes.
func (g ecGeometry) subBytes(i, total int) int {
	return min(g.subOffset(i+1), total) - g.subOffset(i)
}

// parityBytes is the wire size of each parity submessage.
func (g ecGeometry) parityBytes() int { return g.m * g.chunkBytes }

// chunkState tracks one chunk on the sender.
type chunkState struct {
	acked bool
	// repaired marks a chunk already resent once on ack-hole evidence
	// (adaptive sender); further repairs fall back to the RTO sweep.
	repaired bool
	// retries counts RTO retransmissions taken, driving the capped
	// exponential backoff (retryRTO).
	retries  uint8
	lastSent time.Time
}

// sendSeg is the sender half of a segment. The caller fills e, data, g,
// static, sub0, streams (g.L entries) and chunks (g.nchunks entries),
// then calls start.
type sendSeg struct {
	e    *Endpoint
	data []byte
	g    ecGeometry
	// static is the rung's timing policy (Mode.static), read by
	// repairHoles and probeRTO.
	static bool
	code   ec.Code // the (g.k, g.m) code; nil on a plain segment
	// sub0 is the message-wide index of the segment's first submessage,
	// the coordinate telemetry and error text report.
	sub0    int
	streams []*core.SendStream
	chunks  []chunkState
	parity  []byte // g.L parity submessages, aliased by the wire

	// opID is the first data stream's sequence number: the control
	// stream both sides key this segment's ACK/NACK traffic by.
	opID  uint64
	acks  chan ctrlMsg
	acked int
	// done is set by apply: every chunk acknowledged (plain) or the
	// receiver's positive ACK arrived (coded).
	done bool
	// progressed says the last pump applied a control message.
	progressed bool
	// active is the segment's last send or control arrival, from which
	// a coded segment's RTO probe counts (probeRTO).
	active time.Time
}

// start opens the segment and performs the initial injection, in the
// receiver's posting order: data_i (streaming) then parity_i
// (one-shot). Every stream start is bounded by GlobalTimeout: a crashed
// receiver surfaces as ErrPeerDead instead of stalling the sender
// forever. Parity is encoded as each submessage goes out (§4.1.2 notes
// encoding can overlap injection; Fig 11 measures its cost separately).
func (s *sendSeg) start() error {
	e, g := s.e, s.g
	timeout := e.Cfg.GlobalTimeout
	if g.m > 0 {
		var err error
		if s.code, err = e.codeFor(g.k, g.m); err != nil {
			return err
		}
		s.parity = e.scr.parityAlloc(g.L * g.parityBytes())
	}
	for i := 0; i < g.L; i++ {
		sb := g.subBytes(i, len(s.data))
		st, err := e.QP.SendStreamStartTimeout(sb, 0, timeout)
		if err != nil {
			return startErr(fmt.Sprintf("submessage %d data stream", s.sub0+i), err)
		}
		if i == 0 {
			s.opID = st.Seq()
			s.acks = e.CP.register(s.opID)
		}
		s.streams[i] = st
		sub := s.data[g.subOffset(i):][:sb]
		if err := st.Continue(0, sub); err != nil {
			return err
		}
		now := e.clock().Now()
		for c := i * g.k; c < i*g.k+g.realChunks(i); c++ {
			s.chunks[c].lastSent = now
		}
		if g.m == 0 {
			continue
		}
		parity := s.parity[i*g.parityBytes():][:g.parityBytes()]
		shards, _ := e.scr.shardView(g, i, sub, parity)
		if err := s.code.Encode(shards[:g.k], shards[g.k:]); err != nil {
			return fmt.Errorf("reliability: EC encode submessage %d: %w", s.sub0+i, err)
		}
		if _, err := e.QP.SendPostTimeout(parity, 0, timeout); err != nil {
			return startErr(fmt.Sprintf("submessage %d parity send", s.sub0+i), err)
		}
	}
	s.active = e.clock().Now()
	return nil
}

// shardView points the endpoint's pooled shard table (k data entries,
// then m parity entries) at submessage i's chunks: real data chunks
// alias sub (the submessage's real bytes), a partial tail chunk is
// copied zero-padded into scratch, the virtual zero chunks that pad a
// short tail submessage share one read-only buffer, and parity chunks
// alias parity — so the (k, m) code applies uniformly (§4.1.2). It
// returns the index of the tail copy, -1 when no chunk is partial.
func (scr *opScratch) shardView(g ecGeometry, i int, sub, parity []byte) (shards [][]byte, tailChunk int) {
	cb, real := g.chunkBytes, g.realChunks(i)
	shards = scratchSlice(&scr.shards, g.k+g.m)
	tailChunk = -1
	for j := 0; j < g.k; j++ {
		lo := j * cb
		switch {
		case j >= real:
			shards[j] = scratchBytesN(&scr.zeroChunk, cb)
		case lo+cb > len(sub):
			tail := scratchBytesN(&scr.tailScratch, cb)
			clear(tail[copy(tail, sub[lo:]):]) // zero-pad: buffer is reused
			shards[j], tailChunk = tail, j
		default:
			shards[j] = sub[lo : lo+cb]
		}
	}
	for j := 0; j < g.m; j++ {
		shards[g.k+j] = parity[j*cb : (j+1)*cb]
	}
	return shards, tailChunk
}

// pump applies every queued control message of the segment, noting in
// progressed whether any arrived, and ends the segment once they have
// completed it.
func (s *sendSeg) pump(now time.Time) error {
	s.progressed = false
	for len(s.acks) > 0 { // this goroutine is the only receiver
		s.progressed = true
		s.active = now
		if err := s.apply(<-s.acks); err != nil {
			return err
		}
	}
	if s.done {
		return s.end()
	}
	return nil
}

// apply folds one control message into the segment's state. Messages of
// the other scheme's vocabulary are ignored.
func (s *sendSeg) apply(m ctrlMsg) error {
	coded := s.g.m > 0
	switch {
	case m.typ == msgSRAck && !coded:
		for c := 0; c < int(m.cumAck) && c < len(s.chunks); c++ {
			s.ack(c)
		}
		// Selective portion: bitmap over all chunks (§4.1.1 sends it
		// from the cumulative frontier; we snapshot from zero, which
		// carries the same information).
		for c := 0; c < len(s.chunks) && c/8 < len(m.sack); c++ {
			if m.sack[c/8]&(1<<uint(c%8)) != 0 {
				s.ack(c)
			}
		}
		s.done = s.acked >= len(s.chunks)
	case m.typ == msgECAck && coded:
		s.done = true
	case m.typ == msgECNack && coded && !s.done:
		// Parity was not enough: selective repeat of the reported
		// missing chunks through the still-open streams (§4.1.2).
		for _, entry := range m.nackSubmsgs {
			sub := int(entry.submsg)
			if sub >= s.g.L {
				continue
			}
			for _, c := range entry.missing {
				if int(c) >= s.g.realChunks(sub) {
					continue
				}
				if err := s.resend(sub, int(c), telemetry.CauseNack); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (s *sendSeg) ack(c int) {
	if !s.chunks[c].acked {
		s.chunks[c].acked = true
		s.acked++
	}
}

// highestAcked returns the index of the last acknowledged chunk (-1
// when none): the receiver has seen past every chunk below it.
func (s *sendSeg) highestAcked() int {
	for c := len(s.chunks) - 1; c >= 0; c-- {
		if s.chunks[c].acked {
			return c
		}
	}
	return -1
}

// resend re-injects chunk c of submessage sub through its open stream.
func (s *sendSeg) resend(sub, c int, cause int64) error {
	cb := s.g.chunkBytes
	chunk := sub*s.g.k + c
	lo := chunk * cb
	hi := min(lo+cb, len(s.data))
	s.active = s.e.clock().Now()
	s.chunks[chunk].lastSent = s.active
	s.e.Retransmits.Add(1)
	s.e.probe(telemetry.EvRetransmit, int64(c), cause, int64(s.sub0+sub), 0)
	return s.streams[sub].Continue(c*cb, s.data[lo:hi])
}

// repairHoles resends the unacknowledged chunks of a plain segment that
// ACK evidence shows lost, under the rung's policy; later says a later
// segment has acknowledged something.
//
// A static rung repairs only in NACK mode (Config.NACK, §5.1.1's "SR
// NACK"), on the wake an ACK arrived: a hole is an unacked chunk below
// the highest acked chunk — the receiver has seen past it, so it was
// dropped, not merely in flight. It is age-gated: on a dedicated link
// one RTT bounds the in-flight ambiguity.
//
// An adaptive rung needs no age gate. First transmissions are injected
// strictly in segment order, so ack evidence from a later segment proves
// every chunk of this one crossed the network once — and had a chunk
// survived, its own SACK would be in the same drained batch (the
// receiver SACKs every posted segment each ack interval). A hole in the
// snapshot is therefore loss, not data in flight; age-gating against a
// fixed RTT underestimates queueing delay and turns every standing
// queue into spurious retransmissions. Each chunk is repaired once; the
// RTO sweep covers a repair that is itself lost.
func (s *sendSeg) repairHoles(now time.Time, later bool) error {
	if s.static {
		if !s.e.Cfg.NACK || !s.progressed {
			return nil
		}
		for c, frontier := 0, s.highestAcked(); c < frontier; c++ {
			if ch := s.chunks[c]; !ch.acked && now.Sub(ch.lastSent) >= s.e.Cfg.RTT {
				if err := s.resend(0, c, telemetry.CauseHole); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Evidence frontier: every chunk below the segment's own highest
	// acked chunk is provably lost — or the whole segment is, when a
	// later segment has acked anything.
	limit := len(s.chunks)
	if !later {
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
	return nil
}

// sweepRTO re-injects every unacknowledged chunk whose retransmission
// timeout has expired. The deadline backs off exponentially per attempt
// with a deterministic jitter (retryRTO), so a dead stretch of network
// does not grind out fixed-cadence retransmission storms.
func (s *sendSeg) sweepRTO(now time.Time, rto time.Duration) error {
	for c := range s.chunks {
		ch := &s.chunks[c]
		if ch.acked || now.Sub(ch.lastSent) < retryRTO(rto, ch.retries, s.opID<<16+uint64(c)) {
			continue
		}
		if ch.retries < maxBackoffShift {
			ch.retries++
		}
		if err := s.resend(c/s.g.k, c%s.g.k, telemetry.CauseRTO); err != nil {
			return err
		}
	}
	return nil
}

// probeRTO is a coded segment's RTO. Its chunks are never acked one by
// one, so a sweep would resend the whole segment; instead, once the
// segment has been silent — nothing sent, no control message heard —
// for a backed-off RTO, it resends the segment's last data chunk. A
// receiver still missing data answers with its NACK; one that already
// completed the segment absorbs the chunk on the NULL key and answers
// from its re-ACK table (reack.go), which recovers a lost final ACK.
// On a static rung the first probe waits two RTOs, not one: a static
// EC receiver that is still missing data NACKs every RTO, so a sender
// that resent on one NACK hears the next an RTO later, and a probe then
// would race it. (An adaptive receiver NACKs every RTT.) later says a
// later segment of the message is done. The receiver completes
// segments in order, so this one's final ACK was lost, and the probe
// goes out after two RTTs of silence instead, without backoff: one
// round trip for the probe and its re-ACK, one of slack.
func (s *sendSeg) probeRTO(now time.Time, rto time.Duration, later bool) error {
	last := len(s.chunks) - 1
	if last < 0 {
		return nil
	}
	ch := &s.chunks[last]
	wait := 2 * s.e.Cfg.RTT
	if !later {
		attempt := ch.retries
		if s.static {
			attempt++
		}
		wait = retryRTO(rto, attempt, s.opID<<16+uint64(last))
	}
	if now.Sub(s.active) < wait {
		return nil
	}
	if ch.retries < maxBackoffShift {
		ch.retries++
	}
	return s.resend(last/s.g.k, last%s.g.k, telemetry.CauseRTO)
}

// end closes the segment on the sender: its control stream unregisters
// and every opened data stream ends. Idempotent (and a no-op on a
// segment that never started), so error exits can defer it; returns
// the streams' errors.
func (s *sendSeg) end() error {
	if s.acks == nil {
		return nil
	}
	s.e.CP.unregister(s.opID)
	s.acks = nil
	var err error
	for _, st := range s.streams {
		if st != nil {
			err = errors.Join(err, st.End())
		}
	}
	return err
}

// ecRecvState tracks one submessage on the receiver.
type ecRecvState struct {
	dataH     *core.RecvHandle
	parityH   *core.RecvHandle // g.m > 0 only
	recovered bool
}

// recvSeg is the receiver half of a segment: it lands in
// mr[base:base+size], parity submessages in scratch[pbase:]. The caller
// fills everything but the recovery outputs, then calls post.
type recvSeg struct {
	e *Endpoint
	// idx is the segment's index in its message, which telemetry
	// reports.
	idx     int
	g       ecGeometry
	code    ec.Code // the (g.k, g.m) code; nil on a plain segment
	mr      *nicsim.MR
	base    uint64
	size    int
	scratch *nicsim.MR
	pbase   uint64
	subs    []ecRecvState // g.L entries

	// missing counts the real data chunks parity decodes had to
	// reconstruct — the adaptor's erasure signal.
	missing int
}

// post posts the segment's receives, data_i then parity_i, matching
// the sender's injection order. On failure every receive it already
// posted is retired again, so the slots are free for the endpoint's
// next operation.
func (r *recvSeg) post() error {
	g, qp := r.g, r.e.QP
	if g.m > 0 {
		var err error
		if r.code, err = r.e.codeFor(g.k, g.m); err != nil {
			return err
		}
	}
	for i := range r.subs {
		h, err := qp.RecvPost(r.mr, r.base+uint64(g.subOffset(i)), g.subBytes(i, r.size))
		if err != nil {
			r.retire()
			return fmt.Errorf("submessage %d data recv: %w", i, err)
		}
		r.subs[i].dataH = h
		if g.m == 0 {
			continue
		}
		h, err = qp.RecvPost(r.scratch, r.pbase+uint64(i*g.parityBytes()), g.parityBytes())
		if err != nil {
			r.retire()
			return fmt.Errorf("submessage %d parity recv: %w", i, err)
		}
		r.subs[i].parityH = h
	}
	return nil
}

// retire retires every posted receive of the segment: at completion
// (finish) and on the abort, timeout and post-failure exits. Late
// packets are absorbed by the NULL key, and once it returns the NIC
// writes none of the segment's buffers any more (RecvHandle.Complete).
func (r *recvSeg) retire() {
	for i := range r.subs {
		r.subs[i].retire()
	}
}

// retire retires the submessage's receives; a receive already retired
// is left alone.
func (s *ecRecvState) retire() {
	if s.dataH != nil {
		s.dataH.Complete()
	}
	if s.parityH != nil {
		s.parityH.Complete()
	}
}

// opID is the segment's control-stream key (see sendSeg.opID).
func (r *recvSeg) opID() uint64 { return r.subs[0].dataH.Seq() }

// recoverAll decodes every submessage that has become recoverable and
// reports whether the whole segment is delivered. It never short-
// circuits: each submessage is decoded at the first wake that allows it.
func (r *recvSeg) recoverAll() bool {
	all := true
	for i := range r.subs {
		if !r.tryRecover(i) {
			all = false
		}
	}
	return all
}

// tryRecover reports whether submessage i is delivered: every data
// chunk arrived, or (coded segments) enough data and parity chunks did
// and the missing data was reconstructed in place.
func (r *recvSeg) tryRecover(i int) bool {
	s := &r.subs[i]
	if s.recovered {
		return true
	}
	if s.dataH.Done() {
		s.recovered = true
		return true
	}
	g, scr := r.g, &r.e.scr
	if g.m == 0 {
		return false
	}
	real := g.realChunks(i)
	present := scratchSlice(&scr.present, g.k+g.m)
	dataBM, parityBM := s.dataH.Bitmap(), s.parityH.Bitmap()
	arrived := 0
	for j := 0; j < g.k; j++ {
		switch {
		case j >= real:
			present[j] = true // virtual zero chunks never travel
		case dataBM.Test(j):
			present[j] = true
			arrived++
		}
	}
	for j := 0; j < g.m; j++ {
		present[g.k+j] = parityBM.Test(j)
	}
	if !r.code.CanRecover(present) {
		return false
	}
	// The decode writes the missing chunks in place, where a late copy
	// of one could land concurrently: retire the submessage first. Once
	// retired, its packet bitmap no longer changes.
	s.retire()
	sub := r.mr.Bytes()[int(r.base)+g.subOffset(i):][:g.subBytes(i, r.size)]
	parity := r.scratch.Bytes()[int(r.pbase)+i*g.parityBytes():]
	shards, tailChunk := scr.shardView(g, i, sub, parity)
	cfg := r.e.QP.Config()
	scr.spans = lostSpans(scr.spans[:0], s.dataH.PacketBitmap(), present[:real], cfg.PacketsPerChunk(), cfg.MTU)
	if err := r.code.ReconstructSpans(shards, present, scr.spans); err != nil {
		return false
	}
	if tailChunk >= 0 && !present[tailChunk] {
		// write back only the real bytes of the recovered tail
		copy(sub[tailChunk*g.chunkBytes:], shards[tailChunk])
	}
	s.recovered = true
	r.missing += real - arrived
	return true
}

// lostSpans appends to dst the byte ranges, within a chunk of ppc
// packets, that a decode of a submessage must rewrite: the positions of
// the packets that never arrived in any lost data chunk (present[j]
// false), merged where they touch. Arrived packets of a lost chunk hold their bytes
// already, and the packets past the end of a short submessage do not
// exist (pkts, its packet bitmap, has no bit for them). Every lost
// chunk is rewritten over the same union, so the decode runs once per
// span over all of them.
func lostSpans(dst [][2]int, pkts *bitmap.Bitmap, present []bool, ppc, mtu int) [][2]int {
	for q := 0; q < ppc; q++ {
		lost := false
		for j := 0; j < len(present) && !lost; j++ {
			p := j*ppc + q
			lost = !present[j] && p < pkts.Len() && !pkts.Test(p)
		}
		if !lost {
			continue
		}
		lo, hi := q*mtu, (q+1)*mtu
		if n := len(dst); n > 0 && dst[n-1][1] == lo {
			dst[n-1][1] = hi
		} else {
			dst = append(dst, [2]int{lo, hi})
		}
	}
	return dst
}

// ackMsg builds the segment's acknowledgement: the cumulative +
// selective ACK of a plain segment, the positive ACK of a coded one.
// A progress ACK snapshots the bitmap into the endpoint's pooled buffer
// (CP.send serializes the payload before returning, so the next
// snapshot may overwrite it); the final one owns its snapshot, because
// the re-ACK table keeps re-sending it.
func (r *recvSeg) ackMsg(final bool) ctrlMsg {
	if r.g.m > 0 {
		return ctrlMsg{typ: msgECAck, opID: r.opID()}
	}
	bm := r.subs[0].dataH.Bitmap()
	var sack []byte
	if final {
		sack = bm.Snapshot(nil)
	} else {
		r.e.scr.sackBuf = bm.Snapshot(r.e.scr.sackBuf)
		sack = r.e.scr.sackBuf
	}
	return ctrlMsg{typ: msgSRAck, opID: r.opID(), cumAck: uint32(bm.CumulativeCount()), sack: sack}
}

// nack asks the sender to re-inject the missing data chunks of every
// submessage parity could not cover (§4.1.2's fallback).
func (r *recvSeg) nack() {
	e := r.e
	var entries []ecNackEntry
	total := 0
	for i, s := range r.subs {
		if s.recovered {
			continue
		}
		bm := s.dataH.Bitmap()
		e.scr.missBuf = bm.Missing(e.scr.missBuf[:0], 0, bm.Len())
		missing := make([]uint32, len(e.scr.missBuf))
		for j, c := range e.scr.missBuf {
			missing[j] = uint32(c)
		}
		entries = append(entries, ecNackEntry{submsg: uint32(i), missing: missing})
		total += len(missing)
	}
	if len(entries) == 0 {
		return
	}
	e.NacksSent.Add(1)
	e.probe(telemetry.EvNack, int64(total), int64(r.idx), 0, 0)
	e.CP.send(ctrlMsg{typ: msgECNack, opID: r.opID(), nackSubmsgs: entries})
}

// finish completes a delivered segment at the completion instant: the
// final acknowledgement goes out once, the re-ACK table remembers it,
// and every slot retires (§3.3.2's recv_complete), so the buffer is the
// caller's as soon as the receive returns, on either clock. A lost
// final ACK leaves the sender retransmitting — the SR sweep, or a
// coded segment's probe — into retired slots, and each such late packet
// pulls the ACK again from the table (reack.go). The whole segment is
// one table entry, so even an L≫1 message cannot evict its own slots.
func (r *recvSeg) finish() {
	final := r.ackMsg(true)
	r.e.CP.send(final)
	r.e.rememberRetired(final, r.subs)
	r.retire()
}
