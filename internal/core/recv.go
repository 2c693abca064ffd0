package core

import (
	"fmt"
	"sync/atomic"

	"sdrrdma/internal/bitmap"
	"sdrrdma/internal/nicsim"
)

// RecvHandle is a posted receive (Table 1: recv_post). The reliability
// layer polls its chunk Bitmap to track partial completion and calls
// Complete to retire the slot.
type RecvHandle struct {
	qp   *QP
	seq  uint64
	slot int
	gen  uint32

	mr     *nicsim.MR
	offset uint64

	npackets int
	msg      *bitmap.Message

	immSeen   atomic.Uint32 // bitmask of received user-imm fragments
	immVal    atomic.Uint32 // reconstructed user immediate
	completed atomic.Bool

	// markedPkts counts accepted packets carrying the ECN
	// congestion-experienced bit; dupPkts counts accepted packets that
	// hit an already-set bitmap bit (retransmission overlap). Both are
	// per-receive, so a reliability layer can attribute congestion and
	// loss signals to individual operations (the adaptive controller's
	// inputs).
	markedPkts atomic.Uint64
	dupPkts    atomic.Uint64
}

// RecvPost posts size bytes of the registered region mr (starting at
// offset) as the next receive buffer. Matching is order-based
// (§3.1.3): the sender's i-th send lands in the receiver's i-th
// posted buffer. Posting sends a clear-to-send to the peer.
func (qp *QP) RecvPost(mr *nicsim.MR, offset uint64, size int) (*RecvHandle, error) {
	if !qp.connected.Load() {
		return nil, errNotConnected
	}
	if size <= 0 || size > qp.cfg.MaxMsgBytes {
		return nil, fmt.Errorf("%w: %d bytes (max %d)", errMsgTooLarge, size, qp.cfg.MaxMsgBytes)
	}
	// Overflow-safe range check: offset+size can wrap uint64 for
	// offsets near 2^64 and falsely admit an out-of-bounds receive.
	if span := mr.Span(); offset > span || uint64(size) > span-offset {
		return nil, fmt.Errorf("sdr: receive [%d,+%d) outside MR of %d bytes",
			offset, size, span)
	}

	qp.recvMu.Lock()
	seq := qp.recvSeq
	slot := qp.slotFor(seq)
	if qp.slots.Load(slot) != nil {
		qp.recvMu.Unlock()
		return nil, ErrRecvQueueFull
	}
	qp.recvSeq++
	gen := qp.genFor(seq)
	h := &RecvHandle{
		qp:       qp,
		seq:      seq,
		slot:     slot,
		gen:      gen,
		mr:       mr,
		offset:   offset,
		npackets: (size + qp.cfg.MTU - 1) / qp.cfg.MTU,
	}
	h.msg = bitmap.NewMessage(h.npackets, qp.cfg.PacketsPerChunk())
	// Populate the message table: root-mkey slot → user buffer, then
	// activate the slot and announce the buffer.
	qp.rootMRs[gen].SetEntry(slot, mr, offset)
	qp.slots.Store(slot, h)
	qp.recvMu.Unlock()

	qp.ctsSent.Add(1)
	qp.sendCTS(encodeCTS(seq, uint64(size)))
	return h, nil
}

// Bitmap returns the chunk-granular completion bitmap (Table 1:
// recv_bitmap_get). Bit i covers bytes [i·chunk, (i+1)·chunk) of the
// receive buffer and is set once every packet of the chunk arrived.
func (h *RecvHandle) Bitmap() *bitmap.Bitmap { return h.msg.Chunks }

// PacketBitmap exposes the backend per-packet bitmap: bit i is set once
// packet i, bytes [i·MTU, (i+1)·MTU) of the receive buffer, has landed
// (real hardware keeps it in DPA memory, §3.4.2). The reliability layer
// counts arrivals with it and decodes only the packets a lost chunk is
// missing.
func (h *RecvHandle) PacketBitmap() *bitmap.Bitmap { return h.msg.Packets }

// Seq returns the message sequence number of this receive.
func (h *RecvHandle) Seq() uint64 { return h.seq }

// Slot returns the message-table slot this receive occupies and Gen
// the generation it delivers under — the pair a late packet for this
// message is identified by after the slot retires (see QP.SetLateSink).
func (h *RecvHandle) Slot() int { return h.slot }

// Gen returns the receive's delivery generation.
func (h *RecvHandle) Gen() uint32 { return h.gen }

// Done reports whether every chunk has arrived.
func (h *RecvHandle) Done() bool { return h.msg.Complete() }

// MarkedPackets returns how many accepted packets of this receive
// carried the ECN congestion-experienced bit.
func (h *RecvHandle) MarkedPackets() uint64 { return h.markedPkts.Load() }

// DuplicatePackets returns how many accepted packets of this receive
// hit an already-set bitmap bit — the receiver-side signature of chunk
// retransmission after loss.
func (h *RecvHandle) DuplicatePackets() uint64 { return h.dupPkts.Load() }

// Imm reconstructs the 32-bit user immediate from the per-packet
// fragments (Table 1: recv_imm_get). It returns errImmNotReady until
// either all fragment positions have been observed or the message is
// fully delivered (shorter messages cannot carry every fragment; the
// missing bits read as zero).
func (h *RecvHandle) Imm() (uint32, error) {
	frags := h.qp.cfg.immFragments()
	if frags == 0 {
		return 0, fmt.Errorf("%w: immediate split reserves no user bits", errImmNotReady)
	}
	need := frags
	if h.npackets < frags {
		need = h.npackets
	}
	full := uint32(1)<<uint(need) - 1
	if h.immSeen.Load()&full != full {
		return 0, errImmNotReady
	}
	if h.npackets < frags && !h.Done() {
		return 0, errImmNotReady
	}
	return h.immVal.Load(), nil
}

// Complete retires the receive (Table 1: recv_complete): the root
// memory-key entry is cleared, which points it back at the NULL key so
// late packets are absorbed (§3.3.2 stage 1), and the slot becomes
// available for the next wraparound posting. Once it returns no packet
// writes the buffer any more: the generation's channel QPs are fenced,
// so a DMA that resolved the entry before the re-point has finished.
func (h *RecvHandle) Complete() error {
	if !h.completed.CompareAndSwap(false, true) {
		return errAlreadyCompleted
	}
	qp := h.qp
	qp.rootMRs[h.gen].SetEntry(h.slot, nil, 0)
	qp.slots.Store(h.slot, nil)
	for _, ch := range qp.chQPs[h.gen] {
		ch.Fence()
	}
	return nil
}

// backendHandleBatch is the DPA worker body (§3.4.2) over one poll
// drain: for each completion, validate the generation, locate the
// message descriptor from the immediate, update the per-packet bitmap,
// and coalesce into the host-side chunk bitmap. Per-packet global
// bookkeeping — the received/duplicate counters, PCIe-write accounting
// and completion wakeups — is accumulated locally and flushed once per
// batch, and the per-message slot resolution is cached across
// consecutive completions of the same message (the steady-state shape:
// a drain is a run of fragments of one in-flight message).
func (qp *QP) backendHandleBatch(gen uint32, cqes []nicsim.CQE) {
	var received, duplicates, doneWrites, pcieWrites uint64
	notify := false
	lastMsgID := uint32(0xffffffff)
	var lastHandle *RecvHandle
	for i := range cqes {
		cqe := &cqes[i]
		if !cqe.HasImm {
			continue
		}
		msgID, pktOff, frag := qp.ic.decode(cqe.Imm)
		var h *RecvHandle
		if msgID == lastMsgID {
			h = lastHandle // slot+generation already validated this drain
		} else {
			h = qp.slots.Load(int(msgID))
			// Stage-2 late protection: the slot must hold a live message
			// of this worker's generation (§3.3.2) — a slot never posted
			// to, past the table's storage, reads empty like a retired
			// one. The packet is absorbed, but a registered late sink
			// still observes it: a retransmission landing in a retired
			// slot means the sender never saw the final ACK, and the
			// reliability layer can re-ACK instead of letting it retry
			// until its global timeout.
			if h == nil || h.gen != gen {
				qp.lateDiscarded.Add(1)
				qp.noteLate(int(msgID), gen)
				continue
			}
			lastMsgID, lastHandle = msgID, h
		}
		if int(pktOff) >= h.npackets {
			qp.lateDiscarded.Add(1)
			continue
		}
		received++
		if cqe.Marked {
			h.markedPkts.Add(1)
		}

		if bits := qp.cfg.UserImmBits; bits > 0 {
			frags := qp.cfg.immFragments()
			fragIdx := int(pktOff) % frags
			// Skip the two read-modify-writes once this fragment position
			// has been observed — repeats carry the identical fragment,
			// so the Or is idempotent and a plain load suffices.
			if h.immSeen.Load()&(1<<uint(fragIdx)) == 0 {
				h.immVal.Or(uint32(frag) << uint(fragIdx*bits))
				h.immSeen.Or(1 << uint(fragIdx))
			}
		}

		newlySet, chunkDone := h.msg.MarkPacket(int(pktOff))
		if !newlySet {
			// Retransmission overlap or wire duplication.
			duplicates++
			h.dupPkts.Add(1)
			if h.msg.Complete() {
				doneWrites++
			}
			continue
		}
		if chunkDone {
			// This worker delivered the final packet of a chunk: it owns
			// the PCIe update of the host chunk bitmap (already performed
			// inside MarkPacket, §3.4.2); account for it.
			pcieWrites++
			if h.msg.Complete() {
				notify = true
			}
		}
	}
	if received > 0 {
		qp.packetsReceived.Add(received)
	}
	if duplicates > 0 {
		qp.duplicates.Add(duplicates)
		qp.doneWrites.Add(doneWrites)
	}
	if pcieWrites > 0 {
		qp.ctx.pool.PCIeWrites.Add(pcieWrites)
	}
	if notify {
		// A message fully delivered inside this drain: wake pollers
		// (reliability receivers) blocked on the clock so completion is
		// observed at the delivery instant, not a poll tick later.
		qp.ctx.Clock().Notify()
	}
}
