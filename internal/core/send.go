package core

import (
	"fmt"
	"sync"
	"time"
)

// SendStream is a streaming send context (Table 1: send_stream_*).
// Chunks can be injected at arbitrary MTU-aligned offsets of the
// matched remote buffer — the primitive reliability layers use for
// retransmission (§3.1.2).
type SendStream struct {
	qp      *QP
	seq     uint64
	slot    int
	gen     uint32
	size    int // matched receive size from CTS
	userImm uint32

	mu       sync.Mutex
	ended    bool
	injected int // packets injected so far
	rr       int // round-robin channel cursor
}

// SendStreamStart opens a streaming send for the next matched receive
// (order-based matching, §3.1.3). It blocks until the peer's CTS for
// this sequence number arrives and validates the announced size. The
// wait is unbounded (only a QP Abort interrupts it); callers that must
// survive a dead peer use SendStreamStartTimeout.
func (qp *QP) SendStreamStart(size int, userImm uint32) (*SendStream, error) {
	return qp.SendStreamStartTimeout(size, userImm, 0)
}

// SendStreamStartTimeout is SendStreamStart with a bounded CTS wait:
// if the peer has not announced the matching receive within timeout
// (> 0), it fails with ErrCTSTimeout instead of blocking forever. An
// Abort interrupts the wait in either mode with ErrQPAborted.
func (qp *QP) SendStreamStartTimeout(size int, userImm uint32, timeout time.Duration) (*SendStream, error) {
	if !qp.connected.Load() {
		return nil, errNotConnected
	}
	if size <= 0 || size > qp.cfg.MaxMsgBytes {
		return nil, fmt.Errorf("%w: %d bytes (max %d)", errMsgTooLarge, size, qp.cfg.MaxMsgBytes)
	}
	qp.sendMu.Lock()
	seq := qp.sendSeq
	qp.sendSeq++
	qp.sendMu.Unlock()

	matched, err := qp.waitCTS(seq, timeout)
	if err != nil {
		return nil, err
	}
	if uint64(size) > matched {
		return nil, fmt.Errorf("%w: send %d B, receive posted %d B (seq %d)",
			errSizeMismatch, size, matched, seq)
	}
	return &SendStream{
		qp:      qp,
		seq:     seq,
		slot:    qp.slotFor(seq),
		gen:     qp.genFor(seq),
		size:    size,
		userImm: userImm,
	}, nil
}

// Seq returns the stream's message sequence number.
func (s *SendStream) Seq() uint64 { return s.seq }

// Continue injects data at byte offset within the remote buffer
// (Table 1: send_stream_continue). offset must be MTU-aligned; the
// same range may be sent again later (retransmission).
func (s *SendStream) Continue(offset int, data []byte) error {
	qp := s.qp
	if offset%qp.cfg.MTU != 0 {
		return fmt.Errorf("%w: offset %d, MTU %d", errOffsetUnaligned, offset, qp.cfg.MTU)
	}
	// Overflow-safe: a negative offset is MTU-aligned too, and
	// offset+len(data) can wrap int for offsets near MaxInt.
	if offset < 0 || offset > s.size || len(data) > s.size-offset {
		return fmt.Errorf("%w: [%d,+%d) beyond announced size %d",
			errSizeMismatch, offset, len(data), s.size)
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return errStreamEnded
	}
	s.inject(offset, data)
	s.mu.Unlock()
	return nil
}

// inject fragments data into per-packet unreliable Writes with
// immediate, round-robining across the generation's channels (§3.4.1).
// Caller holds s.mu.
func (s *SendStream) inject(offset int, data []byte) {
	qp := s.qp
	mtu := qp.cfg.MTU
	frags := qp.cfg.immFragments()
	chans := qp.chQPs[s.gen]
	basePkt := offset / mtu
	n := (len(data) + mtu - 1) / mtu
	for i := 0; i < n; i++ {
		lo := i * mtu
		hi := lo + mtu
		if hi > len(data) {
			hi = len(data)
		}
		pktIdx := basePkt + i
		var frag uint8
		if frags > 0 {
			fragIdx := pktIdx % frags
			frag = uint8(s.userImm >> uint(fragIdx*qp.cfg.UserImmBits))
		}
		imm := qp.ic.encode(uint32(s.slot), uint32(pktIdx), frag)
		remote := uint64(s.slot)*uint64(qp.cfg.MaxMsgBytes) + uint64(pktIdx)*uint64(mtu)
		ch := chans[s.rr%len(chans)]
		s.rr++
		ch.WriteImm(qp.peer.RootKeys[s.gen], remote, data[lo:hi], imm, s.seq)
		qp.packetsSent.Add(1)
	}
	s.injected += n
}

// End declares that no further chunks will be added (Table 1:
// send_stream_end). The message context is destroyed on the sender.
func (s *SendStream) End() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return errStreamEnded
	}
	s.ended = true
	return nil
}

// injectedPackets returns how many packets the stream has put on the wire
// (including retransmissions).
func (s *SendStream) injectedPackets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// SendHandle tracks a one-shot send (Table 1: send_post/send_poll).
type SendHandle struct {
	packets int
}

// Poll reports whether injection finished (Table 1: send_poll). The
// simulator injects synchronously, so a returned handle is always
// complete; the API mirrors the asynchronous hardware contract.
func (h *SendHandle) Poll() bool { return true }

// SendPost performs a one-shot send of data as the next matched
// message (Table 1: send_post): efficient path for large contiguous
// blocks (§3.1.2). Blocks until the matching receive is posted.
func (qp *QP) SendPost(data []byte, userImm uint32) (*SendHandle, error) {
	return qp.SendPostTimeout(data, userImm, 0)
}

// SendPostTimeout is SendPost with a bounded CTS wait (see
// SendStreamStartTimeout).
func (qp *QP) SendPostTimeout(data []byte, userImm uint32, timeout time.Duration) (*SendHandle, error) {
	stream, err := qp.SendStreamStartTimeout(len(data), userImm, timeout)
	if err != nil {
		return nil, err
	}
	if err := stream.Continue(0, data); err != nil {
		return nil, err
	}
	if err := stream.End(); err != nil {
		return nil, err
	}
	return &SendHandle{packets: stream.injectedPackets()}, nil
}
