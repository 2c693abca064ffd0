package nicsim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// UCQP is an Unreliable Connected queue pair (§2.3): multi-packet RDMA
// Writes with no acknowledgments or retransmission. The receive side
// implements the ePSN semantics the paper works around: the expected
// PSN resets at the start of every new message (a First packet always
// resynchronizes), but a PSN mismatch mid-message kills the remainder
// of that message. Hence single-packet Writes — SDR's per-packet
// write-with-immediate strategy (§3.2.1) — survive arbitrary
// reordering, while multi-packet Writes are dropped wholesale on any
// loss or reorder.
type UCQP struct {
	dev *Device
	qpSlot
	mtu  int
	wire Wire
	peer uint32

	sendMu  sync.Mutex
	sendPSN uint32

	// receive state; the fabric delivers packets for one QP
	// sequentially, so no lock is needed beyond the state itself.
	rxMu       sync.Mutex
	ePSN       uint32
	inMsg      bool
	msgRKey    uint32
	msgBase    uint64
	msgImm     uint32
	msgHasImm  bool
	msgLen     uint32
	msgNextOff uint64
	msgMarked  bool

	recvCQ *CQ
	sendCQ *CQ

	// MsgsKilled counts messages aborted by PSN mismatch — the §2.3
	// failure mode made observable.
	MsgsKilled atomic.Uint64
	// DMAErrors counts writes rejected by the memory subsystem (late
	// packets landing after entry retirement would count here if SDR
	// did not install the NULL key).
	DMAErrors atomic.Uint64
}

// NewUCQP creates a UC queue pair on dev delivering receive
// completions to recvCQ (required) and send completions to sendCQ (may
// be nil: sends complete silently, like unsignaled verbs).
func NewUCQP(dev *Device, mtu int, recvCQ, sendCQ *CQ) *UCQP {
	if mtu <= 0 {
		panic("nicsim: UC MTU must be positive")
	}
	if recvCQ == nil {
		panic("nicsim: UC QP requires a receive CQ")
	}
	qp := &UCQP{dev: dev, mtu: mtu, recvCQ: recvCQ, sendCQ: sendCQ}
	dev.addQP(&qp.qpSlot, qp)
	return qp
}

// QPN returns the queue pair number.
func (qp *UCQP) QPN() uint32 { return qp.qpn }

// Connect attaches the QP to a wire and the peer's QPN — the
// RTR/RTS transition.
func (qp *UCQP) Connect(wire Wire, peerQPN uint32) {
	qp.wire = wire
	qp.peer = peerQPN
}

// Reset abandons any in-flight receive message and zeroes the
// observability counters — the per-lease reset of a pooled deployment.
// PSNs are deliberately NOT reset: the send side keeps numbering from
// where it left off and the receive side resynchronizes its ePSN on
// every First packet (§3.2.1), which is what keeps stale in-flight
// packets from a previous lease distinguishable from fresh traffic.
func (qp *UCQP) Reset() {
	qp.rxMu.Lock()
	qp.inMsg = false
	qp.rxMu.Unlock()
	qp.MsgsKilled.Store(0)
	qp.DMAErrors.Store(0)
}

// Fence returns once every receive DMA the QP had started when it was
// called has finished. Retiring a receive re-points its memory-key
// entry first, so a packet that resolves the entry afterwards lands on
// the NULL key; a DMA that resolved it before may still be copying,
// and the fence waits it out. On a serial device nothing is ever in
// flight and the fence is free.
func (qp *UCQP) Fence() {
	if !qp.dev.serial {
		qp.rxMu.Lock()
		qp.rxMu.Unlock()
	}
}

// WriteImm posts an RDMA Write-with-immediate of payload to the
// peer's (rkey, offset). The payload is fragmented at the MTU; the
// immediate travels with the last fragment. Returns the number of
// packets injected.
func (qp *UCQP) WriteImm(rkey uint32, offset uint64, payload []byte, imm uint32, wrid uint64) int {
	return qp.write(rkey, offset, payload, imm, true, wrid)
}

func (qp *UCQP) write(rkey uint32, offset uint64, payload []byte, imm uint32, hasImm bool, wrid uint64) int {
	if qp.wire == nil {
		panic(fmt.Sprintf("nicsim: QP %d not connected", qp.qpn))
	}
	if !qp.dev.serial {
		qp.sendMu.Lock()
		defer qp.sendMu.Unlock()
	}

	n := (len(payload) + qp.mtu - 1) / qp.mtu
	if n == 0 {
		n = 1 // zero-length write still occupies one packet
	}
	op := opWrite
	if hasImm {
		op = OpWriteImm
	}
	for i := 0; i < n; i++ {
		lo := i * qp.mtu
		hi := lo + qp.mtu
		if hi > len(payload) {
			hi = len(payload)
		}
		pkt := leasePacket()
		pkt.Opcode = op
		pkt.SrcQPN = qp.qpn
		pkt.DstQPN = qp.peer
		pkt.PSN = qp.sendPSN
		pkt.First = i == 0
		pkt.Last = i == n-1
		pkt.RKey = rkey
		pkt.RemoteOffset = offset + uint64(lo)
		pkt.Payload = payload[lo:hi]
		if hasImm && pkt.Last {
			pkt.Imm = imm
			pkt.HasImm = true
		}
		qp.sendPSN++
		qp.wire.Send(pkt)
	}
	if qp.sendCQ != nil {
		qp.sendCQ.Push(CQE{QPN: qp.qpn, Opcode: cqeSend, WRID: wrid})
	}
	return n
}

// recvPacket implements the UC receive state machine.
func (qp *UCQP) recvPacket(pkt *Packet) {
	if pkt.Opcode != opWrite && pkt.Opcode != OpWriteImm {
		return // UC ignores foreign opcodes
	}
	if !qp.dev.serial {
		qp.rxMu.Lock()
		defer qp.rxMu.Unlock()
	}

	switch {
	case pkt.First:
		// New message: resynchronize ePSN unconditionally (§3.2.1:
		// "resets at the start of every new message").
		if qp.inMsg {
			qp.MsgsKilled.Add(1) // previous message never finished
		}
		qp.ePSN = pkt.PSN + 1
		qp.inMsg = true
		qp.msgRKey = pkt.RKey
		qp.msgBase = pkt.RemoteOffset
		qp.msgImm, qp.msgHasImm = pkt.Imm, pkt.HasImm
		qp.msgLen = 0
		qp.msgNextOff = pkt.RemoteOffset
		qp.msgMarked = false
	case !qp.inMsg || pkt.PSN != qp.ePSN:
		// Mid-message packet without live context, or a PSN gap:
		// the entire message is dropped (§2.3).
		if qp.inMsg {
			qp.MsgsKilled.Add(1)
		}
		qp.inMsg = false
		return
	default:
		qp.ePSN = pkt.PSN + 1
		if pkt.HasImm {
			qp.msgImm, qp.msgHasImm = pkt.Imm, pkt.HasImm
		}
	}

	// DMA the fragment into place.
	if err := qp.dev.dmaWrite(pkt.RKey, pkt.RemoteOffset, pkt.Payload); err != nil {
		qp.DMAErrors.Add(1)
		qp.inMsg = false
		return
	}
	qp.msgLen += uint32(len(pkt.Payload))
	qp.msgNextOff = pkt.RemoteOffset + uint64(len(pkt.Payload))
	if pkt.Marked {
		qp.msgMarked = true
	}

	if pkt.Last {
		qp.inMsg = false
		if pkt.Opcode == OpWriteImm {
			qp.recvCQ.Push(CQE{
				QPN:     qp.qpn,
				Opcode:  CQERecvWriteImm,
				Imm:     qp.msgImm,
				HasImm:  qp.msgHasImm,
				ByteLen: qp.msgLen,
				Marked:  qp.msgMarked,
			})
		}
	}
}
