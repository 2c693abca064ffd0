package nicsim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// UDQP is an Unreliable Datagram queue pair: two-sided, per-packet
// service (§2.3). SDR's example reliability layers use a UD control
// path for ACK/NACK exchange (§4.1) — control packets can be lost just
// like data. Payloads are limited to one MTU.
type UDQP struct {
	dev  *Device
	qpn  uint32
	mtu  int
	wire Wire

	sendMu  sync.Mutex
	sendPSN uint32

	// recvRing holds the posted receives as a FIFO ring: recvHead is
	// the oldest, recvCount how many are posted. Its length is a power
	// of two that doubles only when a post finds it full, so a consumer
	// that reposts each buffer as it lands never allocates.
	recvMu    sync.Mutex
	recvRing  []udRecvWR
	recvHead  int
	recvCount int

	recvCQ *CQ

	// RNRDrops counts datagrams dropped because no receive buffer was
	// posted (receiver-not-ready).
	RNRDrops atomic.Uint64
}

type udRecvWR struct {
	buf  []byte
	wrid uint64
}

// NewUDQP creates a UD queue pair delivering receives to recvCQ.
func NewUDQP(dev *Device, mtu int, recvCQ *CQ) *UDQP {
	if recvCQ == nil {
		panic("nicsim: UD QP requires a receive CQ")
	}
	qp := &UDQP{dev: dev, mtu: mtu, recvCQ: recvCQ}
	qp.qpn = dev.addQP(qp)
	return qp
}

// QPN returns the queue pair number.
func (qp *UDQP) QPN() uint32 { return qp.qpn }

// Attach binds the QP to its wire (UD has no fixed peer; the
// destination QPN travels with each send). A nil wire detaches: sends
// fail until the QP is attached again — the state a pooled control
// plane sits in between leases.
func (qp *UDQP) Attach(wire Wire) { qp.wire = wire }

// PostRecv queues a receive buffer. Buffers are consumed in FIFO order.
func (qp *UDQP) PostRecv(buf []byte, wrid uint64) {
	qp.recvMu.Lock()
	if qp.recvCount == len(qp.recvRing) {
		grown := make([]udRecvWR, max(16, 2*len(qp.recvRing)))
		n := copy(grown, qp.recvRing[qp.recvHead:])
		copy(grown[n:], qp.recvRing[:qp.recvHead])
		qp.recvRing, qp.recvHead = grown, 0
	}
	qp.recvRing[(qp.recvHead+qp.recvCount)&(len(qp.recvRing)-1)] = udRecvWR{buf: buf, wrid: wrid}
	qp.recvCount++
	qp.recvMu.Unlock()
}

// Send transmits one datagram (≤ MTU) to the remote QP.
func (qp *UDQP) Send(dstQPN uint32, payload []byte, imm uint32, hasImm bool) error {
	if qp.wire == nil {
		return fmt.Errorf("nicsim: UD QP %d not attached", qp.qpn)
	}
	if len(payload) > qp.mtu {
		return fmt.Errorf("nicsim: UD payload %d exceeds MTU %d", len(payload), qp.mtu)
	}
	qp.sendMu.Lock()
	psn := qp.sendPSN
	qp.sendPSN++
	qp.sendMu.Unlock()
	// Copy the payload into the envelope's pool-retained storage: the
	// datagram owns its bytes from here, so callers may reuse their
	// encode scratch immediately (the posted-and-forget verbs contract).
	pkt := leasePacket()
	if cap(pkt.buf) < len(payload) {
		pkt.buf = make([]byte, len(payload))
	}
	pkt.buf = pkt.buf[:len(payload)]
	copy(pkt.buf, payload)
	pkt.Opcode = OpSend
	pkt.SrcQPN = qp.qpn
	pkt.DstQPN = dstQPN
	pkt.PSN = psn
	pkt.First = true
	pkt.Last = true
	pkt.Imm = imm
	pkt.HasImm = hasImm
	pkt.Payload = pkt.buf
	qp.wire.Send(pkt)
	return nil
}

// recvPacket lands a datagram in the next posted buffer.
func (qp *UDQP) recvPacket(pkt *Packet) {
	if pkt.Opcode != OpSend {
		return
	}
	qp.recvMu.Lock()
	if qp.recvCount == 0 {
		qp.recvMu.Unlock()
		qp.RNRDrops.Add(1)
		return
	}
	wr := qp.recvRing[qp.recvHead]
	qp.recvRing[qp.recvHead] = udRecvWR{}
	qp.recvHead = (qp.recvHead + 1) & (len(qp.recvRing) - 1)
	qp.recvCount--
	qp.recvMu.Unlock()

	n := copy(wr.buf, pkt.Payload)
	qp.recvCQ.Push(CQE{
		QPN:     qp.qpn,
		Opcode:  cqeRecv,
		Imm:     pkt.Imm,
		HasImm:  pkt.HasImm,
		ByteLen: uint32(n),
		WRID:    wr.wrid,
	})
}
