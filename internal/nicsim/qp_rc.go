package nicsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sdrrdma/internal/clock"
)

// RCQP is a Reliable Connection queue pair implementing the
// retransmission-based reliability commodity NIC ASICs ship (§2.2):
// in-order delivery with cumulative ACKs, NAK-triggered Go-Back-N,
// and timeout-driven retransmission. It is the baseline SDR is
// compared against (Fig 14) and a reference point for why ASIC-fixed
// reliability is a poor fit for long-haul links.
type RCQP struct {
	dev *Device
	clk clock.Clock
	qpSlot
	mtu  int
	wire Wire
	peer uint32

	mu       sync.Mutex
	sendPSN  uint32
	unacked  []*Packet // transmitted and unacknowledged, ordered by PSN
	pending  []*Packet // built but not yet transmitted (window pacing)
	wrs      []rcWR    // in-flight work requests, ordered by lastPSN
	rto      time.Duration
	timer    clock.Timer
	closed   bool
	ackEvery int

	// window caps the outstanding (transmitted, unacknowledged)
	// packets, modeling the bounded WQE/PSN window a real ASIC paces
	// against. Fragments beyond it wait in pending and are paced out as
	// ACKs arrive, which keeps a WAN loss event from resending an
	// unbounded in-flight tail.
	window int
	// NAK recovery state: real HCAs restart Go-Back-N once per loss
	// event, not once per duplicate NAK, or a single gap in a deep
	// in-flight window triggers a resend storm (each late packet NAKs,
	// each NAK resends the whole tail). A NAK starts a recovery; while
	// it is live, further NAKs are ignored unless the cumulative ACK
	// has advanced since (new loss evidence).
	recovering bool
	recoverPSN uint32 // last PSN outstanding when recovery started
	recoverAck uint32 // ackHigh when recovery started
	ackHigh    uint32 // highest cumulative ACK seen
	// NaksSuppressed counts NAKs ignored by the recovery filter.
	NaksSuppressed atomic.Uint64

	// receive state
	rxMu      sync.Mutex
	ePSN      uint32
	inMsg     bool
	msgImm    uint32
	msgHasImm bool
	msgLen    uint32
	sinceAck  int

	recvCQ *CQ
	sendCQ *CQ

	// Retransmits counts Go-Back-N resends (timeout + NAK driven).
	Retransmits atomic.Uint64
	// NaksSent counts receiver-side NAKs.
	NaksSent atomic.Uint64
}

type rcWR struct {
	wrid    uint64
	lastPSN uint32
}

// NewRCQP creates an RC queue pair. clk drives the retransmission
// timer (nil = shared real clock); rto is the retransmission timeout;
// ackEvery coalesces receiver ACKs (1 acks every packet); window is the
// send window in packets. The sender's NAK filter assumes the wire
// delivers in order, as the paced WAN paths do.
func NewRCQP(dev *Device, clk clock.Clock, mtu int, recvCQ, sendCQ *CQ, rto time.Duration, ackEvery, window int) *RCQP {
	if recvCQ == nil {
		panic("nicsim: RC QP requires a receive CQ")
	}
	if window <= 0 {
		panic("nicsim: RC QP requires a positive send window")
	}
	if ackEvery <= 0 {
		ackEvery = 1
	}
	qp := &RCQP{dev: dev, clk: clock.Or(clk), mtu: mtu, recvCQ: recvCQ, sendCQ: sendCQ,
		rto: rto, ackEvery: ackEvery, window: window}
	dev.addQP(&qp.qpSlot, qp)
	return qp
}

// QPN returns the queue pair number.
func (qp *RCQP) QPN() uint32 { return qp.qpn }

// Connect attaches the QP to its wire and peer.
func (qp *RCQP) Connect(wire Wire, peerQPN uint32) {
	qp.wire = wire
	qp.peer = peerQPN
}

// Close stops the retransmission machinery.
func (qp *RCQP) Close() {
	qp.mu.Lock()
	qp.closed = true
	if qp.timer != nil {
		qp.timer.Stop()
	}
	qp.mu.Unlock()
}

// WriteImm posts a reliable Write-with-immediate; the send completion
// fires only once every fragment is acknowledged.
func (qp *RCQP) WriteImm(rkey uint32, offset uint64, payload []byte, imm uint32, wrid uint64) int {
	if qp.wire == nil {
		panic(fmt.Sprintf("nicsim: RC QP %d not connected", qp.qpn))
	}
	n := (len(payload) + qp.mtu - 1) / qp.mtu
	if n == 0 {
		n = 1
	}
	qp.mu.Lock()
	lastPSN := qp.sendPSN
	for i := 0; i < n; i++ {
		lo := i * qp.mtu
		hi := lo + qp.mtu
		if hi > len(payload) {
			hi = len(payload)
		}
		pkt := &Packet{
			Opcode:       OpWriteImm,
			SrcQPN:       qp.qpn,
			DstQPN:       qp.peer,
			PSN:          qp.sendPSN,
			First:        i == 0,
			Last:         i == n-1,
			RKey:         rkey,
			RemoteOffset: offset + uint64(lo),
			Payload:      payload[lo:hi],
		}
		if pkt.Last {
			pkt.Imm, pkt.HasImm = imm, true
		}
		lastPSN = qp.sendPSN
		qp.sendPSN++
		qp.pending = append(qp.pending, pkt)
	}
	qp.wrs = append(qp.wrs, rcWR{wrid: wrid, lastPSN: lastPSN})
	inject := qp.pumpLocked()
	qp.armTimerLocked()
	qp.mu.Unlock()

	for _, pkt := range inject {
		qp.wire.Send(pkt)
	}
	return n
}

// pumpLocked moves pending fragments into the outstanding window while
// the pacing cap allows, returning the batch to transmit. Caller holds
// qp.mu and sends the batch after unlocking.
func (qp *RCQP) pumpLocked() []*Packet {
	n := min(len(qp.pending), qp.window-len(qp.unacked))
	if n <= 0 {
		return nil
	}
	batch := qp.pending[:n:n]
	qp.pending = qp.pending[n:]
	qp.unacked = append(qp.unacked, batch...)
	return batch
}

func (qp *RCQP) armTimerLocked() {
	if qp.closed || len(qp.unacked) == 0 {
		return
	}
	if qp.timer == nil {
		qp.timer = qp.clk.AfterFunc(qp.rto, qp.onTimeout)
	} else {
		qp.timer.Reset(qp.rto)
	}
}

// onTimeout retransmits the whole unacked window (Go-Back-N).
func (qp *RCQP) onTimeout() {
	qp.mu.Lock()
	if qp.closed {
		qp.mu.Unlock()
		return
	}
	resend := append([]*Packet(nil), qp.unacked...)
	// The RTO opens a fresh loss round: whatever NAK recovery was live
	// has evidently failed, so let the next NAK restart one.
	qp.recovering = false
	qp.armTimerLocked()
	qp.mu.Unlock()
	for _, pkt := range resend {
		qp.Retransmits.Add(1)
		qp.wire.Send(pkt)
	}
}

// recvPacket handles data, ACK and NAK packets.
func (qp *RCQP) recvPacket(pkt *Packet) {
	switch pkt.Opcode {
	case opAck:
		qp.handleAck(pkt.PSN)
	case opNak:
		qp.handleNak(pkt.PSN)
	case OpWriteImm, opWrite:
		qp.handleData(pkt)
	}
}

func (qp *RCQP) handleAck(cum uint32) {
	var completed []uint64
	qp.mu.Lock()
	if cum > qp.ackHigh {
		qp.ackHigh = cum
	}
	i := 0
	for i < len(qp.unacked) && qp.unacked[i].PSN < cum {
		i++
	}
	qp.unacked = qp.unacked[i:]
	j := 0
	for j < len(qp.wrs) && qp.wrs[j].lastPSN < cum {
		completed = append(completed, qp.wrs[j].wrid)
		j++
	}
	qp.wrs = qp.wrs[j:]
	if qp.recovering && cum > qp.recoverPSN {
		qp.recovering = false // everything resent by the recovery landed
	}
	inject := qp.pumpLocked()
	if len(qp.unacked) == 0 && qp.timer != nil {
		qp.timer.Stop()
	} else {
		qp.armTimerLocked()
	}
	qp.mu.Unlock()
	for _, pkt := range inject {
		qp.wire.Send(pkt)
	}
	if qp.sendCQ != nil {
		for _, wrid := range completed {
			qp.sendCQ.Push(CQE{QPN: qp.qpn, Opcode: cqeSend, WRID: wrid})
		}
	}
}

func (qp *RCQP) handleNak(from uint32) {
	qp.mu.Lock()
	if qp.recovering && qp.ackHigh == qp.recoverAck {
		// Duplicate evidence for the loss event already being repaired:
		// every late packet behind one gap NAKs the same expected PSN,
		// and resending the tail once more only multiplies the storm.
		qp.NaksSuppressed.Add(1)
		qp.mu.Unlock()
		return
	}
	var resend []*Packet
	for _, pkt := range qp.unacked {
		if pkt.PSN >= from {
			resend = append(resend, pkt)
		}
	}
	if len(resend) > 0 {
		qp.recovering = true
		qp.recoverPSN = resend[len(resend)-1].PSN
		qp.recoverAck = qp.ackHigh
	}
	qp.armTimerLocked()
	qp.mu.Unlock()
	for _, pkt := range resend {
		qp.Retransmits.Add(1)
		qp.wire.Send(pkt)
	}
}

func (qp *RCQP) handleData(pkt *Packet) {
	qp.rxMu.Lock()
	switch {
	case pkt.PSN == qp.ePSN:
		// in-order: accept
		qp.ePSN++
		if pkt.First {
			qp.inMsg = true
			qp.msgLen = 0
			qp.msgHasImm = false
		}
		if err := qp.dev.dmaWrite(pkt.RKey, pkt.RemoteOffset, pkt.Payload); err == nil {
			qp.msgLen += uint32(len(pkt.Payload))
		}
		if pkt.HasImm {
			qp.msgImm, qp.msgHasImm = pkt.Imm, true
		}
		qp.sinceAck++
		last := pkt.Last
		ackNow := last || qp.sinceAck >= qp.ackEvery
		if ackNow {
			qp.sinceAck = 0
		}
		ePSN := qp.ePSN
		var cqe *CQE
		if last && qp.inMsg {
			qp.inMsg = false
			if pkt.Opcode == OpWriteImm {
				cqe = &CQE{QPN: qp.qpn, Opcode: CQERecvWriteImm,
					Imm: qp.msgImm, HasImm: qp.msgHasImm, ByteLen: qp.msgLen}
			}
		}
		qp.rxMu.Unlock()
		if cqe != nil {
			qp.recvCQ.Push(*cqe)
		}
		if ackNow {
			qp.wire.Send(&Packet{Opcode: opAck, SrcQPN: qp.qpn, DstQPN: pkt.SrcQPN, PSN: ePSN})
		}
	case pkt.PSN > qp.ePSN:
		// gap: drop and NAK the expected PSN
		ePSN := qp.ePSN
		qp.rxMu.Unlock()
		qp.NaksSent.Add(1)
		qp.wire.Send(&Packet{Opcode: opNak, SrcQPN: qp.qpn, DstQPN: pkt.SrcQPN, PSN: ePSN})
	default:
		// duplicate from a Go-Back-N resend: re-ack so the sender
		// advances
		ePSN := qp.ePSN
		qp.rxMu.Unlock()
		qp.wire.Send(&Packet{Opcode: opAck, SrcQPN: qp.qpn, DstQPN: pkt.SrcQPN, PSN: ePSN})
	}
}

// RCPair is the RC go-back-N baseline every figure, chaos and test
// driver runs: a sender A and a receiver B, connected, with their
// completions consumed by inline sinks — B's receive completions
// discarded, A's send completions counted and announced on the clock
// for Wait. Callers keep their own devices, wires, actors and
// invariants.
type RCPair struct {
	A, B *RCQP
	clk  clock.Clock
	done atomic.Int64
}

// NewRCPair builds A on devA transmitting on toB and B on devB
// transmitting on toA, both with NewRCQP's remaining parameters.
func NewRCPair(clk clock.Clock, devA, devB *Device, toB, toA Wire, mtu int, rto time.Duration, ackEvery, window int) *RCPair {
	p := &RCPair{clk: clock.Or(clk)}
	serial := p.clk.IsVirtual()
	// Sink-mode queues never buffer, so their depth is immaterial.
	recvCQ, sendCQ := NewCQ(1, true), NewCQ(1, true)
	recvCQ.SetSink(func([]CQE) {}, serial)
	sendCQ.SetSink(func(cqes []CQE) {
		p.done.Add(int64(len(cqes)))
		p.clk.Notify()
	}, serial)
	p.A = NewRCQP(devA, p.clk, mtu, NewCQ(1, true), sendCQ, rto, ackEvery, window)
	p.B = NewRCQP(devB, p.clk, mtu, recvCQ, nil, rto, ackEvery, window)
	p.A.Connect(toB, p.B.QPN())
	p.B.Connect(toA, p.A.QPN())
	return p
}

// Wait blocks the calling actor until n of A's writes have completed
// (every fragment acknowledged), re-checking at least every poll. A
// non-zero deadline bounds the wait: Wait reports false once it passed.
func (p *RCPair) Wait(n int, poll time.Duration, deadline time.Time) bool {
	for {
		epoch := p.clk.Epoch()
		if p.done.Load() >= int64(n) {
			return true
		}
		if !deadline.IsZero() && !p.clk.Now().Before(deadline) {
			return false
		}
		p.clk.WaitNotify(epoch, poll)
	}
}

// Close stops both QPs' retransmission machinery.
func (p *RCPair) Close() {
	p.A.Close()
	p.B.Close()
}
