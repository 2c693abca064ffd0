// Package nicsim simulates the commodity RDMA NIC features the SDR
// stack depends on (§2.3, §3.2): memory regions addressed by keys —
// including the zero-based indirect "root" memory key and the
// payload-discarding NULL key (§3.2.2, §3.3) — Unreliable Connected
// (UC) queue pairs with real ePSN semantics, Unreliable Datagram (UD)
// queue pairs for control traffic, a Reliable Connection (RC)
// Go-Back-N baseline, and completion queues delivering CQEs with
// 32-bit immediates.
//
// The simulator moves real bytes: an RDMA Write lands its payload in
// the registered target buffer exactly as the DMA engine would.
package nicsim

import "sync"

// Opcode enumerates wire packet types.
type Opcode uint8

const (
	// opWrite is an RDMA Write fragment without immediate.
	opWrite Opcode = iota
	// OpWriteImm is an RDMA Write fragment; the immediate is delivered
	// with the CQE of the last fragment.
	OpWriteImm
	// OpSend is a two-sided UD send.
	OpSend
	// opAck is an RC acknowledgment (cumulative PSN).
	opAck
	// opNak is an RC negative acknowledgment requesting Go-Back-N.
	opNak
)

// HeaderBytes approximates the per-packet wire overhead (Ethernet +
// IP/UDP + BTH/RETH + ICRC of a RoCEv2 frame) charged by fabrics that
// model bandwidth serialization.
const HeaderBytes = 64

// Packet is one wire packet (at most one MTU of payload).
type Packet struct {
	Opcode Opcode
	// SrcQPN and DstQPN address queue pairs on the two devices.
	SrcQPN, DstQPN uint32
	// PSN is the packet sequence number within the connection.
	PSN uint32
	// First and Last frame the packet's position within a multi-packet
	// message.
	First, Last bool
	// RKey and RemoteOffset address the write target (Write opcodes).
	RKey         uint32
	RemoteOffset uint64
	// Imm is the 32-bit immediate (valid when HasImm).
	Imm    uint32
	HasImm bool
	// Marked is the ECN congestion-experienced bit: a queue on the path
	// whose occupancy crossed its marking threshold sets it instead of
	// dropping (RED-style). It survives multi-hop forwarding, so the
	// receiver sees congestion anywhere along the route.
	Marked bool
	// Payload is the data carried by this packet.
	Payload []byte

	// pooled marks an envelope owned by the device packet pool: the
	// terminal Deliver releases it back once the receiving QP has
	// consumed it. Anything that retains a packet past delivery (RC
	// retransmit queues, fault-injection holds) must use unpooled
	// packets or Clone first.
	pooled bool
	// buf is pool-retained payload storage for senders that must copy
	// (UD control sends whose encode scratch is reused). It survives
	// recycling so steady state reaches zero payload allocations.
	buf []byte
}

// packetPool recycles wire-packet envelopes across deliveries. The
// data path creates one envelope per MTU fragment; without pooling
// that is the single largest per-packet allocation in the stack.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// leasePacket leases a cleared pooled envelope (buf storage retained)
// for the QPs' per-fragment send path. Whichever stage ends the
// packet's life returns it with ReleasePacket; a lease that is never
// released is ordinary garbage.
func leasePacket() *Packet {
	p := packetPool.Get().(*Packet)
	p.pooled = true
	return p
}

// release returns a pooled packet to the pool; unpooled packets are
// left for the GC (they may be retained by retransmit queues or drop
// hooks). All fields except the recycled buf storage are cleared.
func (p *Packet) release() {
	if !p.pooled {
		return
	}
	buf := p.buf
	*p = Packet{}
	p.buf = buf
	packetPool.Put(p)
}

// ReleasePacket returns a pooled wire packet to the envelope pool —
// for forwarding stages (fabric impairments, netem queues) that
// terminate a packet's life without delivering it to a device. It is
// a no-op for unpooled packets, so stages may call it unconditionally
// on anything they drop.
func ReleasePacket(p *Packet) { p.release() }

// Clone deep-copies a packet (used by duplication fault injection).
// The clone is never pooled: it outlives the original's release.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Payload = append([]byte(nil), p.Payload...)
	q.pooled = false
	q.buf = nil
	return &q
}

// CQE is a completion queue entry.
type CQE struct {
	// QPN is the local queue pair that produced the completion.
	QPN uint32
	// Opcode describes the completed operation from the local
	// perspective.
	Opcode CQEOpcode
	// Imm carries the transport immediate (HasImm set).
	Imm    uint32
	HasImm bool
	// ByteLen is the payload length for receive completions.
	ByteLen uint32
	// Marked reports that at least one packet of the completed message
	// carried the ECN congestion-experienced bit.
	Marked bool
	// WRID echoes the work-request identifier for send completions.
	WRID uint64
}

// CQEOpcode enumerates completion types.
type CQEOpcode uint8

const (
	// CQERecvWriteImm signals an inbound RDMA Write-with-immediate.
	CQERecvWriteImm CQEOpcode = iota
	// cqeRecv signals an inbound UD send landed in a posted buffer.
	cqeRecv
	// cqeSend signals a locally posted operation finished injecting.
	cqeSend
)
