package reliability

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"sdrrdma/internal/core"
	"sdrrdma/internal/nicsim"
)

// control message types on the lossy UD control path (§4.1).
const (
	msgSRAck  = 1 // receiver → sender: cumulative + selective ACK
	msgECAck  = 2 // receiver → sender: all data submessages recovered
	msgECNack = 3 // receiver → sender: failed submessages + missing chunks
	msgPlan   = 4 // receiver → sender: adaptive segment scheme decision
)

// ctrlMsg is a decoded control packet.
type ctrlMsg struct {
	typ  byte
	opID uint64
	// SR ACK fields
	cumAck uint32
	sack   []byte // chunk bitmap starting at chunk 0 (snapshot)
	// EC NACK fields: per failed submessage, its index and missing
	// data-chunk list.
	nackSubmsgs []ecNackEntry
	// Plan fields: the receiver's scheme decision for adaptive segment
	// planSeg (see engine.go).
	planSeg    uint32
	planScheme byte
	planK      uint16
	planM      uint16
}

type ecNackEntry struct {
	submsg  uint32
	missing []uint32 // missing data-chunk indices within the submessage
}

// ControlPlane is one side's control endpoint: a UD QP plus a
// dispatcher routing inbound messages to per-operation channels.
// Dispatch is synchronous: the CQ hands each completion to the control
// plane inside the wire-delivery call (no poller goroutine), and every
// routed message bumps the clock's notification epoch so blocked
// senders/receivers re-check their state immediately — on the real
// clock this removes a goroutine hop, on the virtual clock it is what
// makes a blocked protocol loop wake at the exact delivery instant.
type ControlPlane struct {
	ud *nicsim.UDQP
	cq *nicsim.CQ
	// ctx is the side's SDR context: its clock — read per wake-up, so a
	// re-homed deployment's control plane follows it — is the one the
	// side's protocol loops wait on.
	ctx *core.Context

	peer uint32
	mtu  int

	mu       sync.Mutex
	handlers map[uint64]chan ctrlMsg
	// idle holds the control streams of finished operations, drained,
	// for the next register: a stream's 64-message buffer is 6 KB, more
	// than everything else a short operation allocates.
	idle    []chan ctrlMsg
	bufs    [][]byte
	stopped bool

	// outstanding counts receive buffers whose datagram is being
	// handled — landed and not yet reposted; recvHWM is its high-water
	// mark this session, the traffic the receive ring is sized to (see
	// recvTraffic).
	outstanding, recvHWM atomic.Int32

	// sendMu serializes senders over encBuf, the reused wire-encoding
	// scratch. UDQP.Send copies the payload into the packet's own
	// pooled storage, so the scratch is free for reuse the moment Send
	// returns — no per-message encode allocation on the ACK path.
	sendMu sync.Mutex
	encBuf []byte
}

// newControlPlane creates the control endpoint of side, detached:
// attach gives it a wire and a peer.
func newControlPlane(side *core.Endpoint) *ControlPlane {
	ctx := side.Ctx
	// The receive ring: handleCQEs reposts each buffer inside the
	// delivery call that filled it, so a virtual clock, whose deliveries
	// run one at a time, never has more than one outstanding (the golden,
	// chaos and collective tests assert it), and a real clock, whose
	// deliveries overlap on different goroutines, a few. A virtual ring
	// of 2 leaves one spare; a real one keeps 16, a 64 KiB slab at a
	// 4 KiB MTU. The clock kind is fixed at construction (a deployment
	// is only re-homed within its kind), as it is for the CQ sink below.
	virtual := ctx.Clock().IsVirtual()
	nbufs := 16
	if virtual {
		nbufs = 2
	}
	mtu := ctx.Config().MTU
	// Sink-mode queues never buffer, so their depth is immaterial.
	cq := nicsim.NewCQ(1, true)
	cp := &ControlPlane{
		ud:       nicsim.NewUDQP(side.Dev, mtu, cq),
		cq:       cq,
		ctx:      ctx,
		mtu:      mtu,
		handlers: make(map[uint64]chan ctrlMsg),
	}
	slab := make([]byte, nbufs*mtu)
	cp.bufs = make([][]byte, nbufs)
	for i := range nbufs {
		buf := slab[i*mtu : (i+1)*mtu : (i+1)*mtu]
		cp.bufs[i] = buf
		cp.ud.PostRecv(buf, uint64(i))
	}
	cq.SetSink(cp.handleCQEs, virtual)
	return cp
}

// attach points the control plane at wire and at peer's control QP and
// drops all per-operation routing state — the start of every session,
// the first on a deployment like any later lease. The receive ring
// stays posted and the UD QPN is stable across sessions; control
// datagrams still in flight from a previous lease route to unregistered
// opIDs and are dropped.
func (cp *ControlPlane) attach(wire nicsim.Wire, peer *ControlPlane) {
	cp.mu.Lock()
	clear(cp.handlers)
	cp.stopped = false
	cp.mu.Unlock()
	cp.ud.RNRDrops.Store(0)
	cp.recvHWM.Store(0)
	cp.ud.Attach(wire)
	cp.peer = peer.ud.QPN()
}

// Close stops dispatch: completions arriving afterwards are dropped.
func (cp *ControlPlane) Close() {
	cp.mu.Lock()
	cp.stopped = true
	cp.mu.Unlock()
	cp.cq.Close()
}

// register claims the control stream for operation opID.
func (cp *ControlPlane) register(opID uint64) chan ctrlMsg {
	cp.mu.Lock()
	var ch chan ctrlMsg
	if n := len(cp.idle); n > 0 {
		ch, cp.idle = cp.idle[n-1], cp.idle[:n-1]
	} else {
		ch = make(chan ctrlMsg, 64)
	}
	cp.handlers[opID] = ch
	cp.mu.Unlock()
	return ch
}

// unregister closes operation opID's control stream; the operation must
// not read it afterwards. handleCQEs routes under mu, so once the stream
// is off the table nothing can write to it and it is drained for reuse.
func (cp *ControlPlane) unregister(opID uint64) {
	cp.mu.Lock()
	if ch, ok := cp.handlers[opID]; ok {
		delete(cp.handlers, opID)
		for len(ch) > 0 {
			<-ch
		}
		cp.idle = append(cp.idle, ch)
	}
	cp.mu.Unlock()
}

// handleCQEs is the CQ sink: per inbound control datagram it decodes,
// reposts the buffer, routes the message and wakes clock waiters.
func (cp *ControlPlane) handleCQEs(cqes []nicsim.CQE) {
	for _, cqe := range cqes {
		n := cp.outstanding.Add(1)
		for h := cp.recvHWM.Load(); n > h && !cp.recvHWM.CompareAndSwap(h, n); h = cp.recvHWM.Load() {
		}
		buf := cp.bufs[cqe.WRID%uint64(len(cp.bufs))]
		msg, err := decodeCtrl(buf[:cqe.ByteLen])
		// Repost the buffer immediately (UD consumes one per datagram).
		cp.ud.PostRecv(buf, cqe.WRID)
		cp.outstanding.Add(-1)
		if err != nil {
			continue // malformed control packets are dropped
		}
		cp.mu.Lock()
		if cp.stopped {
			cp.mu.Unlock()
			continue
		}
		ch := cp.handlers[msg.opID]
		if ch != nil {
			select {
			case ch <- msg:
			default: // slow consumer: control is best-effort anyway
			}
		}
		cp.mu.Unlock()
		if ch != nil {
			cp.ctx.Clock().Notify()
		}
	}
}

// recvTraffic reports the most receive buffers cp has had outstanding
// at once this session and its receiver-not-ready drops — what the
// ring must cover. Tests check it; the chaos and collective tests reach
// it by go:linkname.
func recvTraffic(cp *ControlPlane) (hwm int32, rnrDrops uint64) {
	return cp.recvHWM.Load(), cp.ud.RNRDrops.Load()
}

// send transmits a control message (unreliably).
func (cp *ControlPlane) send(m ctrlMsg) error {
	cp.sendMu.Lock()
	defer cp.sendMu.Unlock()
	payload, err := encodeCtrlInto(cp.encBuf[:0], m, cp.mtu)
	if err != nil {
		return err
	}
	cp.encBuf = payload[:0]
	return cp.ud.Send(cp.peer, payload, 0, false)
}

// --- wire format -----------------------------------------------------------
//
// byte 0:    type
// bytes 1-8: opID (LE)
// SR ACK:    cumAck u32, sackLen u16, sack bytes
// EC ACK:    (nothing)
// EC NACK:   count u16, then per entry: submsg u32, nMissing u16,
//            missing u32 each
// PLAN:      seg u32, scheme u8, k u16, m u16
// trailer:   crc32c over everything above (last 4 bytes)

// ctrlCRCLen is the checksum trailer size; every truncation budget
// must leave room for it.
const ctrlCRCLen = 4

// minCtrlMTU is the smallest MTU every control message fits in: the
// type and opID, the largest fixed-size body (a plan's 9 bytes; an SR
// ACK's is 6 before its SACK bytes, which are truncated to fit) and the
// trailer.
const minCtrlMTU = 9 + 9 + ctrlCRCLen

var ctrlCRCTable = crc32.MakeTable(crc32.Castagnoli)

// encodeCtrlInto appends the encoding of m to buf (typically a reused
// scratch slice), seals it with the CRC trailer, and returns the
// extended slice.
func encodeCtrlInto(buf []byte, m ctrlMsg, mtu int) ([]byte, error) {
	buf = append(buf, m.typ)
	buf = binary.LittleEndian.AppendUint64(buf, m.opID)
	switch m.typ {
	case msgSRAck:
		buf = binary.LittleEndian.AppendUint32(buf, m.cumAck)
		sack := m.sack
		if max := mtu - len(buf) - 2 - ctrlCRCLen; len(sack) > max {
			sack = sack[:max] // as much of the bitmap as fits (§4.1.1)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(sack)))
		buf = append(buf, sack...)
	case msgECAck:
	case msgPlan:
		buf = binary.LittleEndian.AppendUint32(buf, m.planSeg)
		buf = append(buf, m.planScheme)
		buf = binary.LittleEndian.AppendUint16(buf, m.planK)
		buf = binary.LittleEndian.AppendUint16(buf, m.planM)
	case msgECNack:
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.nackSubmsgs)))
		for _, e := range m.nackSubmsgs {
			need := 4 + 2 + 4*len(e.missing)
			if len(buf)+need > mtu-ctrlCRCLen {
				// truncate: remaining failures reported in a later NACK
				binary.LittleEndian.PutUint16(buf[9:], uint16(countEncoded(buf)))
				break
			}
			buf = binary.LittleEndian.AppendUint32(buf, e.submsg)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.missing)))
			for _, c := range e.missing {
				buf = binary.LittleEndian.AppendUint32(buf, c)
			}
		}
	default:
		return nil, fmt.Errorf("reliability: unknown control type %d", m.typ)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, ctrlCRCTable)), nil
}

// countEncoded recounts how many NACK entries actually fit (used when
// truncating).
func countEncoded(buf []byte) int {
	n := 0
	off := 11
	for off < len(buf) {
		if off+6 > len(buf) {
			break
		}
		miss := int(binary.LittleEndian.Uint16(buf[off+4:]))
		off += 6 + 4*miss
		n++
	}
	return n
}

func decodeCtrl(buf []byte) (ctrlMsg, error) {
	if len(buf) < 9+ctrlCRCLen {
		return ctrlMsg{}, fmt.Errorf("reliability: short control packet (%d B)", len(buf))
	}
	body := buf[:len(buf)-ctrlCRCLen]
	if crc32.Checksum(body, ctrlCRCTable) != binary.LittleEndian.Uint32(buf[len(body):]) {
		return ctrlMsg{}, fmt.Errorf("reliability: control checksum mismatch")
	}
	buf = body
	m := ctrlMsg{typ: buf[0], opID: binary.LittleEndian.Uint64(buf[1:9])}
	rest := buf[9:]
	switch m.typ {
	case msgSRAck:
		if len(rest) < 6 {
			return ctrlMsg{}, fmt.Errorf("reliability: short SR ACK")
		}
		m.cumAck = binary.LittleEndian.Uint32(rest[0:])
		sackLen := int(binary.LittleEndian.Uint16(rest[4:]))
		if len(rest) < 6+sackLen {
			return ctrlMsg{}, fmt.Errorf("reliability: SR ACK sack truncated")
		}
		m.sack = append([]byte(nil), rest[6:6+sackLen]...)
	case msgECAck:
	case msgPlan:
		if len(rest) < 9 {
			return ctrlMsg{}, fmt.Errorf("reliability: short plan")
		}
		m.planSeg = binary.LittleEndian.Uint32(rest[0:])
		m.planScheme = rest[4]
		m.planK = binary.LittleEndian.Uint16(rest[5:])
		m.planM = binary.LittleEndian.Uint16(rest[7:])
	case msgECNack:
		if len(rest) < 2 {
			return ctrlMsg{}, fmt.Errorf("reliability: short EC NACK")
		}
		count := int(binary.LittleEndian.Uint16(rest[0:]))
		off := 2
		for i := 0; i < count; i++ {
			if off+6 > len(rest) {
				return ctrlMsg{}, fmt.Errorf("reliability: EC NACK truncated")
			}
			e := ecNackEntry{submsg: binary.LittleEndian.Uint32(rest[off:])}
			nMiss := int(binary.LittleEndian.Uint16(rest[off+4:]))
			off += 6
			if off+4*nMiss > len(rest) {
				return ctrlMsg{}, fmt.Errorf("reliability: EC NACK missing-list truncated")
			}
			for j := 0; j < nMiss; j++ {
				e.missing = append(e.missing, binary.LittleEndian.Uint32(rest[off:]))
				off += 4
			}
			m.nackSubmsgs = append(m.nackSubmsgs, e)
		}
	default:
		return ctrlMsg{}, fmt.Errorf("reliability: unknown control type %d", m.typ)
	}
	return m, nil
}
