package reliability

import (
	"sync"

	"sdrrdma/internal/telemetry"
)

// reackOps bounds the recently-retired table: how many retired
// *operations* an endpoint can still re-ACK for. The ring is per-op,
// not per-handle, so a single large EC receive (L data + L parity
// slots retired in one loop) occupies one entry and can never evict
// itself. (slot, generation) pairs DO recur across enough operations
// — every Slots()×Generations receives — which is why lookups scan
// newest-first: the latest op owning a pair always wins.
//
// 64 entries suffice because an entry is needed only while its sender
// may still retransmit, that is until the sender completes the
// operation, and the receiver cannot retire 64 operations in that time.
// It retires only segments whose data arrived, so only segments the
// sender started. A sender starts a message only once the previous one
// completed, and within a message it starts no segment reackOps or more
// past the oldest one it has not completed (sendOp.step). A healthy
// sender trails the receiver by about its posting window (Window
// segments, 6 by default), so that cap binds only while an ACK is
// missing.
const reackOps = 64

// slotGen identifies one retired receive slot: the pair late packets
// for that message still carry.
type slotGen struct {
	slot int
	gen  uint32
}

// retiredOp remembers the final control message of one retired
// operation and every receive slot it spanned.
type retiredOp struct {
	used  bool
	msg   ctrlMsg
	slots []slotGen // backing array reused as the ring recycles
}

// reackTable is the receiver half of final-ACK recovery: a receive
// sends its final ACK once and retires its slots at completion, so when
// the lossy control path drops that ACK the sender keeps retransmitting
// into retired slots. Those retransmissions are absorbed by the NULL
// key — but the QP's late sink reports them, and the table answers
// each with a fresh copy of the operation's final ACK, so the sender
// completes one round-trip after a retransmission gets through instead
// of stalling until its global timeout.
//
// The ring (≈ 10 KB) is allocated by the first retire: an endpoint that
// only sends, like every sender side, never has one.
type reackTable struct {
	mu   sync.Mutex
	next int // ring cursor
	ops  *[reackOps]retiredOp
}

// resetLocked forgets every retired operation, touching only the
// entries in use (they run contiguously back from the cursor). The
// slot lists keep their backing arrays. Caller holds t.mu.
func (t *reackTable) resetLocked() {
	for k := 1; t.ops != nil && k <= reackOps; k++ {
		op := &t.ops[(t.next-k+reackOps)%reackOps]
		if !op.used {
			break
		}
		op.used = false
		op.msg = ctrlMsg{}
	}
}

// rememberRetired records one operation's final control message for
// the receives of subs, just before their slots retire.
func (e *Endpoint) rememberRetired(msg ctrlMsg, subs []ecRecvState) {
	t := &e.reack
	t.mu.Lock()
	if t.ops == nil {
		t.ops = new([reackOps]retiredOp)
	}
	op := &t.ops[t.next]
	op.used = true
	op.msg = msg
	op.slots = op.slots[:0]
	for _, s := range subs {
		op.slots = append(op.slots, slotGen{slot: s.dataH.Slot(), gen: s.dataH.Gen()})
		if s.parityH != nil {
			op.slots = append(op.slots, slotGen{slot: s.parityH.Slot(), gen: s.parityH.Gen()})
		}
	}
	t.next = (t.next + 1) % reackOps
	t.mu.Unlock()
}

// handleLate is the QP late-sink callback: a data packet for
// (slot, gen) was absorbed after retirement. Re-send the owning
// operation's final ACK. Every late packet is answered: a loss burst
// on a sparse control path swallows consecutive datagrams, and a
// retransmission wave then spends its own size on getting one answer
// through. The answers cost one small datagram per retransmitted
// packet, never more. It runs on the packet-delivery path and must not
// block (it only takes its own table lock and transmits one unreliable
// datagram).
//
// Everything it reads of the endpoint it reads under the table lock,
// which rebind holds while it re-initialises the endpoint: on a real
// clock a delivery of the previous lease can still be in here when the
// pooled deployment is re-leased. It then finds an empty ring — a
// re-leased endpoint never answers with the previous lease's ACK.
func (e *Endpoint) handleLate(slot int, gen uint32) {
	t := &e.reack
	t.mu.Lock()
	var msg ctrlMsg
	found := false
	// Scan newest-first: (slot, gen) pairs recur every
	// Slots()×Generations receives, so on a long-lived session a stale
	// older op can still hold the same pair — the most recently
	// retired op is the one the late packet belongs to.
scan:
	for k := 1; t.ops != nil && k <= reackOps; k++ {
		op := &t.ops[(t.next-k+reackOps)%reackOps]
		if !op.used {
			break // ring filled contiguously from t.next backwards
		}
		for _, sg := range op.slots {
			if sg.slot == slot && sg.gen == gen {
				msg, found = op.msg, true
				break scan
			}
		}
	}
	if found {
		e.LateReAcks.Add(1)
		e.probe(telemetry.EvLateReAck, int64(slot), int64(gen), 0, 0)
	}
	t.mu.Unlock()
	if found {
		e.CP.send(msg)
	}
}
