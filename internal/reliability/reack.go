package reliability

import (
	"sync"
	"time"

	"sdrrdma/internal/core"
	"sdrrdma/internal/telemetry"
)

// reackOps bounds the recently-retired table: how many retired
// *operations* an endpoint can still re-ACK for. The ring is per-op,
// not per-handle, so a single large EC receive (L data + L parity
// slots retired in one loop) occupies one entry and can never evict
// itself. (slot, generation) pairs DO recur across enough operations
// — every Slots()×Generations receives — which is why lookups scan
// newest-first: the latest op owning a pair always wins.
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
	used     bool
	lastSent time.Time
	msg      ctrlMsg
	slots    []slotGen // backing array reused as the ring recycles
}

// reackTable is the receiver half of the late-data re-ACK protocol
// fix (ROADMAP, PR 4 follow-on): when a burst on the lossy control
// path swallows the receiver's entire final-ACK linger window, the
// receiver retires its slots while the sender keeps retransmitting
// into them. Those retransmissions are absorbed by the NULL key — but
// the QP's late sink reports them, and the table answers each with a
// fresh copy of the operation's final ACK, so the sender completes
// one round-trip after the burst clears instead of stalling until its
// global timeout.
type reackTable struct {
	mu   sync.Mutex
	next int // ring cursor
	ops  [reackOps]retiredOp
}

// resetLocked forgets every retired operation, touching only the
// entries in use (they run contiguously back from the cursor). The
// slot lists keep their backing arrays. Caller holds t.mu.
func (t *reackTable) resetLocked() {
	for k := 1; k <= reackOps; k++ {
		op := &t.ops[(t.next-k+reackOps)%reackOps]
		if !op.used {
			break
		}
		op.used = false
		op.msg = ctrlMsg{}
	}
}

// rememberRetired records one operation's final control message for
// the given handles, just before their slots retire.
func (e *Endpoint) rememberRetired(msg ctrlMsg, hs ...*core.RecvHandle) {
	t := &e.reack
	t.mu.Lock()
	op := &t.ops[t.next]
	op.used = true
	op.lastSent = time.Time{}
	op.msg = msg
	op.slots = op.slots[:0]
	for _, h := range hs {
		op.slots = append(op.slots, slotGen{slot: h.Slot(), gen: h.Gen()})
	}
	t.next = (t.next + 1) % reackOps
	t.mu.Unlock()
}

// handleLate is the QP late-sink callback: a data packet for
// (slot, gen) was absorbed after retirement. Re-send the owning
// operation's final ACK, rate-limited to one per AckInterval so a
// burst of late retransmissions does not turn into an ACK storm. It
// runs on the packet-delivery path and must not block (it only takes
// its own table lock and transmits one unreliable datagram).
//
// Everything it reads of the endpoint it reads under the table lock,
// which rebind holds while it re-initialises the endpoint: on a real
// clock a delivery of the previous lease can still be in here when the
// pooled deployment is re-leased. It then finds an empty ring — a
// re-leased endpoint never answers with the previous lease's ACK.
func (e *Endpoint) handleLate(slot int, gen uint32) {
	t := &e.reack
	now := e.clock().Now()
	t.mu.Lock()
	var msg ctrlMsg
	found := false
	// Scan newest-first: (slot, gen) pairs recur every
	// Slots()×Generations receives, so on a long-lived session a stale
	// older op can still hold the same pair — the most recently
	// retired op is the one the late packet belongs to.
scan:
	for k := 1; k <= reackOps; k++ {
		op := &t.ops[(t.next-k+reackOps)%reackOps]
		if !op.used {
			break // ring filled contiguously from t.next backwards
		}
		for _, sg := range op.slots {
			if sg.slot != slot || sg.gen != gen {
				continue
			}
			if now.Sub(op.lastSent) < e.Cfg.AckInterval {
				break scan // recently re-ACKed; let that one land first
			}
			op.lastSent = now
			msg = op.msg
			found = true
			break scan
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
