package reliability

import (
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
)

// Receive retire: the final-ACK linger of a completed segment. A
// receive that blocked its caller through the whole linger window
// (re-sending the final ACK so a lost one cannot strand the sender)
// would serialize ~one linger per stage on the collective critical
// path — the receiver could not post the next stage's buffer, so its
// CTS (and with it the sender) would wait out the linger too.
//
// So the linger runs in the background, and this is its only
// implementation: recvSeg.finish sends the final control message once
// and returns at the completion instant; a clock timer keeps re-sending
// it every AckInterval until the linger window elapses, then arms the
// late re-ACK table and retires the slots. Session.Close joins the
// pending retires (flushRetires), so teardown or a pooled release never
// leaves armed timers or live slots behind.

// pendingRetire is one receive whose linger is still running.
type pendingRetire struct {
	msg     ctrlMsg
	handles []*core.RecvHandle
	// inline backs handles for a plain segment (one data handle) and a
	// coded one of a single submessage, sparing them a second allocation.
	inline   [2]*core.RecvHandle
	deadline time.Time
	timer    clock.Timer
	done     bool
}

// retire schedules the background linger for a completed receive of
// submessages subs whose final control message msg has already been
// sent once. The handles' slots stay live until the linger elapses (or
// the session closes), so retransmissions keep landing as duplicates
// rather than late packets.
func (e *Endpoint) retire(msg ctrlMsg, subs []ecRecvState) {
	clk := e.clock()
	r := &pendingRetire{msg: msg, deadline: clk.Now().Add(e.Cfg.Linger)}
	r.handles = r.inline[:0]
	for _, s := range subs {
		r.handles = append(r.handles, s.dataH)
		if s.parityH != nil {
			r.handles = append(r.handles, s.parityH)
		}
	}
	e.retMu.Lock()
	e.retires = append(e.retires, r)
	// Arm under retMu: retireTick locks it before touching r, so the
	// timer field is published before the first tick can read it (on a
	// real clock the callback may fire arbitrarily soon).
	r.timer = clk.AfterFunc(e.Cfg.AckInterval, func() { e.retireTick(r) })
	e.retMu.Unlock()
}

// retireTick is the linger timer body: re-send the final control
// message while the window is open, finish the retire once it elapses.
// It runs on the clock's callback path and must not block.
func (e *Endpoint) retireTick(r *pendingRetire) {
	e.retMu.Lock()
	defer e.retMu.Unlock()
	if r.done {
		return
	}
	if !e.clock().Now().Before(r.deadline) {
		e.finishRetireLocked(r)
		return
	}
	e.CP.send(r.msg)
	r.timer.Reset(e.Cfg.AckInterval)
}

// finishRetireLocked (retMu held) retires one pending receive: arm the
// late re-ACK table, then retire every slot.
func (e *Endpoint) finishRetireLocked(r *pendingRetire) {
	r.done = true
	for i, p := range e.retires {
		if p == r {
			e.retires = append(e.retires[:i], e.retires[i+1:]...)
			break
		}
	}
	e.rememberRetired(r.msg, r.handles...)
	for _, h := range r.handles {
		h.Complete()
	}
}

// flushRetires completes every pending background retire immediately:
// timers stop, slots retire and the re-ACK table is armed without
// waiting out the remaining linger.
func (e *Endpoint) flushRetires() {
	e.retMu.Lock()
	for len(e.retires) > 0 {
		r := e.retires[len(e.retires)-1]
		if r.timer != nil {
			r.timer.Stop()
		}
		e.finishRetireLocked(r)
	}
	e.retMu.Unlock()
}
