package reliability

import (
	"bytes"
	"fmt"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/nicsim"
)

// checkScheme rejects names Transfer has no ladder for. "sr" and
// "sr-nack" share one rung; what separates them is Config.NACK, which
// must be set before the session exists (ForScheme).
func checkScheme(scheme string) error {
	switch scheme {
	case "sr", "sr-nack", "ec", "adaptive":
		return nil
	}
	return fmt.Errorf("reliability: unknown scheme %q (want sr | sr-nack | ec | adaptive)", scheme)
}

// ForScheme returns c with the one field a scheme name decides set:
// NACK, on for "sr-nack" only (the static SR rung's hole repair is its
// only reader). Everything else a scheme needs is bound by
// Session.NewTransfer.
func (c Config) ForScheme(scheme string) (Config, error) {
	c.NACK = scheme == "sr-nack"
	return c, checkScheme(scheme)
}

// Transfer is a reliability scheme bound to a session's A→B direction:
// the ladder the name selects for the engine, the receiver's parity
// scratch sized from its geometry, and — for "adaptive" — the Adaptor
// that persists across the session's messages. Write and Receive are
// the two per-side calls; Actors and Drive run them as one verified
// message.
type Transfer struct {
	s      *Session
	scheme string // validated by checkScheme
	// ladder is what the engine runs: a static scheme's one-rung ladder
	// or the Adaptor's.
	ladder  AdaptorConfig
	ad      *Adaptor
	scratch []*nicsim.MR // one parity region per rotation slot; none for SR
}

// NewTransfer binds scheme ("sr", "sr-nack", "ec" or "adaptive") to the
// session for messages of up to maxMsgBytes. The coded schemes get
// slots parity-scratch regions registered on the receiver, each
// ECScratchBytes / AdaptiveScratchBytes large; a receiver that rotates
// its landing regions (sdr-perftest's Window) rotates the scratch with
// them, everyone else passes 1. acfg configures the adaptive ladder and
// is ignored by the static schemes.
func (s *Session) NewTransfer(scheme string, acfg AdaptorConfig, maxMsgBytes, slots int) (*Transfer, error) {
	if err := checkScheme(scheme); err != nil {
		return nil, err
	}
	t := &Transfer{s: s, scheme: scheme, ladder: srLadder}
	switch scheme {
	case "ec":
		t.ladder = s.B.Cfg.ecLadder()
	case "adaptive":
		var err error
		if t.ad, err = NewAdaptor(acfg); err != nil {
			return nil, err
		}
		t.ladder = t.ad.cfg
	}
	n := scratchBytes(t.ladder, s.B.QP.Config().ChunkBytes, maxMsgBytes)
	for i := 0; i < slots && n > 0; i++ {
		t.scratch = append(t.scratch, s.Pair.B.Ctx.RegMR(make([]byte, n)))
	}
	return t, nil
}

// Adaptor returns the adaptive scheme's controller (nil for the static
// schemes).
func (t *Transfer) Adaptor() *Adaptor { return t.ad }

// Write reliably writes data from the session's A side.
func (t *Transfer) Write(data []byte) error { return t.s.A.write(t.ladder, data) }

// Receive receives one Write into mr[off:off+size] on the session's B
// side, staging parity in scratch region slot.
func (t *Transfer) Receive(mr *nicsim.MR, off uint64, size, slot int) error {
	var scratch *nicsim.MR
	if t.scratch != nil {
		scratch = t.scratch[slot]
	}
	return t.s.B.receive(t.ladder, t.ad, mr, off, size, scratch)
}

// Outcome is what one driven message produced. The actors from
// Transfer.Actors fill it; read it after their Join.
type Outcome struct {
	// SendErr and RecvErr are what Write and Receive returned.
	SendErr, RecvErr error
	// SendDone and RecvDone are when each side returned, on the session
	// clock, measured from the Actors call (the Join's start instant on
	// a virtual clock, where time only advances inside the Join).
	SendDone, RecvDone time.Duration
	// Buf is the receive buffer. It is the caller's once the receiver
	// has returned, on either clock: the receive retired its slots
	// before returning, so no late retransmission writes it any more.
	Buf []byte

	scheme string
	data   []byte
}

// BytesOK reports whether Buf holds the payload.
func (o *Outcome) BytesOK() bool { return bytes.Equal(o.Buf, o.data) }

// Err returns the message's first failure: the sender's error, the
// receiver's, or a payload mismatch after both returned clean.
func (o *Outcome) Err() error {
	switch {
	case o.SendErr != nil:
		return fmt.Errorf("%s write: %w", o.scheme, o.SendErr)
	case o.RecvErr != nil:
		return fmt.Errorf("%s receive: %w", o.scheme, o.RecvErr)
	case !o.BytesOK():
		return fmt.Errorf("%s: received data corrupted", o.scheme)
	}
	return nil
}

// Actors returns the sender and receiver of one message — data written
// into a fresh receive buffer — as actors named name/send and
// name/recv, and the Outcome they fill. Pass them to clock.JoinNamed,
// sender first, alongside whatever else the scenario runs; data stays
// the caller's and must not be reused while stale copies may be in
// flight.
func (t *Transfer) Actors(name string, data []byte) (send, recv clock.NamedFunc, out *Outcome) {
	clk := t.s.A.clock()
	out = &Outcome{Buf: make([]byte, len(data)), scheme: t.scheme, data: data}
	mr := t.s.Pair.B.Ctx.RegMR(out.Buf)
	start := clk.Now()
	send = clock.NamedFunc{Name: name + "/send", Fn: func() {
		out.SendErr = t.Write(data)
		out.SendDone = clk.Since(start)
	}}
	recv = clock.NamedFunc{Name: name + "/recv", Fn: func() {
		out.RecvErr = t.Receive(mr, 0, len(data), 0)
		out.RecvDone = clk.Since(start)
	}}
	return send, recv, out
}

// Drive runs one message to completion on the session clock: Actors
// under their own Join.
func (t *Transfer) Drive(name string, data []byte) *Outcome {
	send, recv, out := t.Actors(name, data)
	clock.JoinNamed(t.s.A.clock(), send, recv)
	return out
}
