// Package reliability implements the paper's example reliability
// layers on top of the SDR partial-completion bitmap (§4): Selective
// Repeat (timeout- and NACK-driven) and Erasure Coding with a
// Selective-Repeat fallback. Both run over two connections, exactly as
// in §4.1:
//
//   - a data-path SDR QP for zero-copy chunk delivery, and
//   - a control-path UD QP for ACK/NACK exchange — control packets
//     traverse the same lossy fabric and can be dropped, so the
//     protocols must tolerate ACK loss.
//
// Every scheme runs on one mechanism, the segment (segment.go):
// start/inject, ACK application, chunk resend, hole repair, the RTO
// sweep and the coded probe, the EC shard view with encode and in-place
// recover, SACK and NACK construction, the final ACK with the slots'
// retirement and the clean-up on error exits each exist once. A
// receive retires its slots at completion (§3.3.2), so a returned
// receive's buffer is the caller's on either clock; a lost final ACK
// is recovered by the sender's retransmission pulling it again from
// the re-ACK table (reack.go). And
// every scheme runs through one engine (engine.go): one send loop and
// one receive loop following a ladder of rungs. A static scheme is a
// one-rung ladder — one segment spanning the message, whose rung
// carries the scheme's timing policy as data (Mode.static).
//
// The adaptive ladder (Adaptor) makes the scheme choice itself
// dynamic: one transfer is split into segments, the receiver observes
// per-segment loss, duplicate and ECN signals and plans each upcoming
// segment's rung on an SR↔EC ladder (with hysteresis and a dwell
// floor), and the sender follows the plans mid-flight — the
// "software-defined" half of the paper's title, exercised against the
// netem fault programs.
//
// A harness chooses a scheme by name and holds it as one value
// (transfer.go):
//
//	relCfg, err := Config{RTT: rtt}.ForScheme(scheme)     // the NACK bit
//	s, err := NewSession(coreCfg, relCfg, ab, ba, oob)
//	tr, err := s.NewTransfer(scheme, AdaptorConfig{}, maxMsgBytes, 1)
//	err = tr.Drive("flow", data).Err()                     // one verified message
//
// NewTransfer is the only place that turns "sr", "sr-nack", "ec" or
// "adaptive" into a ladder, sizes and registers the receiver's parity
// scratch and owns the Adaptor; Drive (or Actors, under the caller's
// own Join) runs a message's sender and receiver and returns their
// Outcome. Harnesses that loop over messages themselves call
// tr.Write(data) and tr.Receive(mr, off, size, slot), which call the
// engine directly. The six Endpoint methods WriteSR/EC/Adaptive and
// ReceiveSR/EC/Adaptive are one-line calls into the engine, exported
// only because benchmark/rep.go, which no PR but a [benchmark] one may
// edit, calls them (ROADMAP item 5b).
package reliability

import (
	"fmt"
	"time"

	"sdrrdma/internal/ec"
)

// Config tunes the reliability protocols.
type Config struct {
	// RTT is the estimated network round-trip time.
	RTT time.Duration
	// Alpha sets RTO = RTT + Alpha·RTT (§4.1.1; the paper's "SR RTO"
	// scenario uses Alpha = 2, i.e. RTO = 3·RTT).
	Alpha float64
	// NACK enables fast retransmission on the static SR rung: holes
	// behind the selective-ACK frontier are resent after ~1 RTT instead
	// of a full RTO (§5.1.1's "SR NACK" scenario).
	NACK bool
	// PollInterval is the sender's wake cadence, and the static EC
	// receiver's bitmap polling cadence.
	PollInterval time.Duration
	// AckInterval is the receiver's ACK transmission cadence.
	AckInterval time.Duration
	// GlobalTimeout aborts an operation outright (§4.1.2's deadlock
	// guard).
	GlobalTimeout time.Duration

	// K and M are the erasure-code split (data and parity chunks per
	// submessage; paper's balanced choice is 32, 8).
	K, M int
	// Code selects "mds" or "xor".
	Code string
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.RTT == 0 {
		c.RTT = 4 * time.Millisecond
	}
	if c.Alpha == 0 {
		c.Alpha = 2
	}
	if c.PollInterval == 0 {
		c.PollInterval = c.RTT / 8
	}
	if c.AckInterval == 0 {
		c.AckInterval = c.RTT / 4
	}
	if c.GlobalTimeout == 0 {
		c.GlobalTimeout = 100 * c.rto()
	}
	if c.K == 0 {
		c.K = 32
	}
	if c.M == 0 {
		c.M = 8
	}
	if c.Code == "" {
		c.Code = "mds"
	}
	return c
}

// Validate rejects configurations that cannot make progress, mirroring
// wan.NewGilbertElliott's fail-fast stance: a GlobalTimeout at
// or below 2·RTT expires before a single request/response round trip
// can complete, so every transfer would die with errGlobalTimeout no
// matter how healthy the network is; and a poll or ACK cadence that is
// not positive — WithDefaults derives RTT/8 and RTT/4, 0 for an RTT
// under 8 ns — re-arms its timer at the same instant forever, so
// simulated time never advances. Call after WithDefaults.
func (c Config) Validate() error {
	switch {
	case c.RTT < 0:
		return fmt.Errorf("reliability: RTT %v < 0", c.RTT)
	case c.PollInterval <= 0:
		return fmt.Errorf("reliability: PollInterval %v <= 0 (RTT %v)", c.PollInterval, c.RTT)
	case c.AckInterval <= 0:
		return fmt.Errorf("reliability: AckInterval %v <= 0 (RTT %v)", c.AckInterval, c.RTT)
	}
	if c.GlobalTimeout <= 2*c.RTT {
		return fmt.Errorf("reliability: GlobalTimeout %v <= 2*RTT (%v) — no transfer can complete",
			c.GlobalTimeout, 2*c.RTT)
	}
	return nil
}

// rto returns the Selective Repeat retransmission timeout
// RTT + Alpha·RTT.
func (c Config) rto() time.Duration {
	return time.Duration(float64(c.RTT) * (1 + c.Alpha))
}

// fto returns the EC fallback timeout (§4.1.2): a loose injection
// estimate of RTT/2 plus half the SR slack, RTT·Alpha/2.
func (c Config) fto() time.Duration {
	return c.RTT/2 + time.Duration(float64(c.RTT)*(c.Alpha/2))
}

// newCode instantiates the configured erasure code.
func (c Config) newCode() (ec.Code, error) {
	switch c.Code {
	case "mds":
		return ec.NewRS(c.K, c.M)
	case "xor":
		return ec.NewXOR(c.K, c.M)
	default:
		return nil, fmt.Errorf("reliability: unknown code %q", c.Code)
	}
}
