package reliability

import "fmt"

// Adaptive mid-flight reliability (README, "Adaptive reliability under
// faults"; its policy is ROADMAP's "The adaptive policy, measured
// against the oracle"): instead of fixing SR or EC for the whole
// connection, the transfer is cut into segments of SegmentChunks chunks
// and each segment runs the scheme a per-session Adaptor picked from
// the signals of already-completed segments — duplicate arrivals
// (retransmission ≈ wire loss), missing data chunks recovered from
// parity (erasure rate), and ECN marks (congestion, which parity would
// worsen rather than mask). This file is the controller; the loops that
// run its ladder — and every static scheme's one-rung ladder — are the
// engine (engine.go).
//
// The decision is receiver-driven: every adaptation signal already
// lives on the receiver (bitmaps, duplicate counters, the Marked bit
// threaded up from netem queues), so the receiver picks the scheme
// when it posts a segment and announces it to the sender in a plan
// control message. Segment 0 always runs Ladder[0], so the transfer
// needs no rendezvous before first byte.
//
// Segments overlap in a window: the receiver keeps up to Window
// segments posted ahead of the completion head, and the sender starts
// a segment as soon as its plan is known and the matching clear-to-
// send arrived (QP.SendReady — never blocking the pump loop that
// services retransmissions of open segments). Completion and
// observation advance strictly in segment order, which is what makes
// the adaptation trajectory — and therefore every byte on the wire —
// deterministic per seed.
//
// Loss robustness of the control additions mirrors the rest of the
// protocol: plans ride the lossy control path, so the receiver
// re-sends the plan of any posted segment that has seen no arrivals on
// every ACK tick, and the sender ignores plans for segments it already
// started.

// Scheme selects a per-segment reliability scheme.
type Scheme byte

const (
	// SchemeSR runs the segment under Selective Repeat with NACK fast
	// retransmission — zero overhead bytes, recovery costs round trips.
	SchemeSR Scheme = iota
	// SchemeEC runs the segment erasure-coded — overhead bytes buy
	// recovery without retransmission round trips.
	SchemeEC
)

// Mode is one rung of the adaptive ladder: a scheme plus its EC split.
type Mode struct {
	Scheme Scheme
	// K and M are the erasure-code split (SchemeEC only). K must equal
	// AdaptorConfig.SegmentChunks so each segment is exactly one
	// submessage.
	K, M int
	// static marks the one rung of a static scheme's ladder (srLadder,
	// Config.ecLadder). Its segment spans the message — for EC it holds
	// all L submessages — and it carries the static schemes' timing
	// policy instead of the adaptive one: a plain segment repairs holes
	// only in NACK mode (sendSeg.repairHoles), and a coded segment's
	// receiver wakes every PollInterval and NACKs FTO after posting,
	// then every RTO (recvOp.tick).
	static bool
}

// Name labels the mode for figure output.
func (m Mode) Name() string {
	if m.Scheme == SchemeSR {
		return "sr"
	}
	return fmt.Sprintf("ec(%d,%d)", m.K, m.M)
}

// AdaptorConfig tunes the adaptive controller.
type AdaptorConfig struct {
	// SegmentChunks is the adaptation granularity: scheme switches
	// happen only at boundaries of SegmentChunks-chunk segments.
	SegmentChunks int
	// Window bounds how many segments the receiver keeps posted ahead
	// of the completion head. It must cover the path's bandwidth-delay
	// product (in segments) or the pipeline throttles below line rate.
	Window int
	// Ladder orders the modes from cheapest (index 0, clean network) to
	// most protective. Escalation and de-escalation move one rung at a
	// time. Ladder[0] is the segment-0 convention both sides assume.
	Ladder []Mode
	// EnterLoss and ExitLoss are the hysteresis thresholds on the
	// per-segment loss signal: escalate at or above EnterLoss,
	// de-escalate at or below ExitLoss. EnterLoss > ExitLoss keeps a
	// flapping signal from thrashing the ladder.
	EnterLoss, ExitLoss float64
	// CongestionMarkFrac discriminates congestion from wire loss: when
	// at least this fraction of a segment's packets carried the ECN
	// mark, the loss is self-inflicted queue pressure and the adaptor
	// de-escalates (parity overhead feeds the queue) instead of
	// escalating.
	CongestionMarkFrac float64
	// MinDwell is the floor: at least this many segments must complete
	// between consecutive switches.
	MinDwell int
}

// WithDefaults fills zero fields with the regime-sweep calibration.
func (c AdaptorConfig) WithDefaults() AdaptorConfig {
	if c.SegmentChunks == 0 {
		c.SegmentChunks = 16
	}
	if c.Window == 0 {
		c.Window = 6
	}
	if c.Ladder == nil {
		k := c.SegmentChunks
		c.Ladder = []Mode{
			{Scheme: SchemeSR},
			{Scheme: SchemeEC, K: k, M: (k + 7) / 8},
			{Scheme: SchemeEC, K: k, M: (k + 3) / 4},
			{Scheme: SchemeEC, K: k, M: (k + 1) / 2},
		}
	}
	if c.EnterLoss == 0 {
		c.EnterLoss = 0.02
	}
	if c.ExitLoss == 0 {
		c.ExitLoss = 0.005
	}
	if c.CongestionMarkFrac == 0 {
		c.CongestionMarkFrac = 0.05
	}
	if c.MinDwell == 0 {
		c.MinDwell = 2
	}
	return c
}

// validate reports configuration errors. A static scheme's one-rung
// ladder (srLadder, Config.ecLadder) is valid by construction.
func (c AdaptorConfig) validate() error {
	if len(c.Ladder) == 1 && c.Ladder[0].static {
		return nil
	}
	switch {
	case c.SegmentChunks <= 0:
		return fmt.Errorf("reliability: adaptor segment %d chunks <= 0", c.SegmentChunks)
	case c.Window <= 0:
		return fmt.Errorf("reliability: adaptor window %d <= 0", c.Window)
	case len(c.Ladder) == 0:
		return fmt.Errorf("reliability: adaptor ladder empty")
	case c.EnterLoss <= c.ExitLoss:
		return fmt.Errorf("reliability: adaptor hysteresis inverted (enter %g <= exit %g)",
			c.EnterLoss, c.ExitLoss)
	case c.ExitLoss < 0:
		return fmt.Errorf("reliability: adaptor exit threshold %g < 0", c.ExitLoss)
	case c.CongestionMarkFrac <= 0 || c.CongestionMarkFrac > 1:
		return fmt.Errorf("reliability: adaptor mark fraction %g outside (0,1]", c.CongestionMarkFrac)
	case c.MinDwell < 1:
		return fmt.Errorf("reliability: adaptor dwell floor %d < 1", c.MinDwell)
	}
	for i, m := range c.Ladder {
		if m.Scheme == SchemeSR {
			continue
		}
		if m.K != c.SegmentChunks {
			return fmt.Errorf("reliability: ladder[%d] K=%d != segment chunks %d (one submessage per segment)",
				i, m.K, c.SegmentChunks)
		}
		if m.M <= 0 {
			return fmt.Errorf("reliability: ladder[%d] M=%d <= 0", i, m.M)
		}
	}
	return nil
}

// segStats is what the receiver observed over one completed segment —
// the adaptor's only input.
type segStats struct {
	// Seg is the segment index; Mode the scheme it ran under.
	Seg  int
	Mode Mode
	// Arrived counts packets accepted across the segment's receives;
	// Dups the accepted packets that were retransmission overlap;
	// Marked the accepted packets carrying the ECN bit.
	Arrived, Dups, Marked uint64
	// MissingData counts real data chunks that never arrived on the
	// wire (recovered from parity or NACK fallback); DataChunks the
	// segment's real data chunk count.
	MissingData, DataChunks int
}

// lossSignal condenses the stats into the scalar the hysteresis
// thresholds compare against: the wire-loss fraction the segment
// experienced.
func (s segStats) lossSignal() float64 {
	var sig float64
	if s.Arrived > 0 {
		sig = float64(s.Dups) / float64(s.Arrived)
	}
	if s.DataChunks > 0 {
		if f := float64(s.MissingData) / float64(s.DataChunks); f > sig {
			sig = f
		}
	}
	return sig
}

// markFrac is the fraction of arrived packets that carried the ECN
// congestion-experienced bit.
func (s segStats) markFrac() float64 {
	if s.Arrived == 0 {
		return 0
	}
	return float64(s.Marked) / float64(s.Arrived)
}

// Switch records one ladder move for figure output.
type Switch struct {
	AfterSeg int
	From, To Mode
}

// Adaptor is the per-session adaptation controller. It lives on the
// receiver, persists across transfers, and is NOT safe for concurrent
// use (operations on an endpoint are serialized anyway).
type Adaptor struct {
	cfg      AdaptorConfig
	idx      int
	dwell    int
	observed int
	switches []Switch
}

// NewAdaptor validates cfg (after defaults) and returns a controller
// starting at Ladder[0].
func NewAdaptor(cfg AdaptorConfig) (*Adaptor, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Adaptor{cfg: cfg, dwell: cfg.MinDwell}, nil
}

// Config returns the adaptor's configuration (defaults applied).
func (a *Adaptor) Config() AdaptorConfig { return a.cfg }

// mode returns the mode the next posted segment should run under.
func (a *Adaptor) mode() Mode { return a.cfg.Ladder[a.idx] }

// rung returns the current ladder index.
func (a *Adaptor) rung() int { return a.idx }

// Switches returns the ladder moves taken so far (shared; do not
// mutate).
func (a *Adaptor) Switches() []Switch { return a.switches }

// observe feeds one completed segment's stats into the controller,
// possibly moving the ladder one rung. Hysteresis (EnterLoss/ExitLoss)
// and the MinDwell floor keep a flapping signal from thrashing.
func (a *Adaptor) observe(s segStats) {
	a.observed++
	a.dwell++
	if a.dwell < a.cfg.MinDwell {
		return
	}
	loss := s.lossSignal()
	congested := s.markFrac() >= a.cfg.CongestionMarkFrac
	next := a.idx
	switch {
	case congested:
		// Queue pressure: parity overhead feeds the very queue that is
		// marking, so shed protection instead of adding it.
		if a.idx > 0 {
			next = a.idx - 1
		}
	case loss >= a.cfg.EnterLoss:
		if a.idx < len(a.cfg.Ladder)-1 {
			next = a.idx + 1
		}
	case loss <= a.cfg.ExitLoss:
		if a.idx > 0 {
			next = a.idx - 1
		}
	}
	if next == a.idx {
		return
	}
	a.switches = append(a.switches, Switch{AfterSeg: s.Seg, From: a.cfg.Ladder[a.idx], To: a.cfg.Ladder[next]})
	a.idx = next
	a.dwell = 0
}
