package core

import (
	"fmt"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/nicsim"
)

// Endpoint bundles one side of an SDR connection: the simulated NIC,
// its SDR context and a connected QP.
type Endpoint struct {
	Dev *nicsim.Device
	Ctx *Context
	QP  *QP
}

// Pair is a fully wired client/server SDR deployment over one fabric
// link — the unit the examples, tests and benchmark harnesses build
// on.
type Pair struct {
	A, B *Endpoint
	Link *fabric.Link
	OOB  *fabric.OOB
}

// NewPair creates two devices, SDR contexts and QPs, connects them
// across a link with the given per-direction impairments, and wires
// the out-of-band CTS channel with oobLatency one-way delay. The
// fabric directions and OOB channel inherit cfg.Clock unless they name
// their own.
func NewPair(cfg Config, ab, ba fabric.Config, oobLatency time.Duration) (*Pair, error) {
	if cfg.Clock == nil {
		// A dedicated Real instance per deployment keeps the notify
		// broadcast domain to this pair: a completion here wakes this
		// pair's waiters, not every clock waiter in the process.
		cfg.Clock = clock.NewReal()
	}
	clk := cfg.Clock
	if ab.Clock == nil {
		ab.Clock = clk
	}
	if ba.Clock == nil {
		ba.Clock = clk
	}
	devA := nicsim.NewDevice("dcA")
	devB := nicsim.NewDevice("dcB")
	link := fabric.NewLink(devA, devB, ab, ba)
	oob := fabric.NewOOB(clk, oobLatency)
	return NewPairOver(cfg, devA, devB, link, oob)
}

// NewPairOver wires SDR contexts and QPs over prebuilt devices, data
// wires and OOB channel — the entry point for deployments whose data
// path is more than one fabric link, such as netem topologies routing
// flows through shared bottleneck queues. link.AB must carry packets
// toward devB and link.BA toward devA; cfg.Clock must be set by the
// caller (it is what the whole deployment, including the prebuilt
// wires, should already run on).
func NewPairOver(cfg Config, devA, devB *nicsim.Device, link *fabric.Link, oob *fabric.OOB) (*Pair, error) {
	p, err := NewPairDetached(cfg, devA, devB)
	if err != nil {
		return nil, err
	}
	if err := p.Bind(link, oob); err != nil {
		return nil, err
	}
	return p, nil
}

// NewPairDetached builds both SDR endpoints — contexts, QPs, DPA
// workers, root keys — without binding them to any data path. This is
// the expensive half of deployment construction, the part the session
// fabric pools: a detached (or Reset) pair is re-routed onto a fresh
// link with Bind, which costs only the QP reconnect.
func NewPairDetached(cfg Config, devA, devB *nicsim.Device) (*Pair, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("sdr: NewPairDetached requires an explicit clock")
	}
	ctxA, err := NewContext(devA, cfg)
	if err != nil {
		return nil, fmt.Errorf("sdr: context A: %w", err)
	}
	ctxB, err := NewContext(devB, cfg)
	if err != nil {
		return nil, fmt.Errorf("sdr: context B: %w", err)
	}
	return &Pair{
		A: &Endpoint{Dev: devA, Ctx: ctxA, QP: ctxA.NewQP()},
		B: &Endpoint{Dev: devB, Ctx: ctxB, QP: ctxB.NewQP()},
	}, nil
}

// Bind connects the pair across link and oob: link.AB must carry
// packets toward B's device and link.BA toward A's. Calling Bind again
// (after Reset) re-routes the pair onto a new data path — the
// per-lease rebind of a pooled deployment.
func (p *Pair) Bind(link *fabric.Link, oob *fabric.OOB) error {
	if err := p.A.QP.Connect(link.AB, oob, true, p.B.QP.Info()); err != nil {
		return err
	}
	if err := p.B.QP.Connect(link.BA, oob, false, p.A.QP.Info()); err != nil {
		return err
	}
	p.Link = link
	p.OOB = oob
	return nil
}

// Reset reverts both endpoints' per-session state (see QP.reset) and
// deregisters session-scoped MRs, readying the pair for another Bind.
func (p *Pair) Reset() {
	p.A.QP.reset()
	p.B.QP.reset()
	p.A.Ctx.resetLeaseMRs()
	p.B.Ctx.resetLeaseMRs()
}

// Close tears both endpoints down.
func (p *Pair) Close() {
	p.A.QP.close()
	p.B.QP.close()
	p.A.Ctx.close()
	p.B.Ctx.close()
}
