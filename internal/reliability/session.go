package reliability

import (
	"sync/atomic"
	"time"

	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/telemetry"
)

// Session wires two reliable endpoints across one (impaired) fabric
// link: the SDR data path and the UD control path share the wire, so
// ACKs and NACKs are just as lossy as data (§4.1).
type Session struct {
	Pair *core.Pair
	A, B *Endpoint

	// release, when set, runs on Close in place of teardown — the hook
	// the session fabric uses to return a pooled deployment to its
	// pool. See SetRelease.
	release func()
	// quarantine, when set, runs on Quarantine in place of teardown —
	// the pooled-deployment hook that permanently retires a lease whose
	// post-failure state cannot be trusted.
	quarantine func()
	// closed makes Close/Quarantine idempotent: an abort path and a
	// deferred Close racing each other must not double-release the
	// pooled deployment.
	closed atomic.Bool
}

// NewSession builds a connected client/server reliability deployment.
// The whole deployment — data fabric, OOB channel, control planes and
// protocol loops — runs on coreCfg.Clock (nil = real clock); building
// it on a clock.Virtual yields a deterministic discrete-event run.
// The reliability config is validated fail-fast (Config.Validate).
func NewSession(coreCfg core.Config, relCfg Config, ab, ba fabric.Config, oobLatency time.Duration) (*Session, error) {
	if err := relCfg.WithDefaults().Validate(); err != nil {
		return nil, err
	}
	pair, err := core.NewPair(coreCfg, ab, ba, oobLatency)
	if err != nil {
		return nil, err
	}
	return NewSessionOn(pair, relCfg), nil
}

// NewSessionOn layers the reliability deployment over an existing
// pair — the hook netem topologies use after wiring a pair across
// multi-hop queue paths. The control planes transmit on the pair's
// link directions, so ACK/NACK traffic crosses the same impaired path
// as the data (§4.1).
func NewSessionOn(pair *core.Pair, relCfg Config) *Session {
	clk := pair.A.Ctx.Clock()
	mtu := pair.A.Ctx.Config().MTU
	cpA := NewControlPlane(pair.A.Dev, pair.Link.AB, mtu, clk)
	cpB := NewControlPlane(pair.B.Dev, pair.Link.BA, mtu, clk)
	return NewSessionOver(pair, NewEndpoint(pair.A.QP, cpA, relCfg), NewEndpoint(pair.B.QP, cpB, relCfg), relCfg)
}

// NewSessionOver starts a session on an existing pair and existing
// endpoints — the pooled-deployment path, where the endpoints (with
// their control planes and receive slabs, operation scratch and code
// cache) outlive individual sessions. Both endpoints are rebound to
// relCfg: each session starts with an empty re-ACK ring, zero counters
// and no abort or telemetry state, whatever the previous one left. The
// control planes must already transmit on the pair's current link
// directions (see ControlPlane.Rebind).
func NewSessionOver(pair *core.Pair, a, b *Endpoint, relCfg Config) *Session {
	a.CP.ConnectCtrl(b.CP.QPN())
	b.CP.ConnectCtrl(a.CP.QPN())
	a.rebind(relCfg)
	b.rebind(relCfg)
	return &Session{Pair: pair, A: a, B: b}
}

// SetRelease registers fn to run on Close instead of tearing the
// deployment down. The session fabric uses it so a leased session's
// Close transparently resets and releases the pooled deployment.
func (s *Session) SetRelease(fn func()) { s.release = fn }

// SetQuarantine registers fn to run on Quarantine instead of teardown
// — the pooled-deployment hook (session.Pool) that retires the lease
// from circulation instead of returning it to the free list.
func (s *Session) SetQuarantine(fn func()) { s.quarantine = fn }

// Abort cancels both endpoints: whichever operations are blocked (on
// either side) unwind and return ErrAborted wrapping cause. The
// session must still be Closed (or Quarantined) afterwards.
func (s *Session) Abort(cause error) {
	s.A.Abort(cause)
	s.B.Abort(cause)
}

// Quarantine retires the session without trusting its state: pending
// retires are flushed, then the pooled deployment is quarantined (not
// re-leased) — or, unpooled, the deployment is torn down. Idempotent,
// and mutually exclusive with Close: whichever runs first wins.
func (s *Session) Quarantine() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.A.flushRetires()
	s.B.flushRetires()
	if s.quarantine != nil {
		s.quarantine()
		return
	}
	s.teardown()
}

func (s *Session) teardown() {
	s.A.CP.Close()
	s.B.CP.Close()
	s.Pair.Close()
}

// SetTelemetry attaches both endpoints to a flight recorder: nameA and
// nameB become their track names (see Endpoint.SetTelemetry). Pass a
// nil recorder to detach — pooled deployments do this implicitly on
// the next lease, since endpoints are rebound per Bind.
func (s *Session) SetTelemetry(rec *telemetry.Recorder, nameA, nameB string) {
	s.A.SetTelemetry(rec, nameA)
	s.B.SetTelemetry(rec, nameB)
}

// Close finishes any background receive retires (their slots retire
// immediately, without waiting out the remaining linger), then either
// releases the session's pooled deployment or tears the deployment
// down. Idempotent: a second Close — e.g. an abort path racing a
// deferred Close — is a no-op rather than a double release.
func (s *Session) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.A.flushRetires()
	s.B.flushRetires()
	if s.release != nil {
		s.release()
		return
	}
	s.teardown()
}
