package reliability

import (
	"fmt"
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

	// release and quarantine, when set (see SetPooled), run on Close
	// and on Quarantine in place of teardown: the session is a lease of
	// a pooled deployment, which Close returns to its pool and
	// Quarantine — for a lease whose post-failure state cannot be
	// trusted — permanently retires.
	release, quarantine func()
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
	a, b, err := NewEndpoints(pair)
	if err != nil {
		pair.Close()
		return nil, err
	}
	return NewSessionOver(pair, a, b, relCfg), nil
}

// NewSessionOn layers the reliability deployment over an existing
// pair — the hook netem topologies use after wiring a pair across
// multi-hop queue paths. The control planes transmit on the pair's
// link directions, so ACK/NACK traffic crosses the same impaired path
// as the data (§4.1). It panics on a pair whose MTU NewEndpoints
// refuses; NewSession returns that error instead.
func NewSessionOn(pair *core.Pair, relCfg Config) *Session {
	a, b, err := NewEndpoints(pair)
	if err != nil {
		panic(err)
	}
	return NewSessionOver(pair, a, b, relCfg)
}

// NewEndpoints builds the reliability half of a deployment on pair: per
// side a detached control plane, with its posted receive ring, and the
// endpoint that owns it — everything that outlives a session: receive
// rings, operation scratch, code cache.
// NewSessionOver starts a session on them; a pooled deployment keeps
// them and starts one per lease. A control message is one datagram, so
// an MTU below minCtrlMTU is refused.
func NewEndpoints(pair *core.Pair) (a, b *Endpoint, err error) {
	if mtu := pair.A.Ctx.Config().MTU; mtu < minCtrlMTU {
		return nil, nil, fmt.Errorf("reliability: MTU %d B is below the %d B minimum a control message needs", mtu, minCtrlMTU)
	}
	side := func(s *core.Endpoint) *Endpoint {
		e := &Endpoint{QP: s.QP, CP: newControlPlane(s)}
		e.lateFn = e.handleLate
		return e
	}
	return side(pair.A), side(pair.B), nil
}

// NewSessionOver starts a session on pair with its endpoints a and b
// (from NewEndpoints): the control planes attach to the directions of
// the link the pair is currently bound to and to each other, and both
// endpoints are rebound to relCfg, so each session starts with an empty
// re-ACK ring, zero counters and no abort, fault or telemetry state,
// whatever the previous one left.
func NewSessionOver(pair *core.Pair, a, b *Endpoint, relCfg Config) *Session {
	a.CP.attach(pair.Link.AB, b.CP)
	b.CP.attach(pair.Link.BA, a.CP)
	a.rebind(relCfg)
	b.rebind(relCfg)
	return &Session{Pair: pair, A: a, B: b}
}

// SetPooled makes the session a lease of a pooled deployment: Close
// runs release and Quarantine runs quarantine instead of tearing the
// deployment down. The session fabric sets them so a leased session's
// Close transparently resets the deployment and returns it to the free
// list, and its Quarantine retires it from circulation.
func (s *Session) SetPooled(release, quarantine func()) {
	s.release, s.quarantine = release, quarantine
}

// Abort cancels both endpoints: whichever operations are blocked (on
// either side) unwind and return ErrAborted wrapping cause. The
// session must still be Closed (or Quarantined) afterwards.
func (s *Session) Abort(cause error) {
	s.A.Abort(cause)
	s.B.Abort(cause)
}

// Quarantine retires the session without trusting its state: the
// pooled deployment is quarantined (not re-leased) — or, unpooled, the
// deployment is torn down. Idempotent, and mutually exclusive with
// Close: whichever runs first wins.
func (s *Session) Quarantine() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
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
// nameB become their track names (see Endpoint.setTelemetry). Pass a
// nil recorder to detach — pooled deployments do this implicitly on
// the next lease, since endpoints are rebound per Bind.
func (s *Session) SetTelemetry(rec *telemetry.Recorder, nameA, nameB string) {
	s.A.setTelemetry(rec, nameA)
	s.B.setTelemetry(rec, nameB)
}

// Close either releases the session's pooled deployment or tears the
// deployment down. Idempotent: a second Close — e.g. an abort path
// racing a deferred Close — is a no-op rather than a double release.
func (s *Session) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	if s.release != nil {
		s.release()
		return
	}
	s.teardown()
}
