package reliability

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sdrrdma/internal/core"
	"sdrrdma/internal/telemetry"
)

// Typed terminal errors — the failure-semantics contract the chaos
// harness asserts against. Every reliability operation that does not
// complete returns an error matching (errors.Is) exactly one of these
// three, with the concrete cause attached to the chain:
//
//   - ErrTimeout: the operation exceeded a deadline (GlobalTimeout, or
//     a bounded sub-wait). The transfer may be partially delivered;
//     the QP is reusable after Reset.
//   - ErrAborted: the operation was cancelled via Session.Abort /
//     Endpoint.Abort — a deliberate local decision (deployment kill,
//     crash-restart injection), not a network symptom.
//   - ErrPeerDead: the peer never answered the order-based matching
//     handshake — it crashed, or the control plane is partitioned.
var (
	ErrTimeout  = errors.New("reliability: timeout")
	ErrAborted  = errors.New("reliability: aborted")
	ErrPeerDead = errors.New("reliability: peer unresponsive")
)

// Abort cancels the endpoint: the blocked (or next) operation unwinds
// and returns ErrAborted wrapping cause. The first cause sticks until
// the deployment is re-leased (QP.Reset and Endpoint.rebind clear it);
// later calls are no-ops. Safe from any goroutine, including clock
// timer callbacks — it never blocks.
func (e *Endpoint) Abort(cause error) {
	if cause == nil {
		cause = ErrAborted
	}
	if e.aborted.CompareAndSwap(nil, &cause) {
		e.probe(telemetry.EvAbort, 0, 0, 0, 0)
		e.QP.Abort(cause)
	}
}

// abortErr returns the typed abort error for a cancelled endpoint, or
// nil. Protocol loops call it once per wake so an abort unwinds within
// one poll interval even when no packet ever arrives.
func (e *Endpoint) abortErr() error {
	p := e.aborted.Load()
	if p == nil {
		return nil
	}
	cause := *p
	if cause == ErrAborted {
		return ErrAborted
	}
	return fmt.Errorf("%w: %w", ErrAborted, cause)
}

// startErr maps a stream-start failure onto the typed taxonomy:
// an aborted QP is a local cancellation, a CTS timeout means the peer
// is dead or unreachable. Other causes (size mismatch, not connected)
// pass through untyped — they are caller bugs, not failures the chaos
// contract covers.
func startErr(op string, err error) error {
	switch {
	case errors.Is(err, core.ErrQPAborted):
		return fmt.Errorf("%w: %s: %w", ErrAborted, op, err)
	case errors.Is(err, core.ErrCTSTimeout):
		return fmt.Errorf("%w: %s: %w", ErrPeerDead, op, err)
	}
	return fmt.Errorf("reliability: %s: %w", op, err)
}

// aborted is stored on the Endpoint (endpoint.go) — alias here for doc
// proximity: the pointer holds the first Abort cause.
type abortState = atomic.Pointer[error]

// maxBackoffShift caps the exponential RTO backoff at base<<5 = 32x.
const maxBackoffShift = 5

// retryRTO returns the retransmission timeout for a chunk's next
// attempt: the first retry fires at exactly base (the calibrated RTO —
// unchanged from the fixed-interval behaviour), then doubles per
// attempt up to 32x, plus a deterministic jitter of up to base/4
// derived from (key, attempt) so synchronized loss across many chunks
// does not re-synchronize into retransmission storms. Pure function of
// its inputs — byte-deterministic across runs and worker counts.
func retryRTO(base time.Duration, attempt uint8, key uint64) time.Duration {
	if attempt == 0 {
		return base
	}
	shift := attempt
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	backoff := base << shift
	// SplitMix64 finalizer over (key, attempt): cheap, stateless, and
	// uniform enough to decorrelate retry instants.
	x := key*0x9e3779b97f4a7c15 + uint64(attempt)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	jitter := time.Duration(x % uint64(base/4+1))
	return backoff + jitter
}
