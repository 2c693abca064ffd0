// Package netem is the multi-datacenter network emulator of the
// functional stack: clocked finite-buffer queues that serialize
// packets at line rate and tail-drop on overflow (§2.1's ISP
// behaviour), pluggable loss processes unifying the fabric's i.i.d.
// drops with internal/wan's Gilbert–Elliott burst channel, and a
// topology builder that wires N simulated datacenters into named
// graphs — ring, tree, dumbbell with a shared bottleneck, or any graph
// AddEdge draws — with per-edge distance/bandwidth/buffer/loss
// parameters.
//
// Where internal/fabric models a single impaired point-to-point wire
// (uplink serialization, i.i.d. loss), netem models the path: every
// hop is a store-and-forward queue on a clock.Clock, multiple flows
// can share one queue's finite buffer (the multi-tenant contention
// that differentiates reliability schemes), and loss processes advance
// in wire-serialization order, so bursty channels produce the
// correlated drop clusters the SDR bitmap is designed to mask
// (§3.1.1). On a clock.Virtual the whole emulation is a deterministic
// discrete-event simulation; on the real clock it runs against the
// wall exactly like the fabric does, handing each queue's packets on
// in the order it admitted them. Each hop costs a flow packet at most
// one clock event, its delivery, scheduled when the queue admits it;
// the departure is settled in place, and a background packet costs
// none. On a Topology path on the virtual clock a run of hops whose
// queues each have one feeder costs one event in all: each hop admits
// the packet into the next queue ahead, at its computed arrival
// (cutthrough.go).
//
// Edges are dynamic: queues support ECN/RED-style congestion marking
// (MarkThresholdBytes), and every edge's loss process and distance can
// be re-pointed mid-run (SetLoss, SetDistance) or driven by a
// declarative Schedule — timed loss changes, link flaps that fail the
// queue closed and reroute every registered Path over the surviving
// edges, and LEO-style distance drift — all executed behind the
// virtual clock so fault programs are exactly reproducible. An edge's
// line rate is fixed when it is built.
package netem

import (
	"fmt"

	"sdrrdma/internal/wan"
)

// LossSpec is the declarative form topology configs use: a stationary
// loss rate plus an optional mean burst length. It exists so scenario
// tables stay plain data — Build turns one spec into a fresh
// wan.LossModel per queue direction. Models are stateful (burst
// channels carry their Markov state) and are driven under the owning
// queue's lock, in wire-serialization order, so one instance must never
// be shared between queues.
type LossSpec struct {
	// P is the stationary packet loss rate. Zero means lossless (the
	// queue still tail-drops on buffer overflow).
	P float64
	// BurstLen, when > 1, selects a Gilbert–Elliott channel with this
	// mean burst length in packets; 0 or 1 selects i.i.d. loss.
	BurstLen float64
}

// validate reports specification errors without building anything.
func (s LossSpec) validate() error {
	if s.P == 0 && s.BurstLen == 0 {
		return nil // lossless
	}
	if s.BurstLen > 1 {
		return wan.ValidateGilbertElliott(s.P, s.BurstLen)
	}
	if !(s.P >= 0 && s.P < 1) { // NaN fails both
		return fmt.Errorf("netem: loss rate %g outside [0,1)", s.P)
	}
	if !(s.BurstLen >= 0) {
		return fmt.Errorf("netem: burst length %g < 0", s.BurstLen)
	}
	return nil
}

// build returns a fresh loss model for one queue direction, or nil
// for a lossless spec.
func (s LossSpec) build() (wan.LossModel, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	switch {
	case s.P == 0:
		return nil, nil
	case s.BurstLen > 1:
		return wan.NewGilbertElliott(s.P, s.BurstLen)
	default:
		return wan.IIDLoss{P: s.P}, nil
	}
}
