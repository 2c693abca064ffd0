package netem

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"sdrrdma/internal/telemetry"
)

// Event is one scheduled loss change: at virtual time At (relative to
// Apply), the named edge's wire loss process becomes Loss in both
// directions.
type Event struct {
	// At is the application instant, relative to Schedule.Apply.
	At time.Duration
	// Edge indexes Topology.Edges().
	Edge int
	// Loss is the edge's new loss process; the zero LossSpec turns
	// loss off.
	Loss LossSpec
}

// Flap takes an edge down at Down and restores it at Up (both relative
// to Apply). While down the edge's queues fail closed and registered
// Paths are rerouted around it; at Up they are rerouted again.
type Flap struct {
	Edge     int
	Down, Up time.Duration
}

// Drift moves an edge at a constant rate — the LEO-style RTT drift of
// a ground station tracking a receding satellite. Starting at Start,
// the edge's distance is re-derived every Step for Duration:
//
//	distance(t) = base + RateKmPerSec·(t-Start)
//
// where base is the edge's distance when the schedule is applied.
type Drift struct {
	Edge            int
	Start, Duration time.Duration
	// RateKmPerSec is the recession rate (> 0: a schedule drifts an
	// edge away only; an approaching pass is Edge.SetDistance called
	// on the caller's own timers).
	RateKmPerSec float64
	// Step is the re-derivation cadence.
	Step time.Duration
}

// Schedule is the declarative fault program of a dynamic-network run:
// edge re-parameterizations, link flaps, and RTT drifts, all inside a
// run horizon. Validate rejects malformed programs before any timer is
// armed (mirroring wan.NewGilbertElliott's fail-fast stance);
// Apply arms everything on the topology's clock.
type Schedule struct {
	// Horizon bounds the program: every event, flap window, and drift
	// window must fall inside [0, Horizon].
	Horizon time.Duration
	Events  []Event
	Flaps   []Flap
	Drifts  []Drift
}

// finite reports a usable float: not NaN, not ±Inf.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// validate checks the schedule against t without mutating anything.
func (s Schedule) validate(t *Topology) error {
	if s.Horizon <= 0 {
		return fmt.Errorf("netem: schedule horizon %v <= 0", s.Horizon)
	}
	edges := len(t.Edges())
	checkEdge := func(kind string, i, e int) error {
		if e < 0 || e >= edges {
			return fmt.Errorf("netem: %s[%d] edge %d outside %d edges", kind, i, e, edges)
		}
		return nil
	}
	for i, ev := range s.Events {
		if err := checkEdge("event", i, ev.Edge); err != nil {
			return err
		}
		if ev.At < 0 || ev.At > s.Horizon {
			return fmt.Errorf("netem: event[%d] at %v outside horizon [0,%v]", i, ev.At, s.Horizon)
		}
		if err := ev.Loss.validate(); err != nil {
			return fmt.Errorf("netem: event[%d]: %w", i, err)
		}
	}
	for i, f := range s.Flaps {
		if err := checkEdge("flap", i, f.Edge); err != nil {
			return err
		}
		if f.Down < 0 || f.Up <= f.Down || f.Up > s.Horizon {
			return fmt.Errorf("netem: flap[%d] window [%v,%v] invalid within horizon %v",
				i, f.Down, f.Up, s.Horizon)
		}
	}
	for i, d := range s.Drifts {
		if err := checkEdge("drift", i, d.Edge); err != nil {
			return err
		}
		if !finite(d.RateKmPerSec) || d.RateKmPerSec <= 0 {
			return fmt.Errorf("netem: drift[%d] rate %g km/s invalid (must be finite and > 0)",
				i, d.RateKmPerSec)
		}
		if d.Start < 0 || d.Duration <= 0 || d.Start+d.Duration > s.Horizon {
			return fmt.Errorf("netem: drift[%d] window [%v,+%v] outside horizon [0,%v]",
				i, d.Start, d.Duration, s.Horizon)
		}
		if d.Step <= 0 || d.Step > d.Duration {
			return fmt.Errorf("netem: drift[%d] step %v invalid for duration %v", i, d.Step, d.Duration)
		}
	}
	return nil
}

// Apply validates s and arms every event, flap, and drift step on the
// topology's clock, relative to now. On a virtual clock the whole
// program fires at exact deterministic instants; real clocks get
// best-effort wall timing. Setter failures during the run (e.g. a loss
// spec that validated but whose build races a concurrent edit) are
// counted in the returned Applied's Errors — the scheduler cannot
// return them to a caller that moved on long ago.
func (s Schedule) Apply(t *Topology) (*Applied, error) {
	if err := s.validate(t); err != nil {
		return nil, err
	}
	clk := t.Clock()
	now := clk.NowNanos()
	ap := &Applied{}
	for _, ev := range s.Events {
		ev := ev
		e := t.Edges()[ev.Edge]
		clk.At(now+int64(ev.At), func() { ap.count(e.SetLoss(ev.Loss)) })
	}
	for _, f := range s.Flaps {
		f := f
		e := t.Edges()[f.Edge]
		clk.At(now+int64(f.Down), func() {
			e.SetDown(true)
			t.probeDyn(telemetry.EvLinkDown, int64(f.Edge), 0)
			t.ReroutePaths()
			ap.Flapped.Add(1)
		})
		clk.At(now+int64(f.Up), func() {
			e.SetDown(false)
			t.probeDyn(telemetry.EvLinkUp, int64(f.Edge), 0)
			t.ReroutePaths()
		})
	}
	for _, d := range s.Drifts {
		e := t.Edges()[d.Edge]
		base := e.distanceKm()
		steps := int(d.Duration / d.Step)
		for i := 1; i <= steps; i++ {
			dt := time.Duration(i) * d.Step
			// A configuration boundary: the drift rate becomes a distance.
			km := base + d.RateKmPerSec*dt.Seconds()
			clk.At(now+int64(d.Start+dt), func() {
				ap.count(e.SetDistance(km))
			})
		}
	}
	return ap, nil
}

// Applied tracks a running schedule's outcomes.
type Applied struct {
	// Fired counts setter applications that succeeded; Errors the ones
	// that failed; Flapped the down transitions taken.
	Fired   atomic.Uint64
	Errors  atomic.Uint64
	Flapped atomic.Uint64
}

func (a *Applied) count(err error) {
	if err != nil {
		a.Errors.Add(1)
		return
	}
	a.Fired.Add(1)
}
