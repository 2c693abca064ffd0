package netem

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/telemetry"
)

// TrafficConfig shapes one background traffic source.
type TrafficConfig struct {
	// Bps is the offered load in wire bits per second (payload plus
	// the emulated transport header, matching the queue's own
	// serialization accounting).
	Bps float64
	// PacketBytes is the payload size of each generated packet
	// (default 1024).
	PacketBytes int
	// Poisson selects exponentially distributed inter-arrival gaps
	// (mean matching Bps); false emits a constant bit rate.
	Poisson bool
	// Seed feeds the arrival-process RNG, so a contended scenario is
	// deterministic per seed on the virtual clock.
	Seed int64
	// Clock drives the emission timers (nil = shared real clock).
	Clock clock.Clock
}

// TrafficGen is a background cross-traffic source: an open-loop
// Poisson or CBR packet process feeding a netem Queue, so foreground
// flows contend with it for the same finite buffer and serialization
// budget. It models the "other tenants" of a shared bottleneck without
// the cost of full protocol endpoints.
//
// The generator is open-loop by design: it never backs off, so tail
// drops under overload land on whoever loses the buffer race, exactly
// like unmanaged datacenter cross-traffic. A background packet is only
// queue occupancy: it is admitted as size wire bytes with no envelope
// and no destination, draws from the queue's loss process and counts
// in every queue counter and telemetry probe like a flow packet, and
// ends at the queue — counted delivered or dropped, never handed to a
// drop hook or a Deliverer. So it costs two clock events (emission and
// departure) and no allocation.
type TrafficGen struct {
	cfg  TrafficConfig
	clk  clock.Clock
	q    *Queue
	size int // wire bytes of one packet
	rng  *rand.Rand
	mean time.Duration // mean inter-arrival gap

	timer   clock.Timer
	stopped atomic.Bool
	sent    telemetry.Counter
}

// NewTrafficGen builds a generator feeding port's queue; the port's
// destination is never called. Start begins emission; the first packet
// arrives one inter-arrival gap after Start, not immediately.
func NewTrafficGen(cfg TrafficConfig, port *Port) (*TrafficGen, error) {
	if cfg.Bps <= 0 {
		return nil, fmt.Errorf("netem: traffic Bps must be positive, got %v", cfg.Bps)
	}
	if cfg.PacketBytes == 0 {
		cfg.PacketBytes = 1024
	}
	if cfg.PacketBytes < 0 {
		return nil, fmt.Errorf("netem: traffic PacketBytes must be positive, got %d", cfg.PacketBytes)
	}
	if port == nil {
		return nil, fmt.Errorf("netem: traffic generator needs a queue port")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Realtime()
	}
	size := cfg.PacketBytes + nicsim.HeaderBytes
	return &TrafficGen{
		cfg:  cfg,
		clk:  clk,
		q:    port.q,
		size: size,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		mean: time.Duration(float64(size) * 8 / cfg.Bps * float64(time.Second)),
	}, nil
}

// Start schedules the first emission. Under a virtual clock the
// timer chain runs as engine events: emissions interleave
// deterministically with foreground traffic, and pending emissions
// are simply discarded when the simulation's actors finish.
func (g *TrafficGen) Start() {
	g.timer = g.clk.AfterFunc(g.gap(), g.tick)
}

// Stop halts emission. Safe to call more than once; a tick already
// in flight may still admit one final packet. Packets already in the
// queue stay there and depart or drop as usual: counted and probed,
// never handed to the queue's drop hook.
func (g *TrafficGen) Stop() {
	g.stopped.Store(true)
	if g.timer != nil {
		g.timer.Stop()
	}
}

// Sent returns the number of packets emitted so far.
func (g *TrafficGen) Sent() uint64 { return g.sent.Load() }

func (g *TrafficGen) gap() time.Duration {
	if !g.cfg.Poisson {
		return g.mean
	}
	return time.Duration(g.rng.ExpFloat64() * float64(g.mean))
}

// tick runs as a clock callback (on a timer goroutine under a real
// clock, on the driving actor's goroutine under a virtual one), admits
// one background packet and schedules the next.
func (g *TrafficGen) tick() {
	if g.stopped.Load() {
		return
	}
	g.sent.Add(1)
	g.q.admit(nil, nil, g.size)
	if g.stopped.Load() {
		return
	}
	g.timer.Reset(g.gap())
}
