package netem

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/nicsim"
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
	// deterministic per seed on the virtual clock. The source is seeded
	// on the first Poisson gap; a CBR generator never builds one.
	Seed int64
	// Clock is the queue's clock, on whose timeline the arrivals fall
	// (nil = the queue's clock; any other clock is an error).
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
// drop hook or a Deliverer.
//
// Nor is it a clock event. A running generator is an arrival schedule
// — each arrival one gap (drawn from the generator's own RNG) after the
// last — that the queue settles whenever something reads or changes it
// (see Queue), so a background packet costs no engine event and no
// allocation, on either clock, and its arrivals keep the configured
// rate however late a real clock's timers fire. The queue's lock
// guards the schedule.
type TrafficGen struct {
	cfg  TrafficConfig
	q    *Queue
	size int // wire bytes of one packet
	// rng draws the Poisson gaps, nil until the first (see seeded).
	rng  *rand.Rand
	mean time.Duration // mean inter-arrival gap

	// next is the instant of the next arrival while running, order its
	// number on the queue's order counter (see Queue.settle).
	next  int64
	order uint64
	sent  uint64
}

// NewTrafficGen builds a generator feeding port's queue; the port's
// destination is never called. Start begins emission; the first packet
// arrives one inter-arrival gap after Start, not immediately. A load
// whose mean gap is under a nanosecond is refused: the gap would
// truncate to zero, and the queue would replay arrivals at one instant
// forever.
func NewTrafficGen(cfg TrafficConfig, port *Port) (*TrafficGen, error) {
	if !finite(cfg.Bps) || cfg.Bps <= 0 {
		return nil, fmt.Errorf("netem: traffic Bps must be finite and positive, got %v", cfg.Bps)
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
	if cfg.Clock != nil && cfg.Clock != port.q.clk {
		return nil, fmt.Errorf("netem: traffic generator clock is not its queue's")
	}
	size := cfg.PacketBytes + nicsim.HeaderBytes
	// A configuration boundary: the offered load becomes a time.
	mean := time.Duration(float64(size) * 8 / cfg.Bps * float64(time.Second))
	if mean < time.Nanosecond {
		return nil, fmt.Errorf("netem: traffic Bps %v puts %d-byte packets under 1 ns apart", cfg.Bps, size)
	}
	return &TrafficGen{cfg: cfg, q: port.q, size: size, mean: mean}, nil
}

// Start begins emission: the first arrival falls one gap after now.
// Starting a running generator does nothing.
func (g *TrafficGen) Start() {
	q := g.q
	q.lock()
	defer q.unlock()
	now := q.clk.NowNanos()
	q.settle(now, 0)
	if slices.Contains(q.gens, g) {
		return
	}
	q.unfuse()
	g.next, g.order = now+int64(g.gap()), q.stamp()
	q.gens = append(q.gens, g)
}

// Stop halts emission; arrivals up to now are settled first. Safe to
// call more than once. Packets already in the queue stay there and
// depart or drop as usual: counted and probed, never handed to the
// queue's drop hook. When the newest entry is a background one, Stop
// leaves one clock event at its finish instant, so the residue is
// counted if the clock runs on.
func (g *TrafficGen) Stop() {
	q := g.q
	q.lock()
	q.catchUp()
	if i := slices.Index(q.gens, g); i >= 0 {
		q.gens = slices.Delete(q.gens, i, i+1)
	}
	residue := q.fifo.n > 0 && q.fifo.at(q.fifo.n-1).tr == nil
	var last int64
	if residue {
		last = q.fifo.at(q.fifo.n - 1).fin
	}
	q.unlock()
	if residue {
		q.clk.At(last, q.settleFn)
	}
}

// Sent settles the queue and returns the number of packets emitted so
// far.
func (g *TrafficGen) Sent() uint64 {
	q := g.q
	q.lock()
	defer q.unlock()
	q.catchUp()
	return g.sent
}

// before reports whether g's next arrival (see Queue.settle) comes
// before the event (at, order).
func (g *TrafficGen) before(at int64, order uint64) bool {
	return g.next < at || (g.next == at && g.order < order)
}

// gap draws the next inter-arrival gap.
func (g *TrafficGen) gap() time.Duration {
	if !g.cfg.Poisson {
		return g.mean
	}
	return time.Duration(seeded(&g.rng, g.cfg.Seed).ExpFloat64() * float64(g.mean))
}
