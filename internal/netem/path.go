package netem

import (
	"slices"
	"sync/atomic"
	"time"

	"sdrrdma/internal/fabric"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/telemetry"
)

// path is a re-routable delivery chain between two datacenters: the
// indirection NewFlow injects in front of its port chains so an
// in-flight transfer survives a link flap. Packets entering the path
// traverse whatever route the last reroute computed; when an edge goes
// down, ReroutePaths atomically re-points the head at a fresh chain
// around the failure. Packets already inside the old chain's queues
// keep draining toward the same terminal destination — they arrive
// late or duplicated and are absorbed by the NULL-retired slots and
// re-ACK machinery, the same discipline stale-lease traffic follows —
// or die in the downed queue itself, which fails closed.
type path struct {
	t        *Topology
	from, to int
	dst      nicsim.Deliverer

	// head is the current route's entry Deliverer; a head wrapping nil
	// means no route exists (the path blackholes until an edge returns).
	head atomic.Pointer[pathHead]
	// hops pins the route the head was built from, so a reroute that
	// resolves to the identical route does not disturb the chain. reg is
	// 1 + the path's index in the topology's registry (0 while
	// unregistered). Both are accessed only under the topology's pathMu.
	hops []hop
	reg  int

	// Blackholed counts packets dropped because no route existed;
	// Reroutes counts head re-pointings after the initial build.
	Blackholed telemetry.Counter
	Reroutes   telemetry.Counter
}

type pathHead struct{ d nicsim.Deliverer }

// newPath builds a re-routable path from→to terminating at dst and
// registers it for ReroutePaths. A route must exist at creation time.
func (t *Topology) newPath(from, to int, dst nicsim.Deliverer) (*path, error) {
	hops, err := t.route(from, to)
	if err != nil {
		return nil, err
	}
	p := &path{t: t}
	t.addPath(p, from, to, dst, hops)
	return p, nil
}

// NewLink wires a transport that is not a pooled flow (the RC
// baseline) between two datacenters the way NewFlow wires its
// deployments: a re-routable path per direction, AB ending at devB and
// BA at devA, each behind an accounting-only fabric direction so
// injected packets are countable. It also returns the route's
// propagation RTT.
func (t *Topology) NewLink(from, to int, devA, devB nicsim.Deliverer) (*fabric.Link, time.Duration, error) {
	route, err := t.route(from, to)
	if err != nil {
		return nil, 0, err
	}
	pAB, err := t.newPath(from, to, devB)
	if err != nil {
		return nil, 0, err
	}
	pBA, err := t.newPath(to, from, devA)
	if err != nil {
		return nil, 0, err
	}
	cfg := fabric.Config{Clock: t.clk}
	link := &fabric.Link{AB: fabric.NewDirectionTo(pAB, cfg), BA: fabric.NewDirectionTo(pBA, cfg)}
	return link, 2 * pathDelay(route), nil
}

// addPath points p — a fresh path, or a retired one of a closed flow —
// at the route hops from→to ending at dst, with zero counters, and
// registers it. A path re-pointed along the route and to the
// destination it last served keeps its port chain: flow churn between
// one pair of datacenters on a pooled deployment builds nothing.
func (t *Topology) addPath(p *path, from, to int, dst nicsim.Deliverer, hops []hop) {
	t.pathMu.Lock()
	if p.dst != dst || !slices.Equal(hops, p.hops) {
		p.head.Store(&pathHead{d: chain(hops, dst)})
	}
	p.from, p.to, p.dst, p.hops = from, to, dst, hops
	p.Blackholed.Store(0)
	p.Reroutes.Store(0)
	t.paths = append(t.paths, p)
	p.reg = len(t.paths)
	t.linkFeeders(hops, 1)
	t.pathMu.Unlock()
}

// Send implements nicsim.Wire.
func (p *path) Send(pkt *nicsim.Packet) { p.Deliver(pkt) }

// Deliver implements nicsim.Deliverer: forward along the current
// route, or blackhole when none exists.
func (p *path) Deliver(pkt *nicsim.Packet) {
	h := p.head.Load()
	if h == nil || h.d == nil {
		p.Blackholed.Add(1)
		nicsim.ReleasePacket(pkt)
		return
	}
	h.d.Deliver(pkt)
}

// reroute recomputes the path's route and re-points the head if it
// changed. Caller holds t.pathMu.
func (p *path) reroute() {
	hops, err := p.t.route(p.from, p.to)
	if err != nil {
		if p.hops == nil {
			return // already blackholed
		}
		p.t.linkFeeders(p.hops, -1)
		p.hops = nil
		p.head.Store(&pathHead{})
		p.Reroutes.Add(1)
		p.t.probeDyn(telemetry.EvReroute, 0, int64(p.from))
		return
	}
	if slices.Equal(hops, p.hops) { // the same edges in the same directions
		return
	}
	p.t.linkFeeders(hops, 1)
	p.t.linkFeeders(p.hops, -1)
	p.hops = hops
	p.head.Store(&pathHead{d: chain(hops, p.dst)})
	p.Reroutes.Add(1)
	p.t.probeDyn(telemetry.EvReroute, 1, int64(p.from))
}

// ReroutePaths recomputes every registered path against current edge
// state — call it after SetDown (or any reachability-changing edit) so
// in-flight flows re-point around the change. Paths whose route is
// unchanged are left untouched.
func (t *Topology) ReroutePaths() {
	t.pathMu.Lock()
	for _, p := range t.paths {
		p.reroute()
	}
	t.pathMu.Unlock()
}

// removePaths unregisters paths when their flow closes: the last
// registered path takes the freed registry slot.
func (t *Topology) removePaths(paths ...*path) {
	t.pathMu.Lock()
	for _, p := range paths {
		if p.reg == 0 {
			continue
		}
		last := len(t.paths) - 1
		moved := t.paths[last]
		t.paths[p.reg-1], moved.reg = moved, p.reg
		t.paths[last] = nil
		t.paths = t.paths[:last]
		p.reg = 0
		t.linkFeeders(p.hops, -1)
	}
	t.pathMu.Unlock()
}

// PathReroutes sums head re-pointings across the registered paths —
// how many times live flows were steered around edge-state changes.
// Paths retire their counts when their flow closes, so read it while
// the flows of interest are still open.
func (t *Topology) PathReroutes() uint64 {
	t.pathMu.Lock()
	defer t.pathMu.Unlock()
	var n uint64
	for _, p := range t.paths {
		n += p.Reroutes.Load()
	}
	return n
}

var _ nicsim.Wire = (*path)(nil)
var _ nicsim.Deliverer = (*path)(nil)
