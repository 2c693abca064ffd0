package netem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/session"
	"sdrrdma/internal/telemetry"
	"sdrrdma/internal/wan"
)

// EdgeConfig parameterizes one bidirectional inter-datacenter link.
type EdgeConfig struct {
	// DistanceKm is the one-way cable distance; propagation delay is
	// derived with wan.PropagationSecPerKm, the paper's §2.1
	// calibration (3750 km ⇔ 25 ms RTT).
	DistanceKm float64
	// BandwidthBps is the per-direction line rate.
	BandwidthBps float64
	// BufferBytes bounds each direction's queue (tail-drop); 0 =
	// unbounded.
	BufferBytes int
	// MarkThresholdBytes enables ECN/RED-style marking per direction:
	// packets admitted at or past this occupancy carry the congestion-
	// experienced bit. Must be < BufferBytes when both are set. 0
	// disables marking.
	MarkThresholdBytes int
	// Loss is the per-direction wire loss process specification.
	Loss LossSpec
}

// delay returns the one-way propagation delay of the edge.
func (c EdgeConfig) delay() time.Duration {
	return time.Duration(c.DistanceKm * wan.PropagationSecPerKm * float64(time.Second))
}

// Edge is one built link of a topology: two independent queue
// directions sharing nothing but their endpoints. Every flow routed
// across the edge funnels through these queues, so finite buffers are
// contended between tenants.
//
// Edges are mutable after build: SetLoss/SetDistance (and a
// Schedule's bandwidth events) re-parameterize both directions (the
// dynamic-network fault layer schedules them at virtual times), and
// SetDown flaps the link, which fails both queues closed and makes
// route skip the edge.
type Edge struct {
	// From and To are the node indices the edge connects.
	From, To int
	// Cfg echoes the build parameters; mutated by the setters under mu.
	Cfg EdgeConfig
	// Fwd carries From→To traffic, Rev the reverse.
	Fwd, Rev *Queue

	mu   sync.Mutex  // guards Cfg mutation
	down atomic.Bool // administratively down (flap)
}

// SetLoss swaps both directions' wire loss processes for fresh ones
// built from spec. Each queue keeps its random stream, so a scheduled
// loss change stays deterministic per seed.
func (e *Edge) SetLoss(spec LossSpec) error {
	fwd, err := spec.build()
	if err != nil {
		return err
	}
	rev, err := spec.build()
	if err != nil {
		return err
	}
	e.Fwd.setLoss(fwd)
	e.Rev.setLoss(rev)
	e.mu.Lock()
	e.Cfg.Loss = spec
	e.mu.Unlock()
	return nil
}

// setBandwidth changes both directions' line rate.
func (e *Edge) setBandwidth(bps float64) error {
	if err := e.Fwd.setBandwidth(bps); err != nil {
		return err
	}
	if err := e.Rev.setBandwidth(bps); err != nil {
		return err
	}
	e.mu.Lock()
	e.Cfg.BandwidthBps = bps
	e.mu.Unlock()
	return nil
}

// SetDistance moves the edge to km cable kilometers: both directions'
// propagation delay is re-derived with the §2.1 calibration — the
// mechanism behind LEO-style RTT drift schedules.
func (e *Edge) SetDistance(km float64) error {
	if km < 0 {
		return fmt.Errorf("netem: edge distance %g km < 0", km)
	}
	d := EdgeConfig{DistanceKm: km}.delay()
	if err := e.Fwd.setLatency(d); err != nil {
		return err
	}
	if err := e.Rev.setLatency(d); err != nil {
		return err
	}
	e.mu.Lock()
	e.Cfg.DistanceKm = km
	e.mu.Unlock()
	return nil
}

// distanceKm returns the current cable distance.
func (e *Edge) distanceKm() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Cfg.DistanceKm
}

// SetDown flaps the edge: both queue directions fail closed and route
// stops considering the edge until it comes back up. Callers that hold
// live Paths should follow with Topology.ReroutePaths so in-flight
// transfers re-point around the failure.
func (e *Edge) SetDown(down bool) {
	e.down.Store(down)
	e.Fwd.setDown(down)
	e.Rev.setDown(down)
}

// hop is one step of a route: an edge plus the traversal direction.
type hop struct {
	Edge *Edge
	// Forward: traversing From→To (through Edge.Fwd).
	Forward bool
}

// queue returns the queue this hop transits.
func (h hop) queue() *Queue {
	if h.Forward {
		return h.Edge.Fwd
	}
	return h.Edge.Rev
}

// Topology is a named multi-datacenter graph on one clock. Build one
// with New + AddNode/AddEdge or with the shape constructors (Ring,
// Tree, Dumbbell), then wire reliable flows over it with
// NewFlow.
type Topology struct {
	// Name labels the scenario in experiment output.
	Name string

	clk   clock.Clock
	seed  int64
	nodes []string
	edges []*Edge
	// adj[n] lists (edge index) incident to node n, in insertion
	// order — which makes BFS routes deterministic.
	adj map[int][]int
	// routeVia and routeQueue are route's search scratch and routeLast
	// the last route it resolved per (from, to); guarded by routeMu.
	routeMu    sync.Mutex
	routeVia   []int
	routeQueue []int
	routeLast  map[[2]int][]hop

	// pools leases flow deployments, one pool per distinct SDR config:
	// a closed flow's devices, QPs and control planes are reset and
	// re-leased by the next NewFlow instead of rebuilt (see
	// internal/session). Lazily populated; guarded by poolMu.
	poolMu sync.Mutex
	pools  map[core.Config]*session.Pool

	// paths are the live re-routable delivery chains (see path);
	// ReroutePaths re-points them after edge state changes.
	pathMu sync.Mutex
	paths  []*path
	// wires holds, per pooled flow deployment, the paths its flows run
	// through (see flowWires). Guarded by pathMu.
	wires map[*session.Deployment]*flowWires

	// telMu guards the telemetry attachment. sink doubles as the
	// enable flag: nil means every probe in the topology is dark.
	telMu     sync.Mutex
	sink      telemetry.Sink
	dynTrack  int32
	poolTrack int32
}

// New starts an empty topology on clk (nil = shared real clock). seed
// derives every queue's loss-draw stream.
func New(name string, clk clock.Clock, seed int64) *Topology {
	return &Topology{Name: name, clk: clock.Or(clk), seed: seed, adj: map[int][]int{}}
}

// Clock returns the clock every queue and flow of this topology runs on.
func (t *Topology) Clock() clock.Clock { return t.clk }

// AddNode registers a datacenter and returns its index.
func (t *Topology) AddNode(name string) int {
	t.nodes = append(t.nodes, name)
	return len(t.nodes) - 1
}

// Edges returns the built edges (shared, do not mutate).
func (t *Topology) Edges() []*Edge { return t.edges }

// AddEdge builds the two queue directions of a link between existing
// nodes and registers it. Each direction gets a fresh loss process and
// a distinct seed, so the two loss streams differ.
func (t *Topology) AddEdge(from, to int, cfg EdgeConfig) (*Edge, error) {
	if from < 0 || from >= len(t.nodes) || to < 0 || to >= len(t.nodes) {
		return nil, fmt.Errorf("netem: edge %d–%d outside %d nodes", from, to, len(t.nodes))
	}
	if from == to {
		return nil, fmt.Errorf("netem: self-edge on node %d", from)
	}
	idx := len(t.edges)
	build := func(dirSeed int64) (*Queue, error) {
		loss, err := cfg.Loss.build()
		if err != nil {
			return nil, fmt.Errorf("netem: edge %s–%s: %w", t.nodes[from], t.nodes[to], err)
		}
		return NewQueue(QueueConfig{
			BandwidthBps:       cfg.BandwidthBps,
			BufferBytes:        cfg.BufferBytes,
			MarkThresholdBytes: cfg.MarkThresholdBytes,
			Latency:            cfg.delay(),
			Loss:               loss,
			Seed:               dirSeed,
			Clock:              t.clk,
		})
	}
	fwd, err := build(t.seed + int64(idx)*7919)
	if err != nil {
		return nil, err
	}
	rev, err := build(t.seed + int64(idx)*7919 + 3967)
	if err != nil {
		return nil, err
	}
	e := &Edge{From: from, To: to, Cfg: cfg, Fwd: fwd, Rev: rev}
	t.edges = append(t.edges, e)
	t.adj[from] = append(t.adj[from], idx)
	t.adj[to] = append(t.adj[to], idx)
	return e, nil
}

// route returns a shortest hop sequence from→to (BFS over hop count;
// ties broken by edge insertion order, so routes are deterministic).
// The search runs on scratch the topology keeps, and a route that comes
// out as it did the last time from→to was resolved is returned as that
// same slice, so resolving a stable route allocates nothing. The result
// is therefore shared with other callers: do not modify it.
func (t *Topology) route(from, to int) ([]hop, error) {
	if from == to {
		return nil, fmt.Errorf("netem: route from node %d to itself", from)
	}
	if from < 0 || from >= len(t.nodes) || to < 0 || to >= len(t.nodes) {
		return nil, fmt.Errorf("netem: route %d→%d outside %d nodes", from, to, len(t.nodes))
	}
	t.routeMu.Lock()
	defer t.routeMu.Unlock()
	// via[n] is 1 + the index of the edge n was first reached over (0 =
	// not reached); queue holds the reached nodes in discovery order.
	if cap(t.routeVia) < len(t.nodes) {
		t.routeVia = make([]int, len(t.nodes))
	}
	via := t.routeVia[:len(t.nodes)]
	clear(via)
	via[from] = -1
	queue := append(t.routeQueue[:0], from)
	for head := 0; head < len(queue) && via[to] == 0; head++ {
		n := queue[head]
		for _, ei := range t.adj[n] {
			e := t.edges[ei]
			if e.down.Load() {
				continue // flapped link: route around it
			}
			if peer := e.From + e.To - n; via[peer] == 0 {
				via[peer] = ei + 1
				queue = append(queue, peer)
			}
		}
	}
	t.routeQueue = queue
	if via[to] == 0 {
		return nil, fmt.Errorf("netem: no route %s→%s", t.nodes[from], t.nodes[to])
	}
	last := t.routeLast[[2]int{from, to}]
	depth, same := 0, true
	for n := to; n != from; depth++ {
		e := t.edges[via[n]-1]
		n = e.From + e.To - n
		if i := len(last) - 1 - depth; same && (i < 0 || last[i] != hop{Edge: e, Forward: e.From == n}) {
			same = false
		}
	}
	if same && depth == len(last) {
		return last, nil
	}
	hops := make([]hop, depth)
	for n, i := to, depth-1; n != from; i-- {
		e := t.edges[via[n]-1]
		prev := e.From + e.To - n
		hops[i] = hop{Edge: e, Forward: e.From == prev}
		n = prev
	}
	if t.routeLast == nil {
		t.routeLast = map[[2]int][]hop{}
	}
	t.routeLast[[2]int{from, to}] = hops
	return hops, nil
}

// pathDelay returns the one-way propagation delay along hops
// (excluding serialization and queueing).
func pathDelay(hops []hop) time.Duration {
	var d time.Duration
	for _, h := range hops {
		d += h.Edge.Cfg.delay()
	}
	return d
}

// settle brings every queue's background traffic up to now, so the
// counters the sums below read are exact (see Queue).
func (t *Topology) settle() {
	for _, e := range t.edges {
		e.Fwd.settleRead()
		e.Rev.settleRead()
	}
}

// TailDrops sums buffer-overflow drops across every queue.
func (t *Topology) TailDrops() uint64 {
	t.settle()
	var n uint64
	for _, e := range t.edges {
		n += e.Fwd.TailDrops.Load() + e.Rev.TailDrops.Load()
	}
	return n
}

// ChannelDrops sums wire loss-process drops across every queue.
func (t *Topology) ChannelDrops() uint64 {
	t.settle()
	var n uint64
	for _, e := range t.edges {
		n += e.Fwd.ChannelDrops.Load() + e.Rev.ChannelDrops.Load()
	}
	return n
}

// LinkDownDrops sums flap-failure drops across every queue.
func (t *Topology) LinkDownDrops() uint64 {
	t.settle()
	var n uint64
	for _, e := range t.edges {
		n += e.Fwd.LinkDownDrops.Load() + e.Rev.LinkDownDrops.Load()
	}
	return n
}

// MarkedPackets sums ECN-marked departures across every queue.
func (t *Topology) MarkedPackets() uint64 {
	t.settle()
	var n uint64
	for _, e := range t.edges {
		n += e.Fwd.Marked.Load() + e.Rev.Marked.Load()
	}
	return n
}

// SetTelemetry attaches rec to the topology. Every queue direction gets
// its own track — named "<from>><to>/fwd" / "/rev" from the node names
// — carrying its drop/mark instants plus a folded queue-depth counter
// series, and its packet counters register on rec so figure code and
// the trace summary read one source of truth. Link flaps and path
// reroutes land on a shared "dynamics" track; flow deployment pools
// (existing and lazily built later) report build/lease churn on a
// "pool" track. Call it after the edges are built and before traffic
// runs; pass nil to detach.
func (t *Topology) SetTelemetry(rec *telemetry.Recorder) {
	if rec == nil {
		t.telMu.Lock()
		t.sink = nil
		t.telMu.Unlock()
		for _, e := range t.edges {
			e.Fwd.setTelemetry(nil, 0)
			e.Rev.setTelemetry(nil, 0)
		}
		t.poolMu.Lock()
		for _, p := range t.pools {
			p.SetTelemetry(nil, 0)
		}
		t.poolMu.Unlock()
		return
	}
	dyn := rec.Track("dynamics")
	poolTrack := rec.Track("pool")
	t.telMu.Lock()
	t.sink, t.dynTrack, t.poolTrack = rec, dyn, poolTrack
	t.telMu.Unlock()
	for _, e := range t.edges {
		name := t.nodes[e.From] + ">" + t.nodes[e.To]
		for _, dir := range [2]struct {
			q      *Queue
			suffix string
		}{{e.Fwd, "/fwd"}, {e.Rev, "/rev"}} {
			track := rec.Track(name + dir.suffix)
			rec.FoldQueueDepth(track, name+dir.suffix+" qdepth")
			dir.q.setTelemetry(rec, track)
			rec.RegisterCounter(name+dir.suffix+" enqueued", &dir.q.Enqueued)
			rec.RegisterCounter(name+dir.suffix+" delivered", &dir.q.Delivered)
			rec.RegisterCounter(name+dir.suffix+" taildrops", &dir.q.TailDrops)
			rec.RegisterCounter(name+dir.suffix+" channeldrops", &dir.q.ChannelDrops)
			rec.RegisterCounter(name+dir.suffix+" linkdowndrops", &dir.q.LinkDownDrops)
			rec.RegisterCounter(name+dir.suffix+" marked", &dir.q.Marked)
		}
	}
	t.poolMu.Lock()
	for _, p := range t.pools {
		p.SetTelemetry(rec, poolTrack)
	}
	t.poolMu.Unlock()
}

// probeDyn records a dynamics-track event (flap, reroute) when a
// telemetry sink is attached. Called with or without pathMu held;
// telMu nests strictly inside it.
func (t *Topology) probeDyn(kind telemetry.EventKind, a0, a1 int64) {
	t.telMu.Lock()
	sink, track := t.sink, t.dynTrack
	t.telMu.Unlock()
	if sink == nil {
		return
	}
	sink.Event(clock.NowNanos(t.clk), kind, track, a0, a1, 0, 0)
}

// --- flows ----------------------------------------------------------------

// chain threads a delivery path through the hops' queues back to
// front, ending at dst: the returned Deliverer is the first hop's
// ingress port.
func chain(hops []hop, dst nicsim.Deliverer) nicsim.Deliverer {
	d := dst
	for i := len(hops) - 1; i >= 0; i-- {
		d = hops[i].queue().Port(d)
	}
	return d
}

// reverseHops returns the return path of a route: same edges, opposite
// order and direction.
func reverseHops(hops []hop) []hop {
	rev := make([]hop, len(hops))
	for i, h := range hops {
		rev[len(hops)-1-i] = hop{Edge: h.Edge, Forward: !h.Forward}
	}
	return rev
}

// flowPool returns (building on first use) the deployment pool for one
// SDR config. coreCfg must already carry the topology clock, so the
// map key ties the pool to this topology's run.
func (t *Topology) flowPool(coreCfg core.Config) (*session.Pool, error) {
	t.poolMu.Lock()
	defer t.poolMu.Unlock()
	if p, ok := t.pools[coreCfg]; ok {
		return p, nil
	}
	p, err := session.NewPool(session.Config{
		Core: coreCfg,
		Name: t.Name,
	})
	if err != nil {
		return nil, err
	}
	if t.pools == nil {
		t.pools = map[core.Config]*session.Pool{}
	}
	t.pools[coreCfg] = p
	t.telMu.Lock()
	sink, poolTrack := t.sink, t.poolTrack
	t.telMu.Unlock()
	if sink != nil {
		p.SetTelemetry(sink, poolTrack)
	}
	return p, nil
}

// PoolStats sums deployment-pool counters across the topology's flow
// pools: how many deployments were ever built and how many are leased
// to open flows right now. built staying flat while flows churn is the
// elastic-fabric property the thousand-flow tests pin.
func (t *Topology) PoolStats() (built, leased int) {
	t.poolMu.Lock()
	defer t.poolMu.Unlock()
	for _, p := range t.pools {
		b, l := p.Stats()
		built += b
		leased += l
	}
	return built, leased
}

// ClosePools tears down the topology's pooled flow deployments. It
// errors if any flow is still open (its session not closed) — the
// topology-level leak check.
func (t *Topology) ClosePools() error {
	t.poolMu.Lock()
	pools := t.pools
	t.pools = nil
	t.poolMu.Unlock()
	t.pathMu.Lock()
	t.wires = nil
	t.pathMu.Unlock()
	var firstErr error
	for _, p := range pools {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// NewFlow wires a full reliability deployment (SDR pair + control
// planes) between two datacenters: the data and control packets of
// both directions traverse every queue on the route, sharing buffers
// with any other flow crossing the same edges. coreCfg.Clock is
// overridden with the topology clock; relCfg.RTT, when zero, defaults
// to the route's propagation RTT.
//
// Everything a flow is made of is leased: the deployment from the
// topology's per-config pool, with the link and OOB envelopes it
// carries, and the two re-routable paths the topology keeps for it.
// Closing the returned session resets and returns all of it, so flow
// churn costs a rebind, not a rebuild.
func (t *Topology) NewFlow(from, to int, coreCfg core.Config, relCfg reliability.Config) (*reliability.Session, error) {
	fwd, err := t.route(from, to)
	if err != nil {
		return nil, err
	}
	rev, err := t.route(to, from)
	if err != nil {
		return nil, err
	}
	oneWay := pathDelay(fwd)
	coreCfg.Clock = t.clk
	if relCfg.RTT == 0 && oneWay > 0 {
		relCfg.RTT = 2 * oneWay
	}
	pool, err := t.flowPool(coreCfg)
	if err != nil {
		return nil, err
	}
	dep, err := pool.Acquire()
	if err != nil {
		return nil, err
	}
	// Each direction delivers through a re-routable Path rather than a
	// frozen port chain: when an edge flaps, ReroutePaths re-points the
	// flow around the failure mid-transfer. The deployment's fabric
	// Directions in front of them carry no impairments of their own —
	// latency, bandwidth, buffers and loss all live in the shared queues
	// — but keep the interceptor hooks and Tx accounting.
	w := t.wiresFor(dep)
	t.addPath(w.pAB, from, to, dep.DevB(), fwd)
	t.addPath(w.pBA, to, from, dep.DevA(), rev)
	sess, err := dep.Bind(relCfg, w.pAB, w.pBA, fabric.Config{}, fabric.Config{}, oneWay)
	if err != nil {
		w.releaseFn()
		return nil, err
	}
	sess.SetPooled(w.releaseFn, w.quarantineFn)
	return sess, nil
}

// flowWires is the topology's share of a pooled deployment: the two
// paths its flows are routed through and the close hooks of their
// sessions, built on the deployment's first flow and re-pointed by
// every later one. The paths stay with their deployment for life, so
// whatever still trickles through them after a flow closed — a late
// re-ACK of the previous lease — ends at that deployment's own devices,
// whose reset state absorbs it, never at another tenant's.
type flowWires struct {
	pAB, pBA *path
	// Closing the flow retires its paths from the reroute registry
	// before the deployment goes back to the pool; quarantining does
	// the same but retires the deployment from circulation entirely.
	releaseFn, quarantineFn func()
}

// wiresFor returns dep's wires, building them on its first flow.
func (t *Topology) wiresFor(dep *session.Deployment) *flowWires {
	t.pathMu.Lock()
	defer t.pathMu.Unlock()
	w := t.wires[dep]
	if w == nil {
		w = &flowWires{pAB: &path{t: t}, pBA: &path{t: t}}
		w.releaseFn = func() {
			t.removePaths(w.pAB, w.pBA)
			dep.Release()
		}
		w.quarantineFn = func() {
			t.removePaths(w.pAB, w.pBA)
			t.pathMu.Lock()
			delete(t.wires, dep)
			t.pathMu.Unlock()
			dep.Quarantine()
		}
		if t.wires == nil {
			t.wires = map[*session.Deployment]*flowWires{}
		}
		t.wires[dep] = w
	}
	return w
}

// --- shape constructors ---------------------------------------------------

// Ring builds n datacenters in a cycle: node i links to (i+1) mod n.
// n = 2 degenerates to a single edge.
func Ring(clk clock.Clock, n int, cfg EdgeConfig, seed int64) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("netem: ring needs >= 2 nodes, got %d", n)
	}
	t := New(fmt.Sprintf("ring-%d", n), clk, seed)
	for i := 0; i < n; i++ {
		t.AddNode(fmt.Sprintf("dc%d", i))
	}
	edges := n
	if n == 2 {
		edges = 1
	}
	for i := 0; i < edges; i++ {
		if _, err := t.AddEdge(i, (i+1)%n, cfg); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Tree builds n datacenters in a binary tree rooted at node 0 (node i
// links to its children 2i+1 and 2i+2).
func Tree(clk clock.Clock, n int, cfg EdgeConfig, seed int64) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("netem: tree needs >= 2 nodes, got %d", n)
	}
	t := New(fmt.Sprintf("tree-%d", n), clk, seed)
	for i := 0; i < n; i++ {
		t.AddNode(fmt.Sprintf("dc%d", i))
	}
	for i := 1; i < n; i++ {
		if _, err := t.AddEdge((i-1)/2, i, cfg); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// DumbbellTopo is a Dumbbell build plus its layout: `pairs` leaf
// datacenters on each side of one shared long-haul bottleneck — the
// canonical shape for multi-tenant tail-drop contention.
type DumbbellTopo struct {
	*Topology
	// Left and Right are the leaf node indices; flow i runs
	// Left[i]→Right[i].
	Left, Right []int
	// LeftAgg and RightAgg are the aggregation nodes.
	LeftAgg, RightAgg int
	// Bottleneck is the shared aggregation edge.
	Bottleneck *Edge
}

// Dumbbell builds `pairs` leaves per side around a shared bottleneck:
// every Left[i]→Right[i] flow crosses access edges of its own but
// contends for the single Bottleneck queue pair.
func Dumbbell(clk clock.Clock, pairs int, access, bottleneck EdgeConfig, seed int64) (*DumbbellTopo, error) {
	if pairs < 1 {
		return nil, fmt.Errorf("netem: dumbbell needs >= 1 leaf pair, got %d", pairs)
	}
	t := New(fmt.Sprintf("dumbbell-%d", pairs), clk, seed)
	d := &DumbbellTopo{Topology: t}
	d.LeftAgg = t.AddNode("aggL")
	d.RightAgg = t.AddNode("aggR")
	var err error
	if d.Bottleneck, err = t.AddEdge(d.LeftAgg, d.RightAgg, bottleneck); err != nil {
		return nil, err
	}
	for i := 0; i < pairs; i++ {
		l := t.AddNode(fmt.Sprintf("dcL%d", i))
		r := t.AddNode(fmt.Sprintf("dcR%d", i))
		if _, err := t.AddEdge(l, d.LeftAgg, access); err != nil {
			return nil, err
		}
		if _, err := t.AddEdge(d.RightAgg, r, access); err != nil {
			return nil, err
		}
		d.Left = append(d.Left, l)
		d.Right = append(d.Right, r)
	}
	return d, nil
}
