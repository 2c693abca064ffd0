package collective

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/session"
)

// SessionDialer builds the reliable session for one ring link (node
// i → node (i+1) mod N). Injecting the dialer is what lets the same
// harness run over plain fabric links or a netem multi-datacenter
// topology with shared bottleneck queues.
type SessionDialer func(link int) (*reliability.Session, error)

// FunctionalRing is a ring of simulated datacenters connected by
// lossy long-haul links, running the real SDR + reliability stack —
// the functional counterpart of the Fig 13 model. Node i sends to
// node (i+1) mod N over its own reliable session.
//
// All sessions share one clock.Clock; on a clock.Virtual, Allreduce
// is a deterministic discrete-event simulation that finishes at CPU
// speed regardless of the configured WAN latencies.
type FunctionalRing struct {
	N        int
	clk      clock.Clock
	sessions []*reliability.Session
	// staging[i] is node i's receive segment buffer, on the receive
	// device of its inbound link (i-1 → i).
	staging []*nicsim.MR
	links   linkTransfers
	// pool, when the ring owns one (BuildFunctionalRing), leases the
	// per-link deployments; Close returns and tears them down.
	pool *session.Pool
}

// linkTransfers binds reliability protocols to a collective's sessions:
// one Transfer per session, made the first time a protocol is used and
// kept for every later call, so the parity scratch a coded protocol
// needs is registered once per link and an unknown protocol fails
// before any actor starts.
type linkTransfers struct {
	maxBytes int
	bound    map[string][]*reliability.Transfer
}

func (l *linkTransfers) bind(sessions []*reliability.Session, protocol string) ([]*reliability.Transfer, error) {
	if trs, ok := l.bound[protocol]; ok {
		return trs, nil
	}
	trs := make([]*reliability.Transfer, len(sessions))
	for i, s := range sessions {
		tr, err := s.NewTransfer(protocol, reliability.AdaptorConfig{}, l.maxBytes, 1)
		if err != nil {
			return nil, fmt.Errorf("collective: %w", err)
		}
		trs[i] = tr
	}
	if l.bound == nil {
		l.bound = map[string][]*reliability.Transfer{}
	}
	l.bound[protocol] = trs
	return trs, nil
}

// BuildFunctionalRing wires n datacenters with per-link fabric
// impairments. maxSegmentBytes bounds the per-stage message size
// (used to size the staging buffers). A nil coreCfg.Clock gets one
// shared real clock for the whole ring.
func BuildFunctionalRing(n int, coreCfg core.Config, relCfg reliability.Config,
	linkCfg fabric.Config, oobLatency time.Duration, maxSegmentBytes int) (*FunctionalRing, error) {
	if coreCfg.Clock == nil {
		coreCfg.Clock = clock.NewReal()
	}
	// Link deployments come from an elastic session pool the ring owns:
	// each link is a lease, so rebuilding a ring on the same pool-backed
	// harness (netem rings share their topology's pool the same way)
	// reuses deployments instead of reconstructing them.
	pool, err := session.NewPool(session.Config{Core: coreCfg, Name: "ring"})
	if err != nil {
		return nil, err
	}
	dial := func(link int) (*reliability.Session, error) {
		cfg := linkCfg
		cfg.Seed = linkCfg.Seed + int64(link)*7919
		return pool.LeaseLinked(relCfg, cfg, cfg, oobLatency)
	}
	r, err := BuildFunctionalRingWith(n, coreCfg.Clock, dial, maxSegmentBytes)
	if err != nil {
		pool.Close()
		return nil, err
	}
	r.pool = pool
	return r, nil
}

// BuildFunctionalRingWith assembles the ring from dialed sessions.
// Every session must already run on clk.
func BuildFunctionalRingWith(n int, clk clock.Clock, dial SessionDialer, maxSegmentBytes int) (*FunctionalRing, error) {
	if n < 2 {
		return nil, fmt.Errorf("collective: ring needs >=2 nodes, got %d", n)
	}
	r := &FunctionalRing{N: n, clk: clock.Or(clk), links: linkTransfers{maxBytes: maxSegmentBytes}}
	for i := 0; i < n; i++ {
		s, err := dial(i)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("collective: link %d: %w", i, err)
		}
		r.sessions = append(r.sessions, s)
	}
	for i := 0; i < n; i++ {
		inbound := r.sessions[(i-1+n)%n]
		r.staging = append(r.staging, inbound.Pair.B.Ctx.RegMR(make([]byte, maxSegmentBytes)))
	}
	return r, nil
}

// Close tears all links down (and, for a pool-owning ring, the pooled
// deployments behind them).
func (r *FunctionalRing) Close() {
	for _, s := range r.sessions {
		s.Close()
	}
	if r.pool != nil {
		r.pool.Close()
	}
}

// Sessions returns the ring's per-link sessions (link i connects node
// i to node (i+1) mod N) for stats inspection.
func (r *FunctionalRing) Sessions() []*reliability.Session { return r.sessions }

// gate is the collective's cross-actor synchronization primitive: a
// monotone counter posted by one actor and awaited by another, built
// on the clock's epoch-counted Notify so it blocks correctly on both
// backends. Plain channels would deadlock a clock.Virtual — an actor
// blocked on a channel is invisible to the scheduler, which then
// never hands the baton onward — so every inter-actor wait must go
// through the clock.
type gate struct {
	clk     clock.Clock
	mu      sync.Mutex
	n       int
	aborted bool
}

func (g *gate) post() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	g.clk.Notify()
}

func (g *gate) abort() {
	g.mu.Lock()
	g.aborted = true
	g.mu.Unlock()
	g.clk.Notify()
}

// wait blocks until the counter reaches target; it reports false when
// the posting side aborted instead.
func (g *gate) wait(target int) bool {
	for {
		epoch := g.clk.Epoch()
		g.mu.Lock()
		n, aborted := g.n, g.aborted
		g.mu.Unlock()
		if n >= target {
			return true
		}
		if aborted {
			return false
		}
		g.clk.WaitNotify(epoch, -1)
	}
}

// ringStep returns the segment a node sends and receives at global
// step t of the 2N−2 schedule (reduce-scatter then allgather), plus
// whether the received segment is reduced (summed) or assigned.
func ringStep(i, t, n int) (sendIdx, recvIdx int, reduce bool) {
	mod := func(x int) int { return ((x % n) + n) % n }
	if t < n-1 {
		return mod(i - t), mod(i - t - 1), true
	}
	s := t - (n - 1)
	return mod(i + 1 - s), mod(i - s), false
}

// Allreduce sums the per-node float64 vectors with the ring algorithm
// (§5.3: reduce-scatter + allgather, 2N−2 stages) using the given
// reliability protocol (a reliability.Transfer scheme name: "sr",
// "sr-nack", "ec", "adaptive") for every point-to-point stage.
// All inputs must have equal length divisible by N. It returns the
// reduced vector (identical on every node) or the first error.
//
// Each node runs as two clock actors — a sender and a receiver — so
// the whole collective executes under clock.Join: deterministic
// discrete-event on a virtual clock, plain goroutines on the real
// one. The only intra-node ordering constraint is that step t's send
// payload is the segment step t−1's receive reduced, enforced by a
// per-node gate; everything else is ordered by the protocol itself
// (a sender cannot outrun its receiver's CTS).
func (r *FunctionalRing) Allreduce(inputs [][]float64, protocol string) ([]float64, error) {
	n := r.N
	if len(inputs) != n {
		return nil, fmt.Errorf("collective: %d inputs for %d nodes", len(inputs), n)
	}
	vlen := len(inputs[0])
	if vlen%n != 0 {
		return nil, fmt.Errorf("collective: vector length %d not divisible by %d nodes", vlen, n)
	}
	for i, in := range inputs {
		if len(in) != vlen {
			return nil, fmt.Errorf("collective: input %d length %d != %d", i, len(in), vlen)
		}
	}
	seg := vlen / n
	segBytes := seg * 8
	if uint64(segBytes) > r.staging[0].Span() {
		return nil, fmt.Errorf("collective: segment %d B exceeds staging buffer", segBytes)
	}
	links, err := r.links.bind(r.sessions, protocol)
	if err != nil {
		return nil, err
	}

	// local working copies
	work := make([][]float64, n)
	for i := range work {
		work[i] = append([]float64(nil), inputs[i]...)
	}

	steps := 2*n - 2
	txErrs := make([]error, n)
	rxErrs := make([]error, n)
	actors := make([]clock.NamedFunc, 0, 2*n)
	for i := 0; i < n; i++ {
		i := i
		out, in, staging := links[i], links[(i-1+n)%n], r.staging[i]
		buf := work[i]
		rxDone := &gate{clk: r.clk}
		actors = append(actors, clock.NamedFunc{Name: fmt.Sprintf("ring-node%d/tx", i), Fn: func() { // sender
			for t := 0; t < steps; t++ {
				if t > 0 && !rxDone.wait(t) {
					return // receiver failed; its error is reported
				}
				sendIdx, _, _ := ringStep(i, t, n)
				// Fresh payload per step: in-flight copies of step t's
				// packets (queued retransmits) alias this buffer.
				payload := make([]byte, segBytes)
				for j := 0; j < seg; j++ {
					binary.LittleEndian.PutUint64(payload[j*8:],
						math.Float64bits(buf[sendIdx*seg+j]))
				}
				if err := out.Write(payload); err != nil {
					txErrs[i] = fmt.Errorf("node %d step %d send: %w", i, t, err)
					return
				}
			}
		}})
		actors = append(actors, clock.NamedFunc{Name: fmt.Sprintf("ring-node%d/rx", i), Fn: func() { // receiver
			for t := 0; t < steps; t++ {
				if err := in.Receive(staging, 0, segBytes, 0); err != nil {
					rxErrs[i] = fmt.Errorf("node %d step %d recv: %w", i, t, err)
					rxDone.abort()
					return
				}
				_, recvIdx, reduce := ringStep(i, t, n)
				raw := staging.Bytes()
				for j := 0; j < seg; j++ {
					v := math.Float64frombits(binary.LittleEndian.Uint64(raw[j*8:]))
					if reduce {
						buf[recvIdx*seg+j] += v
					} else {
						buf[recvIdx*seg+j] = v
					}
				}
				rxDone.post()
			}
		}})
	}
	clock.JoinNamed(r.clk, actors...)
	// Report every stuck actor, not just the first: under a shared
	// bottleneck one failing link starves the whole schedule, and the
	// full set is what identifies the root link.
	if err := errors.Join(append(append([]error(nil), rxErrs...), txErrs...)...); err != nil {
		return nil, err
	}
	// all nodes must agree
	for i := 1; i < n; i++ {
		for j := range work[0] {
			if work[i][j] != work[0][j] {
				return nil, fmt.Errorf("collective: node %d disagrees at element %d", i, j)
			}
		}
	}
	return work[0], nil
}

// --- functional tree broadcast --------------------------------------------

// TreeDialer builds the reliable session for one tree edge
// (parent → child).
type TreeDialer func(parent, child int) (*reliability.Session, error)

// FunctionalTree runs the binomial broadcast of the model Tree on the
// real SDR stack: ⌈log2 N⌉ rounds, where in round r every node
// holding the buffer forwards it to one new peer. Like
// FunctionalRing it executes under clock.Join on either clock
// backend.
type FunctionalTree struct {
	N        int
	clk      clock.Clock
	sessions []*reliability.Session
	nodes    []*treeNode
	links    linkTransfers
}

// treeNode names a node's edges by their index into the tree's
// sessions (and so into a protocol's bound transfers).
type treeNode struct {
	parent  int // inbound edge; -1 at the root
	staging *nicsim.MR
	// children holds this node's outbound edges in schedule order.
	children []int
}

// BuildFunctionalTreeWith assembles the binomial broadcast tree over
// dialed sessions: one session per schedule edge (i → i+dist for
// dist = 1, 2, 4, … while i < dist). maxBytes bounds the broadcast
// payload.
func BuildFunctionalTreeWith(n int, clk clock.Clock, dial TreeDialer, maxBytes int) (*FunctionalTree, error) {
	if n < 2 {
		return nil, fmt.Errorf("collective: tree needs >=2 nodes, got %d", n)
	}
	t := &FunctionalTree{N: n, clk: clock.Or(clk), links: linkTransfers{maxBytes: maxBytes}}
	t.nodes = make([]*treeNode, n)
	for i := range t.nodes {
		t.nodes[i] = &treeNode{parent: -1}
	}
	for dist := 1; dist < n; dist <<= 1 {
		for i := 0; i < dist && i+dist < n; i++ {
			s, err := dial(i, i+dist)
			if err != nil {
				t.Close()
				return nil, fmt.Errorf("collective: tree edge %d→%d: %w", i, i+dist, err)
			}
			edge := len(t.sessions)
			t.sessions = append(t.sessions, s)
			t.nodes[i].children = append(t.nodes[i].children, edge)
			child := t.nodes[i+dist]
			child.parent = edge
			child.staging = s.Pair.B.Ctx.RegMR(make([]byte, maxBytes))
		}
	}
	return t, nil
}

// Close tears all edges down.
func (t *FunctionalTree) Close() {
	for _, s := range t.sessions {
		s.Close()
	}
}

// Sessions returns the tree's per-edge sessions in schedule order.
func (t *FunctionalTree) Sessions() []*reliability.Session { return t.sessions }

// Broadcast pushes data from node 0 to every node with the given
// reliability protocol and returns each node's received copy (the
// root's entry aliases data). Every non-root node receives from its
// parent, then forwards to its children in schedule order — the
// dependency chain whose per-stage reliability cost the tree model
// samples.
func (t *FunctionalTree) Broadcast(data []byte, protocol string) ([][]byte, error) {
	n := t.N
	for _, node := range t.nodes {
		if node.parent >= 0 && uint64(len(data)) > node.staging.Span() {
			return nil, fmt.Errorf("collective: payload %d B exceeds staging buffer", len(data))
		}
	}
	links, err := t.links.bind(t.sessions, protocol)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, n)
	out[0] = data
	errs := make([]error, n)
	actors := make([]clock.NamedFunc, n)
	for i := 0; i < n; i++ {
		i := i
		node := t.nodes[i]
		actors[i] = clock.NamedFunc{Name: fmt.Sprintf("tree-node%d", i), Fn: func() {
			buf := data
			if node.parent >= 0 {
				if err := links[node.parent].Receive(node.staging, 0, len(data), 0); err != nil {
					errs[i] = fmt.Errorf("node %d recv: %w", i, err)
					return
				}
				buf = append([]byte(nil), node.staging.Bytes()[:len(data)]...)
				out[i] = buf
			}
			for c, edge := range node.children {
				if err := links[edge].Write(buf); err != nil {
					errs[i] = fmt.Errorf("node %d child %d send: %w", i, c, err)
					return
				}
			}
		}}
	}
	clock.JoinNamed(t.clk, actors...)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
