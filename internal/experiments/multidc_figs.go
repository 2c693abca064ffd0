package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/collective"
	"sdrrdma/internal/core"
	"sdrrdma/internal/netem"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
)

// multidcClock adapts the sweep-provided clock for a scenario: on the
// real-clock path every scenario gets its own Real instance so notify
// domains stay per-deployment; the virtual path uses the lane's pooled
// engine as-is.
func multidcClock(o Options, clk clock.Clock) clock.Clock {
	if o.RealClock {
		return clock.NewReal()
	}
	return clk
}

// multidcCoreCfg is the SDR stack configuration shared by every
// multi-DC scenario: the paper's 4 KiB MTU and 64 KiB bitmap chunks.
func multidcCoreCfg(clk clock.Clock) core.Config {
	return core.Config{
		MTU: 4096, ChunkBytes: 64 << 10, MaxMsgBytes: 16 << 20,
		Generations: 2, Channels: 2, CQDepth: 1 << 12,
		Clock: clk,
	}
}

// chunkTally maps every dropped data packet back onto its bitmap
// chunk by decoding the SDR immediate (§3.2.4: msgID | pktOffset |
// userImm), aggregating the drop→chunk view the receiver's bitmap
// ultimately sees. It is how the figure connects netem's packet-level
// tail-drop/burst behaviour to internal/wan's §3.1.1 chunk-masking
// analysis: several drops collapsing into one lost chunk is the
// masking the multi-MTU bitmap resolution buys.
type chunkTally struct {
	cfg core.Config
	ppc uint32

	mu    sync.Mutex
	drops map[chunkKey]int
}

// chunkKey identifies one bitmap chunk of one flow's message. The
// egress Deliverer — not the packet's DstQPN — is the flow
// discriminator: QPNs are allocated per device, so two tenants
// sharing a bottleneck queue carry colliding QPN/msgID values.
type chunkKey struct {
	flow         nicsim.Deliverer
	msgID, chunk uint32
}

func newChunkTally(cfg core.Config) *chunkTally {
	cfg = cfg.WithDefaults() // the immediate split DecodeImm reads
	return &chunkTally{
		cfg:   cfg,
		ppc:   uint32(cfg.PacketsPerChunk()),
		drops: map[chunkKey]int{},
	}
}

func (ct *chunkTally) hook(pkt *nicsim.Packet, _ netem.DropReason, dst nicsim.Deliverer) {
	if pkt.Opcode != nicsim.OpWriteImm || !pkt.HasImm {
		return // control traffic: not a bitmap-visible data packet
	}
	msgID, pktOff, _ := ct.cfg.DecodeImm(pkt.Imm)
	key := chunkKey{flow: dst, msgID: msgID, chunk: pktOff / ct.ppc}
	ct.mu.Lock()
	ct.drops[key]++
	ct.mu.Unlock()
}

// observe installs the tally on every queue direction of the topology.
func (ct *chunkTally) observe(t *netem.Topology) {
	for _, e := range t.Edges() {
		e.Fwd.SetDropHook(ct.hook)
		e.Rev.SetDropHook(ct.hook)
	}
}

// stats returns the number of distinct lost chunks and the mean data
// packet drops each lost chunk absorbed.
func (ct *chunkTally) stats() (lost int, meanDrops float64) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	total := 0
	for _, n := range ct.drops {
		total += n
	}
	if len(ct.drops) == 0 {
		return 0, 0
	}
	return len(ct.drops), float64(total) / float64(len(ct.drops))
}

// multidcStats is one scenario × scheme measurement.
type multidcStats struct {
	completion time.Duration
	packets    uint64 // data packets injected by all senders
	tail, wire uint64 // topology-wide drop classes
	lostChunks int
	meanDrops  float64
}

// row renders every column after the scenario and the scheme.
func (s multidcStats) row() []string {
	masked := "-"
	if s.lostChunks > 0 {
		masked = fmt.Sprintf("%.2f", s.meanDrops)
	}
	return []string{
		fmt.Sprintf("%.3f", float64(s.completion)/float64(time.Millisecond)),
		fmt.Sprintf("%d", s.packets),
		fmt.Sprintf("%d", s.tail),
		fmt.Sprintf("%d", s.wire),
		masked,
	}
}

func sessionsPacketsSent(ss []*reliability.Session) uint64 {
	var n uint64
	for _, s := range ss {
		n += s.Pair.A.QP.Stats().PacketsSent
	}
	return n
}

// runMultiDCRing runs a ring allreduce across nDC datacenters joined
// by bursty long-haul edges (Gilbert–Elliott wire loss), the
// functional counterpart of the Fig 13 ring model on a real topology.
func runMultiDCRing(clk clock.Clock, scheme string, relCfg reliability.Config, nDC, vlen int, seed int64) (multidcStats, error) {
	edge := netem.EdgeConfig{
		DistanceKm: 3000, BandwidthBps: 50e9, BufferBytes: 4 << 20,
		Loss: netem.LossSpec{P: 0.05, BurstLen: 8},
	}
	topo, err := netem.Ring(clk, nDC, edge, seed)
	if err != nil {
		return multidcStats{}, err
	}
	coreCfg := multidcCoreCfg(clk)
	tally := newChunkTally(coreCfg)
	tally.observe(topo)
	ring, err := collective.BuildFunctionalRingWith(nDC, clk, func(link int) (*reliability.Session, error) {
		return topo.NewFlow(link, (link+1)%nDC, coreCfg, relCfg)
	}, vlen/nDC*8)
	if err != nil {
		return multidcStats{}, err
	}
	defer ring.Close()

	inputs := make([][]float64, nDC)
	want := make([]float64, vlen)
	for i := range inputs {
		inputs[i] = make([]float64, vlen)
		for j := range inputs[i] {
			inputs[i][j] = float64((i*vlen + j) % 1021) // small integers: fp sums stay exact
			want[j] += inputs[i][j]
		}
	}
	start := clk.Now()
	got, err := ring.Allreduce(inputs, scheme)
	if err != nil {
		return multidcStats{}, err
	}
	completion := clk.Since(start)
	for j := range want {
		if got[j] != want[j] {
			return multidcStats{}, fmt.Errorf("allreduce[%d] = %g, want %g", j, got[j], want[j])
		}
	}
	lost, mean := tally.stats()
	return multidcStats{
		completion: completion,
		packets:    sessionsPacketsSent(ring.Sessions()),
		tail:       topo.TailDrops(), wire: topo.ChannelDrops(),
		lostChunks: lost, meanDrops: mean,
	}, nil
}

// runMultiDCTree broadcasts across a binary-tree physical topology
// with the binomial logical schedule: several logical edges share
// physical links, so their packets interleave in the same queues.
func runMultiDCTree(clk clock.Clock, scheme string, relCfg reliability.Config, nDC, size int, seed int64) (multidcStats, error) {
	edge := netem.EdgeConfig{
		DistanceKm: 1800, BandwidthBps: 50e9, BufferBytes: 4 << 20,
		Loss: netem.LossSpec{P: 0.05, BurstLen: 8},
	}
	topo, err := netem.Tree(clk, nDC, edge, seed)
	if err != nil {
		return multidcStats{}, err
	}
	coreCfg := multidcCoreCfg(clk)
	tally := newChunkTally(coreCfg)
	tally.observe(topo)
	tree, err := collective.BuildFunctionalTreeWith(nDC, clk, func(parent, child int) (*reliability.Session, error) {
		return topo.NewFlow(parent, child, coreCfg, relCfg)
	}, size)
	if err != nil {
		return multidcStats{}, err
	}
	defer tree.Close()

	data := wanPattern(size, byte(seed))
	start := clk.Now()
	out, err := tree.Broadcast(data, scheme)
	if err != nil {
		return multidcStats{}, err
	}
	completion := clk.Since(start)
	for i, buf := range out {
		if !bytes.Equal(buf, data) {
			return multidcStats{}, fmt.Errorf("broadcast: node %d corrupted", i)
		}
	}
	lost, mean := tally.stats()
	return multidcStats{
		completion: completion,
		packets:    sessionsPacketsSent(tree.Sessions()),
		tail:       topo.TailDrops(), wire: topo.ChannelDrops(),
		lostChunks: lost, meanDrops: mean,
	}, nil
}

// runMultiDCDumbbell drives two concurrent reliable transfers through
// one finite shared bottleneck: both senders' access links outpace the
// long-haul edge, so the bottleneck buffer overflows and tail-drops in
// bursts — §2.1's ISP congestion — which the chunk bitmap then masks
// (several consecutive packet drops per lost chunk).
func runMultiDCDumbbell(clk clock.Clock, scheme string, relCfg reliability.Config, size int, seed int64) (multidcStats, error) {
	access := netem.EdgeConfig{DistanceKm: 100, BandwidthBps: 100e9, BufferBytes: 8 << 20}
	bottleneck := netem.EdgeConfig{DistanceKm: 3000, BandwidthBps: 80e9, BufferBytes: 512 << 10}
	d, err := netem.Dumbbell(clk, 2, access, bottleneck, seed)
	if err != nil {
		return multidcStats{}, err
	}
	coreCfg := multidcCoreCfg(clk)
	tally := newChunkTally(coreCfg)
	tally.observe(d.Topology)

	var (
		st       multidcStats
		sessions []*reliability.Session
		outs     []*reliability.Outcome
		actors   []clock.NamedFunc
	)
	for i := 0; i < 2; i++ {
		s, err := d.NewFlow(d.Left[i], d.Right[i], coreCfg, relCfg)
		if err != nil {
			return multidcStats{}, err
		}
		defer s.Close()
		tr, err := s.NewTransfer(scheme, reliability.AdaptorConfig{}, size, 1)
		if err != nil {
			return multidcStats{}, err
		}
		send, recv, out := tr.Actors(fmt.Sprintf("dumbbell-flow%d", i), wanPattern(size, byte(seed+int64(i))))
		sessions = append(sessions, s)
		outs = append(outs, out)
		actors = append(actors, send, recv)
	}
	clock.JoinNamed(clk, actors...)
	for i, out := range outs {
		if err := out.Err(); err != nil {
			return multidcStats{}, fmt.Errorf("flow %d: %w", i, err)
		}
		st.completion = max(st.completion, out.SendDone)
	}
	st.packets = sessionsPacketsSent(sessions)
	st.tail, st.wire = d.TailDrops(), d.ChannelDrops()
	st.lostChunks, st.meanDrops = tally.stats()
	return st, nil
}

// multiDCFunctional runs the real SDR reliability stack across
// emulated multi-datacenter topologies — a bursty-loss ring allreduce,
// a binomial broadcast over a physical tree, and two tenants fighting
// over a finite dumbbell bottleneck — on either clock backend; -clock
// real pays the genuine WAN latencies.
func multiDCFunctional(o Options) (sweep, error) {
	// Full fidelity: 4-DC ring with 4 MiB vectors, 6-DC tree pushing
	// 2 MiB, dumbbell flows of 4 MiB. Quick mode (tests, Samples < 500)
	// shrinks every dimension.
	ringN, ringVlen := 4, 4*131072
	treeN, treeBytes := 6, 2<<20
	dumbbellBytes := 4 << 20
	if o.Samples < 500 {
		ringN, ringVlen = 3, 3*32768
		treeN, treeBytes = 4, 512<<10
		dumbbellBytes = 1 << 20
	}
	// The scenario × scheme grid flattens into independent cells, each
	// with its own topology, sessions and splitmix64 seed.
	type dcCell struct {
		kind, scheme string
	}
	var cells []dcCell
	var labels [][]string
	for _, sc := range []struct{ kind, label string }{
		{"ring", fmt.Sprintf("ring-%d", ringN)}, {"tree", fmt.Sprintf("tree-%d", treeN)}, {"dumbbell", "dumbbell"},
	} {
		for _, scheme := range []string{"sr-nack", "ec"} {
			cells = append(cells, dcCell{kind: sc.kind, scheme: scheme})
			labels = append(labels, []string{sc.label, scheme})
		}
	}
	return sweep{
		labels: labels,
		title:  fmt.Sprintf(" (%s clock)", o.clockLabel()),
		notes: []string{
			fmt.Sprintf("ring-%d: 3000 km 50G edges, Gilbert–Elliott wire loss (p=0.05, burst 8), %s allreduce", ringN, sizeLabel(int64(ringVlen*8))),
			fmt.Sprintf("tree-%d: binomial broadcast of %s over a physical binary tree (logical edges share physical links)", treeN, sizeLabel(int64(treeBytes))),
			fmt.Sprintf("dumbbell: 2×%s concurrent transfers, 100G access links into one 80G/512 KiB-buffer bottleneck — loss is pure tail drop", sizeLabel(int64(dumbbellBytes))),
			"drops/lost chunk > 1 is §3.1.1's burst masking observed at the chunk level: the bitmap absorbs consecutive drops as a single chunk retransmission",
		},
		cell: func(clk clock.Clock, r, _ int) ([]string, error) {
			c := cells[r]
			seed := clock.CellSeed(o.Seed, r)
			sclk := multidcClock(o, clk)
			// RTT stays zero: netem derives it per flow from the route's
			// propagation delay.
			relCfg, err := reliability.Config{K: 4, M: 2}.ForScheme(c.scheme)
			if err != nil {
				return nil, err
			}
			var st multidcStats
			switch c.kind {
			case "ring":
				st, err = runMultiDCRing(sclk, c.scheme, relCfg, ringN, ringVlen, seed)
			case "tree":
				st, err = runMultiDCTree(sclk, c.scheme, relCfg, treeN, treeBytes, seed)
			default:
				st, err = runMultiDCDumbbell(sclk, c.scheme, relCfg, dumbbellBytes, seed)
			}
			if err != nil {
				return nil, fmt.Errorf("multidc %s %s: %w", c.kind, c.scheme, err)
			}
			return st.row(), nil
		},
	}, nil
}
