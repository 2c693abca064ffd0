package main

import (
	"fmt"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/netem"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/wan"
)

// Shape shared by every workload (ISSUE 11): MTU 4096, 64 KiB chunks,
// 4 channels, 100 Gbit/s per direction, Alpha 2, EC (32,8) MDS, receive
// regions rotating over a window of 4 as sdr-perftest does.
const (
	mtu        = 4096
	chunkBytes = 64 << 10
	channels   = 4
	lineRate   = 100e9
	window     = 4
	ecK, ecM   = 32, 8
)

// workload is one benchmark input set. The fields are the knobs the
// five workloads actually differ in; everything else is the shared
// shape above.
type workload struct {
	name, why string
	// scheme is "sr", "ec" or "adaptive"; nack turns SR into SR-NACK.
	scheme string
	nack   bool
	// msgs is the messages (flows, on the churn workload) per rep; size
	// the bytes per message.
	msgs, size int
	rtt        time.Duration
	drop       float64
	// contended routes the flow over a netem bottleneck shared with an
	// open-loop Poisson source; churn opens one dumbbell flow per
	// message. Both leave the fabric link out of the data path.
	contended, churn bool
}

func (w workload) netemPath() bool { return w.contended || w.churn }

var workloads = []workload{
	{
		name: "sr_clean", scheme: "sr", msgs: 256, size: 4 << 20, rtt: time.Millisecond,
		why: "lossless dedicated link: pure per-packet fast path (fabric, nicsim UC+DMA, core bitmap/CQ, clock); ec, netem and recovery idle",
	},
	{
		name: "wan_sr_nack", scheme: "sr", nack: true, msgs: 256, size: 4 << 20, rtt: 25 * time.Millisecond, drop: 0.01,
		why: "25 ms RTT, 1% drop: the same layers on the recovery side (retransmit, NACK, RTO, ~20% duplicates); SR's long-haul cost",
	},
	{
		name: "wan_ec", scheme: "ec", msgs: 128, size: 4 << 20, rtt: 25 * time.Millisecond, drop: 0.01,
		why: "identical lossy link under EC(32,8): ec/gf256 encode+reconstruct dominate host time; reproduces EC beating SR on completion",
	},
	{
		name: "contended_adaptive", scheme: "adaptive", msgs: 128, size: 4 << 20, rtt: time.Millisecond, drop: 0.005, contended: true,
		why: "netem bottleneck shared with 50 Gbit/s Poisson cross traffic: queue, tail-drop, ECN and timer events dominate; only user of the adaptive ladder",
	},
	{
		name: "flow_churn", scheme: "sr", nack: true, msgs: 2000, size: 64 << 10, churn: true,
		why: "2000 sequential 64 KiB dumbbell flows: per-lease and per-message cost (pool lease/rebind/release, CTS, handshake) instead of per-packet cost",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pathRTT is the propagation round trip the completion percentiles are
// normalised by: the configured RTT, or the dumbbell route's.
func (w workload) pathRTT() time.Duration {
	if w.churn {
		km := 2*churnAccess.DistanceKm + churnBottleneck.DistanceKm
		return time.Duration(2 * km * wan.PropagationSecPerKm * float64(time.Second))
	}
	return w.rtt
}

func (w workload) coreCfg(clk clock.Clock) core.Config {
	return core.Config{
		MTU: mtu, ChunkBytes: chunkBytes, MaxMsgBytes: w.size,
		MsgIDBits: 10, PktOffsetBits: 18, UserImmBits: 4,
		Generations: 2, Channels: channels, CQDepth: 1 << 12,
		Clock: clk,
	}
}

func (w workload) relCfg() reliability.Config {
	return reliability.Config{RTT: w.rtt, Alpha: 2, NACK: w.nack, K: ecK, M: ecM, Code: "mds"}
}

// scratchBytes is the per-region parity scratch the receive side of
// the scheme needs (0 for SR).
func (w workload) scratchBytes() int {
	switch w.scheme {
	case "ec":
		return w.relCfg().ECScratchBytes(chunkBytes, w.size)
	case "adaptive":
		return reliability.AdaptiveScratchBytes(reliability.AdaptorConfig{}, chunkBytes, w.size)
	}
	return 0
}

var (
	churnAccess     = netem.EdgeConfig{DistanceKm: 50, BandwidthBps: 10e9, BufferBytes: 1 << 20}
	churnBottleneck = netem.EdgeConfig{DistanceKm: 800, BandwidthBps: 5e9, BufferBytes: 1 << 20}
)

const (
	crossBps       = 50e9
	contendedBufB  = 4 << 20
	crossSeedShift = 7777
)

// discard is a terminal Deliverer that drops what it is handed: the
// cross-traffic sink, and the far end of the unit-cost drives.
type discard struct{}

func (discard) Deliver(p *nicsim.Packet) { nicsim.ReleasePacket(p) }

// deployment is what one rep builds before its first Write: either a
// single session (fabric path, contended) or the dumbbell the churn
// flows are leased from.
type deployment struct {
	sess *reliability.Session
	topo *netem.Topology
	gen  *netem.TrafficGen
	// from, to are the flow's endpoints in topo.
	from, to int
}

// build constructs the workload's deployment on clk. wrap, when set,
// is put in front of each device of a fabric-path deployment (the
// traced run's timing Deliverer); netem paths terminate inside
// Topology.NewFlow and cannot be wrapped from outside.
func (w workload) build(clk *clock.Virtual, seed int64, wrap func(*nicsim.Device) nicsim.Deliverer) (*deployment, error) {
	oneWay := w.rtt / 2
	switch {
	case w.churn:
		d, err := netem.Dumbbell(clk, 1, churnAccess, churnBottleneck, seed)
		if err != nil {
			return nil, err
		}
		return &deployment{topo: d.Topology, from: d.Left[0], to: d.Right[0]}, nil
	case w.contended:
		topo := netem.New(w.name, clk, seed)
		a, b := topo.AddNode("src"), topo.AddNode("dst")
		edge, err := topo.AddEdge(a, b, netem.EdgeConfig{
			DistanceKm:         oneWay.Seconds() / wan.PropagationSecPerKm,
			BandwidthBps:       lineRate,
			BufferBytes:        contendedBufB,
			MarkThresholdBytes: contendedBufB / 2,
			Loss:               netem.LossSpec{P: w.drop},
		})
		if err != nil {
			return nil, err
		}
		sess, err := topo.NewFlow(a, b, w.coreCfg(clk), w.relCfg())
		if err != nil {
			return nil, err
		}
		gen, err := netem.NewTrafficGen(netem.TrafficConfig{
			Bps: crossBps, PacketBytes: mtu, Poisson: true, Seed: seed + crossSeedShift, Clock: clk,
		}, edge.Fwd.Port(discard{}))
		if err != nil {
			sess.Close()
			return nil, err
		}
		return &deployment{sess: sess, topo: topo, gen: gen, from: a, to: b}, nil
	}
	// Fabric path: reliability.NewSession spelled out (NewDirectionTo +
	// NewPairOver + NewSessionOn) so the same construction serves the
	// traced run, where wrap interposes on the two deliveries.
	rel := w.relCfg()
	if err := rel.WithDefaults().Validate(); err != nil {
		return nil, err
	}
	fab := func(s int64) fabric.Config {
		return fabric.Config{Latency: oneWay, BandwidthBps: lineRate, DropProb: w.drop, Seed: s, Clock: clk}
	}
	devA, devB := nicsim.NewDevice("dcA"), nicsim.NewDevice("dcB")
	var toA, toB nicsim.Deliverer = devA, devB
	if wrap != nil {
		toA, toB = wrap(devA), wrap(devB)
	}
	link := &fabric.Link{
		AB: fabric.NewDirectionTo(toB, fab(seed)),
		BA: fabric.NewDirectionTo(toA, fab(seed+1000)),
	}
	pair, err := core.NewPairOver(w.coreCfg(clk), devA, devB, link, fabric.NewOOB(clk, oneWay))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return &deployment{sess: reliability.NewSessionOn(pair, rel)}, nil
}

// newFlow leases the next churn flow from the dumbbell's pool.
func (w workload) newFlow(d *deployment) (*reliability.Session, error) {
	rel := w.relCfg()
	rel.RTT = 0 // NewFlow derives it from the route
	return d.topo.NewFlow(d.from, d.to, w.coreCfg(d.topo.Clock()), rel)
}
