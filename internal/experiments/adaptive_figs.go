package experiments

import (
	"fmt"
	"strings"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/netem"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/telemetry"
)

// adaptiveBandwidthBps is the per-direction line rate of every diamond
// edge: 2 Gbit/s makes the bandwidth-delay product (2.5 MB at the
// 10 ms primary RTT) ten adaptation segments deep, so round trips are
// expensive relative to parity bytes — the regime where the SR-vs-EC
// trade-off actually bites (§2.1).
const adaptiveBandwidthBps = 2e9

// adaptiveDiamond builds the regime-sweep topology: src and dst joined
// by a 1500 km primary route (via-a, 10 ms RTT) and a 2500 km backup
// (via-b, 16.7 ms RTT). Edges 0/1 are the primary hops (inserted
// first, so BFS prefers them); edges 2/3 the backup. Buffers are sized
// like real switch queues — 3 MB, a small multiple of the 2.5 MB BDP —
// so an unpaced whole-message blast overflows the access hop while the
// adaptive scheme's receiver-driven window (which never posts more
// than window·segment bytes ahead) fits. The ECN threshold at half the
// buffer marks every standing queue long before it overflows.
func adaptiveDiamond(clk clock.Clock, seed int64) (t *netem.Topology, src, dst int, err error) {
	t = netem.New("adaptive-diamond", clk, seed)
	src = t.AddNode("src")
	viaA := t.AddNode("via-a")
	viaB := t.AddNode("via-b")
	dst = t.AddNode("dst")
	primary := netem.EdgeConfig{
		DistanceKm: 750, BandwidthBps: adaptiveBandwidthBps,
		BufferBytes: 3 << 20, MarkThresholdBytes: 3 << 19,
	}
	backup := primary
	backup.DistanceKm = 1250
	for _, e := range []struct {
		from, to int
		cfg      netem.EdgeConfig
	}{
		{src, viaA, primary}, {viaA, dst, primary},
		{src, viaB, backup}, {viaB, dst, backup},
	} {
		if _, err = t.AddEdge(e.from, e.to, e.cfg); err != nil {
			return nil, 0, 0, err
		}
	}
	return t, src, dst, nil
}

// adaptiveSchedule is the four-regime fault program, phased against
// ser (the transfer's clean serialization time at line rate):
//
//	[0, ser/4)           clean — both routes healthy
//	[ser/4, 3·ser/5)     Gilbert–Elliott burst loss on the primary's
//	                     long-haul hop (p=0.25, mean burst 16 packets:
//	                     one burst ≈ one 64 KiB bitmap chunk) — the
//	                     regime where the EC rungs earn their parity
//	[4·ser/5, 23·ser/25) primary access hop flaps down; registered
//	                     paths reroute onto the backup, which drifts
//	                     away LEO-style while carrying the traffic
//	elsewhere            recovery — loss off, primary restored
func adaptiveSchedule(ser time.Duration) netem.Schedule {
	return netem.Schedule{
		Horizon: 20 * ser,
		Events: []netem.Event{
			{At: ser / 4, Edge: 1, Loss: netem.LossSpec{P: 0.25, BurstLen: 16}},
			{At: ser * 3 / 5, Edge: 1}, // zero Loss: lossless again
		},
		Flaps: []netem.Flap{{Edge: 0, Down: ser * 4 / 5, Up: ser * 23 / 25}},
		Drifts: []netem.Drift{{
			Edge: 3, Start: ser * 4 / 5, Duration: ser / 8,
			RateKmPerSec: 1500, Step: ser / 40,
		}},
	}
}

// adaptiveStats is one scheme's run through the fault program.
type adaptiveStats struct {
	completion time.Duration
	packets    uint64 // data-path packets injected by the sender
	wire, down uint64 // loss-process and link-down drops
	marked     uint64 // ECN-marked deliveries
	reroutes   uint64 // path re-pointings taken (flap down + up)
	trajectory string // adaptive rung trace; "-" for static schemes
}

// row renders every column after the scheme.
func (s adaptiveStats) row(idealPkts uint64) []string {
	return []string{
		fmt.Sprintf("%.3f", float64(s.completion)/float64(time.Millisecond)),
		fmt.Sprintf("%d", s.packets),
		fmt.Sprintf("%.3fx", float64(s.packets)/float64(idealPkts)),
		fmt.Sprintf("%d", s.wire),
		fmt.Sprintf("%d", s.down),
		fmt.Sprintf("%d", s.marked),
		fmt.Sprintf("%d", s.reroutes),
		s.trajectory,
	}
}

// adaptiveTrajectory renders the rung trace of a finished adaptive
// transfer ("sr>ec(16,4)>...>sr") for the figure's last column.
func adaptiveTrajectory(ad *reliability.Adaptor) string {
	parts := []string{ad.Config().Ladder[0].Name()}
	for _, sw := range ad.Switches() {
		parts = append(parts, sw.To.Name())
	}
	return strings.Join(parts, ">")
}

// runAdaptiveScenario runs one scheme through the diamond fault
// program and returns its measurements. Every scheme sees the same
// topology, schedule, transfer size and seed; only the reliability
// protocol differs.
func runAdaptiveScenario(clk clock.Clock, scheme string, size int, acfg reliability.AdaptorConfig, seed int64, rec *telemetry.Recorder) (adaptiveStats, error) {
	topo, src, dst, err := adaptiveDiamond(clk, seed)
	if err != nil {
		return adaptiveStats{}, err
	}
	if rec != nil {
		rec.SetLabel(scheme)
		topo.SetTelemetry(rec)
	}
	ser := time.Duration(float64(size) * 8 / adaptiveBandwidthBps * float64(time.Second))
	ap, err := adaptiveSchedule(ser).Apply(topo)
	if err != nil {
		return adaptiveStats{}, err
	}

	var st adaptiveStats
	st.trajectory = "-"
	if scheme == "rc-gbn" {
		st.completion, st.packets, err = runAdaptiveRC(topo, clk, src, dst, size, seed)
		if err != nil {
			return adaptiveStats{}, err
		}
	} else {
		st, err = runAdaptiveFlow(topo, clk, src, dst, scheme, size, acfg, seed, rec)
		if err != nil {
			return adaptiveStats{}, err
		}
	}
	// Topology-wide counters: read after the transfer but before pools
	// close (paths retire their reroute counts when their flow closes,
	// so runAdaptiveFlow/RC capture reroutes themselves; drop counters
	// live on the queues and survive).
	st.wire = topo.ChannelDrops()
	st.down = topo.LinkDownDrops()
	st.marked = topo.MarkedPackets()
	if clk.IsVirtual() {
		// The fault program is load-bearing: a transfer that outran the
		// flap never exercised the regime sweep, and a schedule setter
		// failure would silently soften the scenario.
		if got := ap.Flapped.Load(); got != 1 {
			return adaptiveStats{}, fmt.Errorf("adaptive-functional %s: flap fired %d times, want 1 (completion %v vs flap at %v)",
				scheme, got, st.completion, ser*4/5)
		}
		if n := ap.Errors.Load(); n != 0 {
			return adaptiveStats{}, fmt.Errorf("adaptive-functional %s: %d schedule setter errors", scheme, n)
		}
	}
	if err := topo.ClosePools(); err != nil {
		return adaptiveStats{}, fmt.Errorf("adaptive-functional %s: %w", scheme, err)
	}
	return st, nil
}

// runAdaptiveFlow drives one SDR reliability transfer (adaptive, sr,
// sr-nack or static ec) over the diamond.
func runAdaptiveFlow(topo *netem.Topology, clk clock.Clock, src, dst int, scheme string, size int, acfg reliability.AdaptorConfig, seed int64, rec *telemetry.Recorder) (adaptiveStats, error) {
	// The static EC comparator matches the adaptive ladder's middle
	// rung geometry (one submessage per 16 chunks, 25% overhead). RTT
	// derives from the primary route's propagation delay.
	relCfg, err := reliability.Config{K: 16, M: 4}.ForScheme(scheme)
	if err != nil {
		return adaptiveStats{}, err
	}
	s, err := topo.NewFlow(src, dst, multidcCoreCfg(clk), relCfg)
	if err != nil {
		return adaptiveStats{}, err
	}
	defer s.Close()
	if rec != nil {
		s.SetTelemetry(rec, "flow/"+scheme+"/A", "flow/"+scheme+"/B")
	}
	tr, err := s.NewTransfer(scheme, acfg, size, 1)
	if err != nil {
		return adaptiveStats{}, err
	}
	out := tr.Drive("adaptive-fig/"+scheme, wanPattern(size, byte(seed)))
	if err := out.Err(); err != nil {
		return adaptiveStats{}, err
	}
	st := adaptiveStats{
		completion: out.SendDone,
		packets:    s.Pair.A.QP.Stats().PacketsSent,
		reroutes:   topo.PathReroutes(), // before Close retires the paths
		trajectory: "-",
	}
	if ad := tr.Adaptor(); ad != nil {
		st.trajectory = adaptiveTrajectory(ad)
	}
	return st, nil
}

// adaptiveRCWindow paces the RC Go-Back-N baseline: 1024 outstanding
// 4 KiB packets (4 MiB) — comparable in-flight budget to the adaptive
// window, and the ASIC-style pacing that keeps GBN restarts from
// degenerating into NAK storms (see wanRCWindow).
const adaptiveRCWindow = 1024

// runAdaptiveRC runs the commodity RC Write baseline over the same
// diamond: one message, Go-Back-N recovery, RTO = 3·RTT, delivered
// through re-routable paths like every other scheme so the flap
// reroutes it too.
func runAdaptiveRC(topo *netem.Topology, clk clock.Clock, src, dst, size int, seed int64) (time.Duration, uint64, error) {
	devA := nicsim.NewDevice("adaptive-rcA")
	devB := nicsim.NewDevice("adaptive-rcB")
	link, rtt, err := topo.NewLink(src, dst, devA, devB)
	if err != nil {
		return 0, 0, err
	}
	rc := nicsim.NewRCPair(clk, devA, devB, link.AB, link.BA, 4096, 3*rtt, 16, adaptiveRCWindow)
	elapsed, err := runRCWrite(clk, rc, devB, size, seed, rtt)
	return elapsed, link.AB.Tx.Load(), err
}

// adaptiveFunctional runs the adaptive mid-flight reliability figure:
// one transfer per scheme through the identical four-regime fault
// program (clean → burst loss → flap+reroute → recovery) on the
// diamond topology. The adaptive scheme starts on the SR rung,
// escalates through the EC ladder when the burst hits, rides the
// reroute, and de-escalates in recovery; each static scheme pays its
// characteristic cost in exactly one regime and the figure shows the
// adaptive transfer strictly beating all of them on completion time.
func adaptiveFunctional(o Options) (sweep, error) {
	// Segments stay fine-grained (4 chunks = 256 KiB) so the window
	// covers the 2.5 MB BDP while adaptation lag — plans freeze when a
	// segment is posted, window segments ahead of the head — stays a
	// small fraction of the transfer. The ladder's EC rungs are sized
	// to the burst process: one mean burst ≈ one chunk, so EC(4,1)
	// absorbs a typical burst per submessage and EC(4,2) a bad one.
	// Full fidelity: 16 MiB (64 decision points); quick mode (tests,
	// Samples < 500) shrinks to 8 MiB (32).
	size := 16 << 20
	if o.Samples < 500 {
		size = 8 << 20
	}
	acfg := reliability.AdaptorConfig{
		SegmentChunks: 4, Window: 12, MinDwell: 4,
		Ladder: []reliability.Mode{
			{Scheme: reliability.SchemeSR},
			{Scheme: reliability.SchemeEC, K: 4, M: 2},
		},
	}
	acfg = acfg.WithDefaults()
	ser := time.Duration(float64(size) * 8 / adaptiveBandwidthBps * float64(time.Second))
	schemes := []string{"adaptive", "sr", "sr-nack", "ec", "rc-gbn"}
	idealPkts := uint64((size + 4095) / 4096)
	return sweep{
		labels: labelsOf(schemes, func(s string) string { return s }),
		title:  fmt.Sprintf(" (%s transfers, %s clock)", sizeLabel(int64(size)), o.clockLabel()),
		notes: []string{
			fmt.Sprintf("fault program: clean [0,%v) | GE burst p=0.25/len16 on the long-haul hop [%v,%v) | primary flap + path reroute [%v,%v) with LEO drift on the backup | recovery",
				ser/4, ser/4, ser*3/5, ser*4/5, ser*23/25),
			fmt.Sprintf("adaptive: %d-chunk segments, window %d, ladder %s — receiver-driven plans, switches at segment boundaries only",
				acfg.SegmentChunks, acfg.Window, ladderLabel(acfg.Ladder)),
			"overhead is injected/ideal data packets; statics pay their characteristic regime cost (sr: RTO stalls, sr-nack: burst retransmit rounds, ec: parity in the clean phases, rc-gbn: go-back-N restarts)",
		},
		cell: func(clk clock.Clock, r, _ int) ([]string, error) {
			var rec *telemetry.Recorder
			if o.Trace != nil {
				rec = o.Trace.Cell(r)
			}
			st, err := runAdaptiveScenario(multidcClock(o, clk), schemes[r], size, acfg, clock.CellSeed(o.Seed, r), rec)
			if err != nil {
				return nil, fmt.Errorf("adaptive-functional %s: %w", schemes[r], err)
			}
			return st.row(idealPkts), nil
		},
		done: func() []string {
			if o.Trace == nil {
				return nil
			}
			return adaptiveTimeline(o.Trace.Cell(0), acfg)
		},
	}, nil
}

// adaptiveTimeline renders the adaptive cell's flight record as a
// decision timeline: every ladder switch (with the loss signal that
// drove it) interleaved with the fault program's flap transitions, in
// virtual-time order. It rides the figure's Notes so `-trace` runs
// print the decision sequence next to the table the switches explain.
func adaptiveTimeline(rec *telemetry.Recorder, acfg reliability.AdaptorConfig) []string {
	base := rec.Base()
	var notes []string
	for _, ev := range rec.Events() {
		at := time.Duration(ev.At - base).Round(time.Microsecond)
		switch ev.Kind {
		case telemetry.EvLadderSwitch:
			from, to := int(ev.A1), int(ev.A2)
			if from < 0 || from >= len(acfg.Ladder) || to < 0 || to >= len(acfg.Ladder) {
				continue
			}
			notes = append(notes, fmt.Sprintf("decision @%v: seg %d observed loss %.2f%% -> switch %s>%s",
				at, ev.A0, float64(ev.A3)/1e4, acfg.Ladder[from].Name(), acfg.Ladder[to].Name()))
		case telemetry.EvLinkDown:
			notes = append(notes, fmt.Sprintf("decision @%v: fault program takes edge %d down", at, ev.A0))
		case telemetry.EvLinkUp:
			notes = append(notes, fmt.Sprintf("decision @%v: fault program restores edge %d", at, ev.A0))
		}
	}
	return notes
}

// ladderLabel renders a mode ladder ("sr>ec(16,2)>ec(16,4)>ec(16,8)").
func ladderLabel(ladder []reliability.Mode) string {
	parts := make([]string, len(ladder))
	for i, m := range ladder {
		parts[i] = m.Name()
	}
	return strings.Join(parts, ">")
}
