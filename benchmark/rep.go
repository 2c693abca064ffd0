package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
)

// staging holds a workload's large buffers. They are allocated and
// pattern-filled once and reused by every rep, so neither the fill nor
// the garbage lands in a timed window or in setup_s.
type staging struct {
	// send[w] is the payload of every message i with i%window == w;
	// recv is window regions of one message each.
	send    [][]byte
	recv    []byte
	scratch [][]byte
	fillNs  int64
}

func newStaging(w workload, seed int64) *staging {
	t0 := time.Now()
	st := &staging{recv: make([]byte, window*w.size)}
	for r := 0; r < window; r++ {
		buf := make([]byte, w.size)
		fillPattern(buf, seed, r)
		st.send = append(st.send, buf)
		if n := w.scratchBytes(); n > 0 {
			st.scratch = append(st.scratch, make([]byte, n))
		}
	}
	st.fillNs = time.Since(t0).Nanoseconds()
	return st
}

// patternState seeds the xorshift word stream of region r.
func patternState(seed int64, r int) uint64 {
	return uint64(seed)*0x9e3779b97f4a7c15 + uint64(r+1)*0xbf58476d1ce4e5b9
}

func nextWord(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// fillPattern writes the payload of window region r under seed. Message
// sizes are multiples of 8, so the stream is whole little-endian words.
func fillPattern(buf []byte, seed int64, r int) {
	s := patternState(seed, r)
	for i := 0; i+8 <= len(buf); i += 8 {
		s = nextWord(s)
		binary.LittleEndian.PutUint64(buf[i:], s)
	}
}

// patternEqual checks region against the same stream without
// materialising the expected copy.
func patternEqual(region []byte, seed int64, r int) bool {
	s := patternState(seed, r)
	for i := 0; i+8 <= len(region); i += 8 {
		s = nextWord(s)
		if binary.LittleEndian.Uint64(region[i:]) != s {
			return false
		}
	}
	return true
}

// simTuple is the simulated fingerprint of a rep: every timed or traced
// rep must reproduce the verification rep's tuple bit for bit.
type simTuple struct {
	SimNs    int64
	RxPkts   uint64
	DataRecv uint64
	Dups     uint64
}

// repResult is everything one rep measured.
type repResult struct {
	// Host nanoseconds: rep start to first Write (setup, split into
	// build and regmr) and the transfer window.
	setupNs, buildNs, regmrNs, windowNs int64
	tuple                               simTuple
	// completions are per-message Receive call-to-return times on the
	// session clock, in nanoseconds.
	completions []int64
	// counts are the per-layer public counters, keyed by metric name.
	counts map[string]float64
	// ecKiB is the payload sent on an EC rung, in (32,8)-equivalent KiB
	// (a rung with M parity chunks per K data weighs M/8).
	ecKiB float64
	// runtime.MemStats deltas over the window.
	mallocs, allocBytes, gcCycles, gcPauseNs uint64
	digest                                   uint64
	err                                      error
}

// rep runs one repetition: a fresh virtual clock and deployment, then
// w.msgs back-to-back messages through real reliability sessions.
// verify adds the pattern check and the chained digest (the
// verification rep); tr, when non-nil, records spans (the traced run).
func (w workload) rep(st *staging, seed int64, repIdx int, verify bool, tr *tracer) (res repResult) {
	res.counts = map[string]float64{}
	// Start every rep from a collected heap, as testing.B does: the
	// previous rep's garbage (8 MiB of control-plane slabs alone) would
	// otherwise be collected at this rep's expense, at a point that moves
	// from rep to rep.
	runtime.GC()
	repSpan := tr.begin(0, "rep", repIdx, -1)
	defer tr.end(repSpan)
	start := time.Now()

	// --- set-up: clock, deployment, registrations -----------------------
	buildSpan := tr.begin(repSpan, "setup.build", repIdx, -1)
	clk := clock.NewVirtual()
	var wrap func(*nicsim.Device) nicsim.Deliverer
	if tr != nil && !w.netemPath() {
		wrap = tr.wrap
	}
	leaseSpan := tr.begin(buildSpan, "session.lease", repIdx, 0)
	dep, err := w.build(clk, seed, wrap)
	if err != nil {
		res.err = err
		return res
	}
	sess := dep.sess
	if w.churn {
		// Flow 0's lease is the pool's one cold build, so it belongs to
		// set-up; flows 1..n-1 lease inside the window.
		if sess, err = w.newFlow(dep); err != nil {
			res.err = err
			return res
		}
	}
	tr.end(leaseSpan)
	tr.end(buildSpan)
	res.buildNs = time.Since(start).Nanoseconds()
	leases, quarantined := 1, 0

	regSpan := tr.begin(repSpan, "setup.regmr", repIdx, -1)
	mr := sess.Pair.B.Ctx.RegMR(st.recv)
	var scratch []*nicsim.MR
	for _, buf := range st.scratch {
		scratch = append(scratch, sess.Pair.B.Ctx.RegMR(buf))
	}
	var acfg reliability.AdaptorConfig
	var ad *reliability.Adaptor
	if w.scheme == "adaptive" {
		if ad, err = reliability.NewAdaptor(acfg); err != nil {
			res.err = err
			return res
		}
	}
	tr.end(regSpan)
	res.setupNs = time.Since(start).Nanoseconds()
	res.regmrNs = res.setupNs - res.buildNs

	if verify {
		clear(st.recv) // a previous rep's bytes must not satisfy the check
	}
	digest := fnv.New64a()
	rung, switchesSeen := reliability.Mode{}, 0 // Ladder[0] is SR

	// transfer moves messages [first, first+n) over sess in one Join.
	transfer := func(sess *reliability.Session, parent, first, n int) error {
		var sendErr, recvErr error
		clock.JoinNamed(clk,
			clock.NamedFunc{Name: "bench-send", Fn: func() {
				for i := first; i < first+n; i++ {
					sp := tr.begin(parent, "msg.send", repIdx, i)
					data := st.send[i%window]
					switch w.scheme {
					case "ec":
						sendErr = sess.A.WriteEC(data)
					case "adaptive":
						sendErr = sess.A.WriteAdaptive(acfg, data)
					default:
						sendErr = sess.A.WriteSR(data)
					}
					tr.end(sp)
					if sendErr != nil {
						sendErr = fmt.Errorf("send msg %d: %w", i, sendErr)
						return
					}
				}
			}},
			clock.NamedFunc{Name: "bench-recv", Fn: func() {
				for i := first; i < first+n; i++ {
					r := i % window
					off := uint64(r * w.size)
					sp := tr.begin(parent, "msg.recv", repIdx, i)
					tr.fold(sp)
					t0 := clk.Now()
					switch w.scheme {
					case "ec":
						recvErr = sess.B.ReceiveEC(mr, off, w.size, scratch[r])
					case "adaptive":
						recvErr = sess.B.ReceiveAdaptive(ad, mr, off, w.size, scratch[r])
					default:
						recvErr = sess.B.ReceiveSR(mr, off, w.size)
					}
					res.completions = append(res.completions, clk.Since(t0).Nanoseconds())
					tr.end(sp)
					tr.fold(parent)
					if recvErr != nil {
						recvErr = fmt.Errorf("recv msg %d: %w", i, recvErr)
						return
					}
					switch w.scheme {
					case "ec":
						res.ecKiB += float64(w.size) / 1024
					case "adaptive":
						rung, switchesSeen = res.addAdaptiveEC(ad, w.size, rung, switchesSeen)
					}
					if verify {
						region := st.recv[off : off+uint64(w.size)]
						if !patternEqual(region, seed, r) {
							recvErr = fmt.Errorf("recv msg %d: received data corrupted", i)
							return
						}
						digest.Write(region)
					}
				}
			}},
		)
		if sendErr != nil {
			return sendErr
		}
		return recvErr
	}

	// finish reads a session's counters, which Close resets on a pooled
	// deployment and tears down on an unpooled one, then closes it — or
	// quarantines it when its transfer failed.
	finish := func(sess *reliability.Session, parent, msg int) {
		res.collect(sess)
		sp := tr.begin(parent, "session.close", repIdx, msg)
		if res.err != nil {
			sess.Quarantine()
			quarantined++
		} else {
			sess.Close()
		}
		tr.end(sp)
	}

	// --- window: first Write to last Receive return / last Close --------
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	winSpan := tr.begin(repSpan, "window", repIdx, -1)
	tr.fold(winSpan)
	wallStart, simStart := time.Now(), clk.Now()
	if dep.gen != nil {
		dep.gen.Start()
	}
	if w.churn {
		for f := 0; f < w.msgs && res.err == nil; f++ {
			if f > 0 {
				sp := tr.begin(winSpan, "session.lease", repIdx, f)
				sess, err = w.newFlow(dep)
				if err != nil {
					res.err = err
					break
				}
				mr = sess.Pair.B.Ctx.RegMR(st.recv)
				tr.end(sp)
				leases++
			}
			res.err = transfer(sess, winSpan, f, 1)
			finish(sess, winSpan, f)
		}
	} else {
		res.err = transfer(sess, winSpan, 0, w.msgs)
	}
	res.windowNs = time.Since(wallStart).Nanoseconds()
	res.tuple.SimNs = clk.Since(simStart).Nanoseconds()
	tr.end(winSpan)
	tr.fold(0)
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = uint64(m1.NumGC - m0.NumGC)
	res.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	res.digest = digest.Sum64()

	// --- teardown and counter read-out ----------------------------------
	if dep.gen != nil {
		dep.gen.Stop()
		res.counts["netem.cross_pkts"] = float64(dep.gen.Sent())
	}
	if !w.churn {
		finish(sess, repSpan, -1)
	}
	built := 1
	if dep.topo != nil {
		res.collectNetem(dep)
		built, _ = dep.topo.PoolStats()
		if err := dep.topo.ClosePools(); err != nil && res.err == nil {
			res.err = err
		}
	}
	if ad != nil {
		res.counts["reliability.ladder_switches"] = float64(len(ad.Switches()))
	}
	res.counts["session.leases"] = float64(leases)
	res.counts["session.deployments_built"] = float64(built)
	res.counts["session.quarantined"] = float64(quarantined)
	res.tuple.RxPkts = uint64(res.counts["nicsim.rx_pkts"])
	res.tuple.DataRecv = uint64(res.counts["core.data_pkts_recv"])
	res.tuple.Dups = uint64(res.counts["core.dup_pkts"])
	return res
}

// addAdaptiveEC walks the segments of the message just received and
// adds the ones that ran on an EC rung to ecKiB. The rung of a segment
// is taken as the adaptor's after the previous segment was observed;
// the real plan lags by up to the posting window, so this is an
// estimate, which is all the ledger row needs.
func (res *repResult) addAdaptiveEC(ad *reliability.Adaptor, size int, rung reliability.Mode, seen int) (reliability.Mode, int) {
	segBytes := ad.Config().SegmentChunks * chunkBytes
	sw := ad.Switches()[seen:]
	for s := 0; s*segBytes < size; s++ {
		if rung.Scheme == reliability.SchemeEC {
			res.ecKiB += float64(min(segBytes, size-s*segBytes)) / 1024 * float64(rung.M) / ecM
		}
		for len(sw) > 0 && sw[0].AfterSeg == s {
			rung, sw = sw[0].To, sw[1:]
		}
	}
	return rung, len(ad.Switches())
}

// collect adds one session's public counters; it must run before the
// session is closed.
func (res *repResult) collect(sess *reliability.Session) {
	a, b := sess.Pair.A, sess.Pair.B
	sa, sb := a.QP.Stats(), b.QP.Stats()
	link := sess.Pair.Link
	c := res.counts
	c["nicsim.rx_pkts"] += float64(a.Dev.RxPackets.Load() + b.Dev.RxPackets.Load())
	c["nicsim.rx_drop_no_qp"] += float64(a.Dev.RxDropNoQP.Load() + b.Dev.RxDropNoQP.Load())
	// DPA workers outlive the leases of a pooled deployment and are never
	// reset, so the last flow's reading is already the rep's total.
	c["dpa.cqes_processed"] = float64(a.Ctx.Pool().Processed() + b.Ctx.Pool().Processed())
	c["core.data_pkts_sent"] += float64(sa.PacketsSent + sb.PacketsSent)
	c["core.data_pkts_recv"] += float64(sa.PacketsReceived + sb.PacketsReceived)
	c["core.dup_pkts"] += float64(sa.Duplicates + sb.Duplicates)
	c["core.late_discarded"] += float64(sa.LateDiscarded + sb.LateDiscarded)
	c["core.cts_sent"] += float64(sa.CTSSent + sb.CTSSent)
	c["fabric.tx_pkts"] += float64(link.AB.Tx.Load() + link.BA.Tx.Load())
	c["fabric.dropped_pkts"] += float64(link.AB.Dropped.Load() + link.BA.Dropped.Load())
	c["reliability.retransmits"] += float64(sess.A.Retransmits.Load() + sess.B.Retransmits.Load())
	c["reliability.nacks_sent"] += float64(sess.A.NacksSent.Load() + sess.B.NacksSent.Load())
	c["reliability.late_reacks"] += float64(sess.A.LateReAcks.Load() + sess.B.LateReAcks.Load())
}

// collectNetem adds the topology's queue counters.
func (res *repResult) collectNetem(dep *deployment) {
	c := res.counts
	for _, e := range dep.topo.Edges() {
		c["netem.queue_hwm_bytes"] = max(c["netem.queue_hwm_bytes"],
			float64(e.Fwd.HighWatermark()), float64(e.Rev.HighWatermark()))
		c["netem.enqueued_pkts"] += float64(e.Fwd.Enqueued.Load() + e.Rev.Enqueued.Load())
		c["netem.delivered_pkts"] += float64(e.Fwd.Delivered.Load() + e.Rev.Delivered.Load())
	}
	c["netem.tail_drops"] = float64(dep.topo.TailDrops())
	c["netem.channel_drops"] = float64(dep.topo.ChannelDrops())
	c["netem.ecn_marked"] = float64(dep.topo.MarkedPackets())
}
