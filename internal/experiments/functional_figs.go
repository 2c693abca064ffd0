package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/ec"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/session"
	"sdrrdma/internal/wan"
)

// encodeRound is the length of one code's turn in measureEncodeGbps:
// short enough that most turns fit between two preemptions of a busy
// host, long enough for several encodes of a 2 MiB submessage.
const encodeRound = time.Millisecond

// measureEncodeGbps measures the one-core encode throughput of codes of
// one (k, m) split over a submessage of chunkBytes chunks, in Gbit/s of
// data encoded. The codes take turns in encodeRound rounds, durationSec/2
// per code in all, and each keeps its best round: a stretch in which the
// host preempts the measurement then costs a code a few rounds instead
// of its whole figure, so it cannot invert the codes' order. Encode
// runs on the calling goroutine, so the rate is one core's.
func measureEncodeGbps(codes []ec.Code, chunkBytes int, durationSec float64) ([]float64, error) {
	data := make([][]byte, codes[0].K())
	parity := make([][]byte, codes[0].M())
	for i := range data {
		data[i] = make([]byte, chunkBytes)
		for j := range data[i] {
			data[i][j] = byte(i*31 + j)
		}
	}
	for i := range parity {
		parity[i] = make([]byte, chunkBytes)
	}
	for _, c := range codes {
		_ = c.Encode(data, parity) // warmup
	}
	rounds := max(1, int(durationSec/2/encodeRound.Seconds()))
	bits := float64(len(data)*chunkBytes) * 8
	best := make([]float64, len(codes))
	for range rounds {
		for i, c := range codes {
			iters, start := 0, time.Now()
			for deadline := start.Add(encodeRound); time.Now().Before(deadline); iters++ {
				if err := c.Encode(data, parity); err != nil {
					return nil, err
				}
			}
			best[i] = max(best[i], float64(iters)*bits/time.Since(start).Seconds()/1e9)
		}
	}
	return best, nil
}

// throughputResult captures one fixed-message-count run of the real
// SDR pipeline over the fast (zero-latency, lossless) fabric.
type throughputResult struct {
	msgs    int
	bytes   int64
	packets uint64
	elapsed time.Duration
}

func (r throughputResult) gbps() float64 {
	return float64(r.bytes) * 8 / r.elapsed.Seconds() / 1e9
}

func (r throughputResult) mpps() float64 {
	return float64(r.packets) / r.elapsed.Seconds() / 1e6
}

// runThroughput pushes msgs messages of msgSize bytes from client to
// server with the given in-flight window and sender thread count,
// mirroring the §5.4.1 ib_write_bw-style loop: the server emulates a
// reliability layer by busy-polling the completion bitmap, then
// completes and reposts each receive.
func runThroughput(cfg core.Config, msgSize, msgs, inflight, senders int) (throughputResult, error) {
	pair, err := core.NewPair(cfg, fabric.Config{}, fabric.Config{}, 0)
	if err != nil {
		return throughputResult{}, err
	}
	defer pair.Close()

	recvBuf := make([]byte, inflight*msgSize)
	mr := pair.B.Ctx.RegMR(recvBuf)
	data := make([]byte, msgSize)
	for i := range data {
		data[i] = byte(i)
	}

	startPkts := pair.B.QP.Stats().PacketsReceived
	start := time.Now()

	// Server: keep `inflight` receives posted; poll bitmaps; complete
	// and repost until msgs are done.
	serverDone := make(chan error, 1)
	go func() {
		active := make([]*core.RecvHandle, 0, inflight)
		posted, completed := 0, 0
		for posted < inflight && posted < msgs {
			h, err := pair.B.QP.RecvPost(mr, uint64((posted%inflight)*msgSize), msgSize)
			if err != nil {
				serverDone <- err
				return
			}
			active = append(active, h)
			posted++
		}
		for completed < msgs {
			progressed := false
			for i := 0; i < len(active); i++ {
				h := active[i]
				if h == nil || !h.Done() {
					continue
				}
				// reliability layer emulation: bitmap full → "ACK" →
				// recv_complete (+ repost: the Fig 14 repost overhead)
				if err := h.Complete(); err != nil {
					serverDone <- err
					return
				}
				completed++
				progressed = true
				if posted < msgs {
					nh, err := pair.B.QP.RecvPost(mr, uint64((posted%inflight)*msgSize), msgSize)
					if err != nil {
						serverDone <- err
						return
					}
					active[i] = nh
					posted++
				} else {
					active[i] = nil
				}
			}
			if !progressed {
				runtime.Gosched()
			}
		}
		serverDone <- nil
	}()

	// Clients: split the message count across sender threads.
	clientErr := make(chan error, senders)
	per := msgs / senders
	extra := msgs % senders
	for s := 0; s < senders; s++ {
		n := per
		if s < extra {
			n++
		}
		go func(n int) {
			for i := 0; i < n; i++ {
				if _, err := pair.A.QP.SendPost(data, 0); err != nil {
					clientErr <- err
					return
				}
			}
			clientErr <- nil
		}(n)
	}
	for s := 0; s < senders; s++ {
		if err := <-clientErr; err != nil {
			return throughputResult{}, err
		}
	}
	if err := <-serverDone; err != nil {
		return throughputResult{}, err
	}
	elapsed := time.Since(start)
	return throughputResult{
		msgs:    msgs,
		bytes:   int64(msgs) * int64(msgSize),
		packets: pair.B.QP.Stats().PacketsReceived - startPkts,
		elapsed: elapsed,
	}, nil
}

// runRCBaseline measures the RC Write baseline of Fig 14: one reliable
// QP, Go-Back-N machinery engaged (lossless fast fabric, so the cost
// is ACK processing and in-order delivery).
func runRCBaseline(mtu, msgSize, msgs, inflight int) (throughputResult, error) {
	devA := nicsim.NewDevice("rcA")
	devB := nicsim.NewDevice("rcB")
	link := fabric.NewLink(devA, devB, fabric.Config{}, fabric.Config{})
	recvCQ := nicsim.NewCQ(1<<16, false)
	sendCQ := nicsim.NewCQ(1<<16, false)
	// The loop below keeps at most inflight writes outstanding; the send
	// window is that budget in packets, so it never paces.
	window := inflight * ((msgSize + mtu - 1) / mtu)
	qpA := nicsim.NewRCQP(devA, nil, mtu, nicsim.NewCQ(16, false), sendCQ, time.Second, 16, window)
	qpB := nicsim.NewRCQP(devB, nil, mtu, recvCQ, nil, time.Second, 16, window)
	defer qpA.Close()
	defer qpB.Close()
	qpA.Connect(link.AB, qpB.QPN())
	qpB.Connect(link.BA, qpA.QPN())

	recvBuf := make([]byte, msgSize)
	mr := devB.RegMR(recvBuf)
	data := make([]byte, msgSize)

	start := time.Now()
	done := make(chan struct{})
	go func() {
		var batch [256]nicsim.CQE
		got := 0
		for got < msgs {
			got += recvCQ.Poll(batch[:])
			if got < msgs {
				runtime.Gosched()
			}
		}
		close(done)
	}()
	// window of inflight unacked writes, throttled by send completions
	var batch [256]nicsim.CQE
	outstanding := 0
	for sent := 0; sent < msgs; {
		for outstanding >= inflight {
			n := sendCQ.Poll(batch[:])
			outstanding -= n
			if n == 0 {
				runtime.Gosched()
			}
		}
		qpA.WriteImm(mr.Key(), 0, data, uint32(sent), uint64(sent))
		sent++
		outstanding++
	}
	<-done
	elapsed := time.Since(start)
	return throughputResult{
		msgs:    msgs,
		bytes:   int64(msgs) * int64(msgSize),
		packets: devB.RxPackets.Load(),
		elapsed: elapsed,
	}, nil
}

// measure times run at a message count calibrated to take roughly
// seconds: a 16-message probe fixes the rate, clamped to [32, 200000]
// messages.
func measure(run func(msgs int) (throughputResult, error), seconds float64) (throughputResult, error) {
	probe, err := run(16)
	if err != nil {
		return throughputResult{}, err
	}
	rate := float64(probe.msgs) / probe.elapsed.Seconds()
	return run(min(max(int(rate*seconds), 32), 200000))
}

// --- WAN functional figures (virtual clock) --------------------------------

// wanOneWay is the paper's working channel: 3750 km ⇒ 12.5 ms one-way,
// 25 ms RTT (§2.1).
const wanOneWay = 12500 * time.Microsecond

// wanMsgBytes sizes the WAN transfers: 8 MiB = 2048 packets at the
// 4 KiB MTU, 128 chunks at the 64 KiB bitmap resolution.
const wanMsgBytes = 8 << 20

// wanResult is one reliable WAN transfer measured on the run's clock.
type wanResult struct {
	completion time.Duration // sender-side completion
	packets    uint64        // data packets injected (incl. retransmissions)
}

// wanPattern fills a reproducible payload.
func wanPattern(n int, seed byte) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = seed ^ byte(i*11) ^ byte(i>>9)
	}
	return data
}

// wanCoreCfg is the WAN deployment shape every wan-functional cell
// shares (the pool key: one deployment build serves the whole sweep).
func wanCoreCfg(clk clock.Clock) core.Config {
	return core.Config{
		MTU: 4096, ChunkBytes: 64 << 10, MaxMsgBytes: 16 << 20,
		// CQ depth covers a whole message per channel; deeper rings
		// only add per-cell allocation (unused entirely in the virtual
		// clock's synchronous sink mode).
		Generations: 2, Channels: 4, CQDepth: 1 << 12,
		Clock: clk,
	}
}

// runWANReliability runs one reliable 25 ms-RTT transfer of the SDR
// reliability stack (scheme "sr", "sr-nack" or "ec") over the impaired
// 400 Gbit/s fabric on clk, returning the sender's completion time in
// that clock's domain. The session is leased from pool and re-homed
// onto clk (which must be of the kind of the pool's template clock), so
// sweep cells stop cold-building deployments and pay only the rebind.
func runWANReliability(pool *session.Pool, clk clock.Clock, scheme string, drop float64, size int, seed int64) (wanResult, error) {
	relCfg, err := reliability.Config{RTT: 2 * wanOneWay}.ForScheme(scheme)
	if err != nil {
		return wanResult{}, err
	}
	fabCfg := func(s int64) fabric.Config {
		return fabric.Config{
			Latency: wanOneWay, BandwidthBps: 400e9,
			DropProb: drop, Seed: s, Clock: clk,
		}
	}
	s, err := pool.LeaseLinkedOn(clk, relCfg, fabCfg(seed), fabCfg(seed+1000), wanOneWay)
	if err != nil {
		return wanResult{}, err
	}
	defer s.Close()
	tr, err := s.NewTransfer(scheme, reliability.AdaptorConfig{}, size, 1)
	if err != nil {
		return wanResult{}, err
	}
	out := tr.Drive("wan/"+scheme, wanPattern(size, byte(seed)))
	if err := out.Err(); err != nil {
		return wanResult{}, err
	}
	return wanResult{completion: out.SendDone, packets: s.Pair.A.QP.Stats().PacketsSent}, nil
}

// wanRCWindow is the outstanding-packet cap the WAN RC baseline runs
// with: a real ASIC paces against a bounded WQE/PSN window instead of
// keeping a whole message in flight. 4096 packets (16 MiB at the 4 KiB
// MTU) does not throttle the 8 MiB transfers here; what makes the
// red-region rows (P ≥ 1e-2) feasible at tens of thousands of packets
// instead of tens of millions is the sender's NAK-storm filter — one
// Go-Back-N restart per loss event rather than per duplicate NAK.
const wanRCWindow = 4096

// runWANRC runs the commodity RC Go-Back-N baseline over the same WAN
// channel: one 8 MiB Write-with-immediate, NAK- and timeout-driven
// recovery, RTO = 3·RTT, windowed as a real ASIC would pace.
func runWANRC(clk clock.Clock, drop float64, size int, seed int64) (wanResult, error) {
	rtt := 2 * wanOneWay
	fabCfg := func(s int64) fabric.Config {
		return fabric.Config{
			Latency: wanOneWay, BandwidthBps: 400e9,
			DropProb: drop, Seed: s, Clock: clk,
		}
	}
	devA := nicsim.NewDevice("rcWanA")
	devB := nicsim.NewDevice("rcWanB")
	link := fabric.NewLink(devA, devB, fabCfg(seed), fabCfg(seed+1000))
	rc := nicsim.NewRCPair(clk, devA, devB, link.AB, link.BA, 4096, 3*rtt, 16, wanRCWindow)
	elapsed, err := runRCWrite(clk, rc, devB, size, seed, rtt)
	if err != nil {
		return wanResult{}, err
	}
	return wanResult{completion: elapsed, packets: link.AB.Tx.Load()}, nil
}

// runRCWrite times the transfer every RC baseline row measures — one
// size-byte Write-with-immediate through rc into a fresh buffer on devB,
// the sender re-checking for its completion every rtt — and closes rc.
func runRCWrite(clk clock.Clock, rc *nicsim.RCPair, devB *nicsim.Device, size int, seed int64, rtt time.Duration) (time.Duration, error) {
	defer rc.Close()
	data := wanPattern(size, byte(seed))
	recvBuf := make([]byte, size)
	mr := devB.RegMR(recvBuf)

	start := clk.Now()
	var elapsed time.Duration
	clock.Join(clk, func() {
		rc.A.WriteImm(mr.Key(), 0, data, 0, 1)
		rc.Wait(1, rtt, time.Time{})
		elapsed = clk.Since(start)
	})
	// Only a virtual clock reads the buffer: on a real one RC
	// retransmissions may still be in flight, their DMA racing the read.
	if clk.IsVirtual() && !bytes.Equal(recvBuf, data) {
		return 0, fmt.Errorf("rc-gbn: received data corrupted")
	}
	return elapsed, nil
}

// wanFunctional runs the §5.1-style WAN scenarios on the real
// functional stack instead of the model: SR RTO, SR NACK, EC and the
// RC Go-Back-N baseline at the paper's 25 ms RTT and 400 Gbit/s, each
// as an actual packet-level transfer with DMA into real buffers.
func wanFunctional(o Options) (sweep, error) {
	// Full fidelity (cmd/sdr-experiments default): 8 MiB transfers,
	// loss up to the 1e-2 red region. Quick mode (tests, benches with
	// Samples < 500) shrinks the message and the sweep.
	size := wanMsgBytes
	drops := []float64{0, 1e-3, 1e-2}
	rcDrops := []float64{0, 1e-4, 1e-3, 1e-2}
	if o.Samples < 500 {
		size = 2 << 20
		drops = []float64{0, 1e-3}
		rcDrops = []float64{0, 1e-4}
	}
	if o.RealClock {
		// Thousands of GBN retransmissions are engine events on the
		// virtual clock but live time.AfterFunc timers on the real one;
		// keep the wall-clock baseline run to the civilized loss rates.
		rcDrops = []float64{0, 1e-4}
	}
	// One cell per (scheme, drop); each cell draws its seed with the
	// splitmix64 mix, so the figure does not depend on which lane (or
	// how many) computes it.
	type wanCell struct {
		scheme string
		drop   float64
	}
	var cells []wanCell
	var labels [][]string
	for _, scheme := range []string{"sr", "sr-nack", "ec", "rc-gbn"} {
		schemeDrops := drops
		if scheme == "rc-gbn" {
			schemeDrops = rcDrops
		}
		for _, drop := range schemeDrops {
			cells = append(cells, wanCell{scheme: scheme, drop: drop})
			labels = append(labels, []string{scheme, pLabel(drop)})
		}
	}
	// One session pool serves every SDR cell of the sweep: deployments
	// cold-build at most once per concurrent lane and each cell leases
	// one re-homed onto its lane's clock (session.Pool.LeaseLinkedOn
	// documents why lease order cannot leak into the figure). The
	// template clock never runs; it only has to be of the run's kind,
	// which fixes the deployments' delivery mode.
	var template clock.Clock = clock.NewVirtual()
	if o.RealClock {
		template = clock.NewReal()
	}
	pool, err := session.NewPool(session.Config{
		Core: wanCoreCfg(template), Name: "wan-functional",
	})
	if err != nil {
		return sweep{}, err
	}
	idealData := uint64((size + 4095) / 4096)
	return sweep{
		labels: labels,
		title:  fmt.Sprintf(", %s transfers (%s clock)", sizeLabel(int64(size)), o.clockLabel()),
		notes: []string{fmt.Sprintf(
			"rc-gbn runs windowed (%d outstanding packets + one GBN restart per loss event, the ASIC pacing behaviour) — without it the P>=1e-2 red region injects tens of millions of packets (the §2.2 pathology; protosim's gbn figure sweeps the unwindowed variant in the chunk-level DES); sweep capped at P=%.0e",
			wanRCWindow, rcDrops[len(rcDrops)-1])},
		done: func() []string { pool.Close(); return nil },
		cell: func(clk clock.Clock, r, _ int) ([]string, error) {
			c := cells[r]
			seed := clock.CellSeed(o.Seed, r)
			var res wanResult
			var err error
			if c.scheme == "rc-gbn" {
				res, err = runWANRC(clk, c.drop, size, seed)
			} else {
				res, err = runWANReliability(pool, clk, c.scheme, c.drop, size, seed)
			}
			if err != nil {
				return nil, fmt.Errorf("wan-functional %s @%g: %w", c.scheme, c.drop, err)
			}
			ideal := idealData
			if c.scheme == "ec" {
				ideal = idealData + idealData/4 // + m/k = 8/32 parity
			}
			return []string{
				fmt.Sprintf("%.3f", float64(res.completion)/float64(time.Millisecond)),
				fmt.Sprintf("%d", res.packets),
				fmt.Sprintf("%.3fx", float64(res.packets)/float64(ideal)),
			}, nil
		},
	}, nil
}

// fig14: SDR throughput vs message size (16 in-flight Writes, 64 KiB
// chunks) against the RC baseline, plus DPA-worker scaling.
func fig14(o Options) (sweep, error) {
	cfgFor := func(channels int) core.Config {
		return core.Config{
			MTU: 4096, ChunkBytes: 64 << 10, MaxMsgBytes: 16 << 20,
			Generations: 1, Channels: channels, CQDepth: 1 << 14,
		}
	}
	var labels [][]string
	var runs []func() (throughputResult, error)
	add := func(label string, seconds float64, run func(msgs int) (throughputResult, error)) {
		labels = append(labels, []string{label})
		runs = append(runs, func() (throughputResult, error) { return measure(run, seconds) })
	}
	// Left panel: message-size sweep at 16 workers.
	for _, size := range []int{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		add("SDR "+sizeLabel(int64(size)), o.DurationSec, func(msgs int) (throughputResult, error) {
			return runThroughput(cfgFor(16), size, msgs, 16, 2)
		})
	}
	// RC baseline at a small and a large size.
	for _, size := range []int{64 << 10, 4 << 20} {
		add("RC "+sizeLabel(int64(size)), o.DurationSec, func(msgs int) (throughputResult, error) {
			return runRCBaseline(4096, size, msgs, 16)
		})
	}
	// Right panel: worker scaling at 4 MiB messages.
	for _, workers := range []int{1, 2, 4, 8, 16} {
		add(fmt.Sprintf("SDR 4 MiB, %d workers", workers), o.DurationSec/2, func(msgs int) (throughputResult, error) {
			return runThroughput(cfgFor(workers), 4<<20, msgs, 8, 2)
		})
	}
	return sweep{labels: labels, cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		res, err := runs[r]()
		if err != nil {
			return nil, err
		}
		return []string{fmt.Sprintf("%.2f", res.gbps()), fmt.Sprintf("%.3f", res.mpps()), fmt.Sprintf("%d", res.msgs)}, nil
	}}, nil
}

// fig15: packet rate vs bitmap chunk size with 64-byte transport
// writes (per-packet DPA load is payload-independent), annotated with
// the theoretical chunk drop probability at P_drop = 1e-5.
func fig15(o Options) (sweep, error) {
	const pktsPerMsg = 2048
	chunks := []int{1, 2, 4, 8, 16, 32, 64}
	return sweep{labels: labelsOf(chunks, strconv.Itoa), cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		cfg := core.Config{
			MTU: 64, ChunkBytes: 64 * chunks[r], MaxMsgBytes: 64 * pktsPerMsg,
			Generations: 1, Channels: 16, CQDepth: 1 << 14,
		}
		res, err := measure(func(msgs int) (throughputResult, error) {
			return runThroughput(cfg, 64*pktsPerMsg, msgs, 16, 2)
		}, o.DurationSec/2)
		if err != nil {
			return nil, err
		}
		return []string{fmt.Sprintf("%.3f", res.mpps()), fmt.Sprintf("%.1e", wan.ChunkDropProb(1e-5, chunks[r]))}, nil
	}}, nil
}

// fig16: packet-rate scaling vs receive worker count with 64-byte
// writes, against the paper's next-generation line-rate requirements
// (4 KiB MTU: 400G≈12, 800G≈24, 1600G≈49, 3200G≈98 Mpkts/s).
func fig16(o Options) (sweep, error) {
	const pktsPerMsg = 2048
	workers := []int{1, 2, 4, 8, 16, 32}
	var base float64 // the first row's rate: wall cells run in row order
	return sweep{labels: labelsOf(workers, strconv.Itoa), cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		cfg := core.Config{
			MTU: 64, ChunkBytes: 64 * 16, MaxMsgBytes: 64 * pktsPerMsg,
			Generations: 1, Channels: workers[r], CQDepth: 1 << 14,
		}
		res, err := measure(func(msgs int) (throughputResult, error) {
			return runThroughput(cfg, 64*pktsPerMsg, msgs, 16, 4)
		}, o.DurationSec/2)
		if err != nil {
			return nil, err
		}
		mpps := res.mpps()
		if base == 0 {
			base = mpps
		}
		return []string{fmt.Sprintf("%.3f", mpps), fmt.Sprintf("%.2fx", mpps/base)}, nil
	}}, nil
}
