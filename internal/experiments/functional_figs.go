package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
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

func init() {
	registry["wan-functional"] = wanFunctional
}

// measureEncodeGbps measures one-core encode throughput of code over a
// 32-shard submessage of chunkBytes chunks, in Gbit/s of data encoded.
// The encoder's worker-pool dispatch is forced serial for the duration
// so the per-core number stays honest regardless of GOMAXPROCS (the
// parallel encoder's scaling need not be linear, so dividing an
// aggregate rate by the core count would misstate it).
func measureEncodeGbps(c ec.Code, chunkBytes int, durationSec float64) float64 {
	defer ec.ForceParallelism(1)()
	data := make([][]byte, c.K())
	parity := make([][]byte, c.M())
	for i := range data {
		data[i] = make([]byte, chunkBytes)
		for j := range data[i] {
			data[i][j] = byte(i*31 + j)
		}
	}
	for i := range parity {
		parity[i] = make([]byte, chunkBytes)
	}
	// warmup
	_ = c.Encode(data, parity)
	deadline := time.Now().Add(time.Duration(durationSec * float64(time.Second) / 2))
	iters := 0
	start := time.Now()
	for time.Now().Before(deadline) {
		if err := c.Encode(data, parity); err != nil {
			return 0
		}
		iters++
	}
	elapsed := time.Since(start).Seconds()
	bits := float64(iters) * float64(c.K()*chunkBytes) * 8
	return bits / elapsed / 1e9
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

// runSweep executes n independent scenario cells. On the default
// virtual path the cells fan across clock.Lanes — every cell is a
// self-contained deterministic simulation on a pooled engine, so the
// figure is byte-identical for any worker count (Options.SweepWorkers)
// and any GOMAXPROCS. The real-clock path stays serial: wall-clock
// scenarios on one shared machine would contend for CPU and distort
// each other's timings.
func runSweep(o Options, n int, cell func(clk clock.Clock, i int)) {
	if o.RealClock {
		for i := 0; i < n; i++ {
			if o.Trace != nil {
				o.Trace.CellStart(i, clock.NowNanos(clock.Realtime()))
			}
			cell(clock.Realtime(), i)
			if o.Trace != nil {
				o.Trace.CellFinish(i, clock.NowNanos(clock.Realtime()))
			}
		}
		return
	}
	l := clock.Lanes{Workers: o.SweepWorkers}
	if o.Trace != nil {
		l.Probe = o.Trace
	}
	l.Run(n, func(v *clock.Virtual, i int) {
		if o.Trace != nil {
			// The cell's recorder rides the engine for the cell's
			// lifetime: protocol actors are attributed by name, and the
			// all-blocked deadlock report dumps each actor's last events.
			rec := o.Trace.Cell(i)
			rec.SetActorSource(v.CurrentActorName)
			v.SetEventLog(rec)
		}
		cell(v, i)
	})
}

// sweepRows runs n cells through runSweep and collects one table row
// per cell. It fails fast: cells that start after a failure are
// skipped, and the error returned is the lowest-numbered failed cell's.
func sweepRows(o Options, n int, cell func(clk clock.Clock, i int) ([]string, error)) ([][]string, error) {
	rows := make([][]string, n)
	errs := make([]error, n)
	var failed atomic.Bool
	runSweep(o, n, func(clk clock.Clock, i int) {
		if failed.Load() {
			return
		}
		if rows[i], errs[i] = cell(clk, i); errs[i] != nil {
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
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
	relCfg, err := reliability.Config{RTT: 2 * wanOneWay, K: 32, M: 8}.ForScheme(scheme)
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
	// As reliability.Outcome.BytesOK: buffer reads are only race-free on
	// the virtual clock (RC retransmissions may still be in flight here).
	if clk.IsVirtual() && !bytes.Equal(recvBuf, data) {
		return 0, fmt.Errorf("rc-gbn: received data corrupted")
	}
	return elapsed, nil
}

// wanFunctional runs the §5.1-style WAN scenarios on the real
// functional stack instead of the model: SR RTO, SR NACK, EC and the
// RC Go-Back-N baseline at the paper's 25 ms RTT and 400 Gbit/s, each
// as an actual packet-level transfer with DMA into real buffers. On
// the default virtual clock the whole sweep is deterministic for a
// fixed seed and finishes in milliseconds of wall time; Options.
// RealClock runs the identical scenarios against the wall clock (the
// before/after the README quotes).
func wanFunctional(o Options) (*Result, error) {
	res := &Result{
		Name:   "WAN functional", // Title set below, after quick-mode sizing
		Header: []string{"scheme", "P_drop", "completion [ms]", "packets", "overhead"},
		Notes: []string{
			"packet-level runs of the real Go stack (DMA into user buffers) — not the closed-form model",
			"completion is sender-side; overhead is injected/ideal data packets (EC ideal includes parity)",
		},
	}
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
	res.Title = fmt.Sprintf("Functional SDR stack at 25 ms RTT, 400 Gbit/s, %s transfers (%s clock)",
		sizeLabel(int64(size)), o.clockLabel())
	res.Notes = append(res.Notes, fmt.Sprintf(
		"rc-gbn runs windowed (%d outstanding packets + one GBN restart per loss event, the ASIC pacing behaviour) — without it the P>=1e-2 red region injects tens of millions of packets (the §2.2 pathology; protosim's gbn figure sweeps the unwindowed variant in the chunk-level DES); sweep capped at P=%.0e",
		wanRCWindow, rcDrops[len(rcDrops)-1]))
	// Flatten the (scheme, drop) grid into independent sweep cells;
	// each cell draws its seed with the splitmix64 mix, so the figure
	// does not depend on which lane (or how many) computes it.
	type wanCell struct {
		scheme string
		drop   float64
	}
	var cells []wanCell
	for _, scheme := range []string{"sr", "sr-nack", "ec", "rc-gbn"} {
		schemeDrops := drops
		if scheme == "rc-gbn" {
			schemeDrops = rcDrops
		}
		for _, drop := range schemeDrops {
			cells = append(cells, wanCell{scheme: scheme, drop: drop})
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
		return nil, err
	}
	defer pool.Close()
	idealData := uint64((size + 4095) / 4096)
	res.Rows, err = sweepRows(o, len(cells), func(clk clock.Clock, i int) ([]string, error) {
		c := cells[i]
		seed := clock.CellSeed(o.Seed, i)
		var r wanResult
		var err error
		if c.scheme == "rc-gbn" {
			r, err = runWANRC(clk, c.drop, size, seed)
		} else {
			r, err = runWANReliability(pool, clk, c.scheme, c.drop, size, seed)
		}
		if err != nil {
			return nil, fmt.Errorf("wan-functional %s @%g: %w", c.scheme, c.drop, err)
		}
		ideal := idealData
		if c.scheme == "ec" {
			ideal = idealData + idealData/4 // + m/k = 8/32 parity
		}
		return []string{
			c.scheme,
			fmt.Sprintf("%.0e", c.drop),
			fmt.Sprintf("%.3f", float64(r.completion)/float64(time.Millisecond)),
			fmt.Sprintf("%d", r.packets),
			fmt.Sprintf("%.3fx", float64(r.packets)/float64(ideal)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// fig14: SDR throughput vs message size (16 in-flight Writes, 64 KiB
// chunks) against the RC baseline, plus DPA-worker scaling.
func fig14(o Options) (*Result, error) {
	res := &Result{
		Name:   "Fig 14",
		Title:  "SDR throughput (16 in-flight, 64 KiB chunks) and worker scaling",
		Header: []string{"config", "Gbit/s", "Mpkts/s", "msgs"},
		Notes: []string{
			fmt.Sprintf("functional Go pipeline on %d CPUs — shapes comparable, absolute rates are not 400G silicon", runtime.NumCPU()),
			"paper: SDR saturates 400G from 512 KiB; smaller messages lose to receive-repost overhead; RC Writes lead below 512 KiB",
		},
	}
	cfgFor := func(channels int) core.Config {
		return core.Config{
			MTU: 4096, ChunkBytes: 64 << 10, MaxMsgBytes: 16 << 20,
			Generations: 1, Channels: channels, CQDepth: 1 << 14,
		}
	}
	// Left panel: message-size sweep at 16 workers.
	for _, size := range []int{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		run := func(msgs int) (throughputResult, error) {
			return runThroughput(cfgFor(16), size, msgs, 16, 2)
		}
		r, err := measure(run, o.DurationSec)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			"SDR " + sizeLabel(int64(size)),
			fmt.Sprintf("%.2f", r.gbps()), fmt.Sprintf("%.3f", r.mpps()),
			fmt.Sprintf("%d", r.msgs),
		})
	}
	// RC baseline at a small and a large size.
	for _, size := range []int{64 << 10, 4 << 20} {
		run := func(msgs int) (throughputResult, error) {
			return runRCBaseline(4096, size, msgs, 16)
		}
		r, err := measure(run, o.DurationSec)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			"RC " + sizeLabel(int64(size)),
			fmt.Sprintf("%.2f", r.gbps()), fmt.Sprintf("%.3f", r.mpps()),
			fmt.Sprintf("%d", r.msgs),
		})
	}
	// Right panel: worker scaling at 4 MiB messages.
	for _, workers := range []int{1, 2, 4, 8, 16} {
		run := func(msgs int) (throughputResult, error) {
			return runThroughput(cfgFor(workers), 4<<20, msgs, 8, 2)
		}
		r, err := measure(run, o.DurationSec/2)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("SDR 4 MiB, %d workers", workers),
			fmt.Sprintf("%.2f", r.gbps()), fmt.Sprintf("%.3f", r.mpps()),
			fmt.Sprintf("%d", r.msgs),
		})
	}
	return res, nil
}

// fig15: packet rate vs bitmap chunk size with 64-byte transport
// writes (per-packet DPA load is payload-independent), annotated with
// the theoretical chunk drop probability at P_drop = 1e-5.
func fig15(o Options) (*Result, error) {
	res := &Result{
		Name:   "Fig 15",
		Title:  "Packet rate vs bitmap chunk size (64 B writes, 16 workers)",
		Header: []string{"chunk [MTUs]", "Mpkts/s", "P_chunk@1e-5"},
		Notes: []string{
			fmt.Sprintf("functional Go pipeline on %d CPUs", runtime.NumCPU()),
			"paper: rate is flat across chunk sizes (workers process completions, not payloads) while P_chunk grows as 1-(1-p)^N — the bitmap resolution is free at line rate",
		},
	}
	const pktsPerMsg = 2048
	for _, chunkPkts := range []int{1, 2, 4, 8, 16, 32, 64} {
		cfg := core.Config{
			MTU: 64, ChunkBytes: 64 * chunkPkts, MaxMsgBytes: 64 * pktsPerMsg,
			Generations: 1, Channels: 16, CQDepth: 1 << 14,
		}
		run := func(msgs int) (throughputResult, error) {
			return runThroughput(cfg, 64*pktsPerMsg, msgs, 16, 2)
		}
		r, err := measure(run, o.DurationSec/2)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", chunkPkts),
			fmt.Sprintf("%.3f", r.mpps()),
			fmt.Sprintf("%.1e", wan.ChunkDropProb(1e-5, chunkPkts)),
		})
	}
	return res, nil
}

// fig16: packet-rate scaling vs receive worker count with 64-byte
// writes, against the paper's next-generation line-rate requirements
// (4 KiB MTU: 400G≈12, 800G≈24, 1600G≈49, 3200G≈98 Mpkts/s).
func fig16(o Options) (*Result, error) {
	res := &Result{
		Name:   "Fig 16",
		Title:  "Packet rate vs receive DPA workers (64 B writes)",
		Header: []string{"workers", "Mpkts/s", "scaling vs 1 worker"},
		Notes: []string{
			fmt.Sprintf("functional Go pipeline on %d CPUs — scaling saturates at the host core count; BlueField-3 has 256 DPA threads", runtime.NumCPU()),
			"paper line-rate targets at 4 KiB MTU: 400G=12, 800G=24, 1600G=49, 3200G=98 Mpkts/s; DPA scales near-linearly 4→128 threads",
		},
	}
	const pktsPerMsg = 2048
	var base float64
	for _, workers := range []int{1, 2, 4, 8, 16, 32} {
		cfg := core.Config{
			MTU: 64, ChunkBytes: 64 * 16, MaxMsgBytes: 64 * pktsPerMsg,
			Generations: 1, Channels: workers, CQDepth: 1 << 14,
		}
		run := func(msgs int) (throughputResult, error) {
			return runThroughput(cfg, 64*pktsPerMsg, msgs, 16, 4)
		}
		r, err := measure(run, o.DurationSec/2)
		if err != nil {
			return nil, err
		}
		mpps := r.mpps()
		if base == 0 {
			base = mpps
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.3f", mpps),
			fmt.Sprintf("%.2fx", mpps/base),
		})
	}
	return res, nil
}
