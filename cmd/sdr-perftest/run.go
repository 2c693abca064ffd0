package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/netem"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/stats"
	"sdrrdma/internal/telemetry"
	"sdrrdma/internal/wan"
)

// Options configures one perftest run: sustained back-to-back windowed
// transfers through the full nicsim/core/reliability path, the Go
// equivalent of the paper's sdr_write_bw benchmark.
type Options struct {
	// Scheme selects the reliability protocol: "sr", "sr-nack", "ec"
	// or "adaptive".
	Scheme string
	// Clock is "virtual" (deterministic DES; goodput is exact at the
	// simulated line rate) or "real" (wall clock; host-throughput
	// stress mode).
	Clock string
	// Size is the bytes per message; Msgs is how many back-to-back
	// messages the run transfers.
	Size, Msgs int
	// Window is the receive-region rotation depth: message i lands at
	// offset (i%Window)·Size of one large MR, and EC/adaptive scratch
	// MRs rotate the same way. Rotation is not needed for safety — a
	// receive retires its slots at completion, so no late
	// retransmission writes a returned region — but it keeps the
	// receive footprint of sdr_write_bw's window of buffers.
	Window int
	// MTU, Chunk and Channels shape the SDR deployment.
	MTU, Chunk, Channels int
	// RTT is the emulated round-trip; BandwidthBps the per-direction
	// line rate; Drop the per-packet loss probability.
	RTT          time.Duration
	BandwidthBps float64
	Drop         float64
	// Seed fixes every random stream (fabric loss draws, payload
	// patterns, cross-traffic arrivals).
	Seed int64
	// CrossBps, when positive, switches to the contended-bottleneck
	// mode: the flow runs across a netem queue shared with an
	// open-loop background source offering CrossBps of load.
	CrossBps float64
	// CrossPoisson selects Poisson cross-traffic arrivals (CBR
	// otherwise); CrossBufferBytes bounds the shared queue (tail-drop).
	CrossPoisson     bool
	CrossBufferBytes int
	// Verify enables receive-side content verification and digest
	// chaining, on either clock: a returned receive's region is the
	// caller's until it is posted again.
	Verify bool
	// Trace, when set, flight-records the run into cell 0 of the
	// trace: queue/reliability/session probes plus one EvTransfer per
	// completed message. Under the virtual clock the recorded events
	// are byte-identical per seed.
	Trace *telemetry.Trace
}

func (o Options) withDefaults() Options {
	if o.Scheme == "" {
		o.Scheme = "sr"
	}
	if o.Clock == "" {
		o.Clock = "virtual"
	}
	if o.Size == 0 {
		o.Size = 4 << 20
	}
	if o.Msgs == 0 {
		o.Msgs = 32
	}
	if o.Window == 0 {
		o.Window = 4
	}
	if o.MTU == 0 {
		o.MTU = 4096
	}
	if o.Chunk == 0 {
		o.Chunk = 64 << 10
	}
	if o.Channels == 0 {
		o.Channels = 4
	}
	if o.RTT == 0 {
		o.RTT = time.Millisecond
	}
	if o.BandwidthBps == 0 {
		o.BandwidthBps = 100e9
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.CrossBufferBytes == 0 {
		o.CrossBufferBytes = 4 << 20
	}
	return o
}

// Result is one perftest measurement.
type Result struct {
	Scheme string
	// Bytes is the goodput payload moved (Msgs × Size).
	Bytes int64
	Msgs  int
	// SimElapsed is the transfer span in the session clock's domain
	// (virtual time under -clock virtual); WallElapsed is host time
	// spent on the data path — the Verify pattern check and digest are
	// the harness checking its own output and are timed out of it.
	SimElapsed, WallElapsed time.Duration
	// GoodputGbps is payload throughput at the simulated clock.
	GoodputGbps float64
	// HostPackets counts every packet delivered to either device —
	// data and control, both directions: the host-side work metric.
	HostPackets uint64
	// HostPktsPerSec is HostPackets over WallElapsed;
	// HostPktsPerSecCore divides by Cores (1 under the virtual
	// clock's cooperative scheduling, GOMAXPROCS under real).
	HostPktsPerSec, HostPktsPerSecCore float64
	Cores                              int
	// Digest chains an FNV-1a over every received message in order;
	// byte-identical runs produce identical digests. Zero when Verify
	// is off.
	Digest uint64
	// Data-path counters from the receiving QP. DoneWrites counts the
	// duplicates DMA-written into a message that was already complete.
	DataPktsRecv, Duplicates, DoneWrites uint64
	// Contended-mode telemetry (CrossBps > 0).
	CrossSent, TailDrops, ECNMarked uint64
	// Per-transfer completion-time quantiles (receiver-side, session
	// clock domain) from a fixed-memory log-linear sketch.
	P50, P99, P999 time.Duration
}

func (r Result) String() string {
	s := fmt.Sprintf(
		"%-8s  %8.2f Gbit/s  %6.1f ms sim  %6.1f ms wall  %9d host pkts  %11.0f pkts/s  %11.0f pkts/s/core",
		r.Scheme, r.GoodputGbps, r.SimElapsed.Seconds()*1e3, r.WallElapsed.Seconds()*1e3,
		r.HostPackets, r.HostPktsPerSec, r.HostPktsPerSecCore)
	if r.Digest != 0 {
		s += fmt.Sprintf("  digest %016x", r.Digest)
	}
	if r.CrossSent > 0 {
		s += fmt.Sprintf("  cross %d sent / %d taildrop / %d marked", r.CrossSent, r.TailDrops, r.ECNMarked)
	}
	return s
}

// Run executes one perftest measurement.
func Run(o Options) (Result, error) {
	o = o.withDefaults()
	// Message i uses region i%Window, so only the first min(Window, Msgs)
	// regions are ever touched: size the buffers and scratch from that.
	regions := min(o.Window, o.Msgs)
	// withDefaults has replaced every zero; NaN fails every comparison.
	switch {
	case !(o.Drop >= 0 && o.Drop < 1):
		return Result{}, fmt.Errorf("perftest: loss rate %g outside [0,1)", o.Drop)
	case o.Msgs < 0:
		return Result{}, fmt.Errorf("perftest: message count %d < 0", o.Msgs)
	case o.Window < 0:
		return Result{}, fmt.Errorf("perftest: window %d < 0", o.Window)
	case o.Size > 0 && regions > math.MaxInt/o.Size:
		return Result{}, fmt.Errorf("perftest: %d regions of %d B overflow the receive buffer", regions, o.Size)
	case !(o.BandwidthBps > 0 && o.BandwidthBps < math.Inf(1)):
		return Result{}, fmt.Errorf("perftest: line rate %g bit/s is not a positive finite rate", o.BandwidthBps)
	case !(o.CrossBps >= 0 && o.CrossBps < math.Inf(1)):
		return Result{}, fmt.Errorf("perftest: cross-traffic load %g bit/s is not a finite rate >= 0", o.CrossBps)
	}
	relCfg, err := reliability.Config{RTT: o.RTT, K: 32, M: 8}.ForScheme(o.Scheme)
	if err != nil {
		return Result{}, fmt.Errorf("perftest: %w", err)
	}
	var clk clock.Clock
	switch o.Clock {
	case "virtual":
		clk = clock.NewVirtual()
	case "real":
		clk = clock.NewReal()
	default:
		return Result{}, fmt.Errorf("perftest: unknown clock %q", o.Clock)
	}
	var rec *telemetry.Recorder
	if o.Trace != nil {
		rec = o.Trace.Cell(0)
		rec.SetLabel(o.Scheme)
		// Start the cell before any telemetry attaches: CellStart fixes
		// the recorder's time origin, which every series created below
		// inherits.
		o.Trace.CellStart(0, clk.NowNanos())
		if v, ok := clk.(*clock.Virtual); ok {
			rec.SetActorSource(v.CurrentActorName)
			v.SetEventLog(rec)
		}
	}

	// A receive slot must hold the largest receive the scheme posts: the
	// message, or under EC a parity submessage of M chunks, which is the
	// larger below M·Chunk. (An adaptive segment after the first exists
	// only past SegmentChunks chunks, more than any rung's M.)
	maxRecv := o.Size
	if o.Scheme == "ec" {
		maxRecv = max(o.Size, relCfg.M*o.Chunk)
	}
	coreCfg := core.Config{
		MTU: o.MTU, ChunkBytes: o.Chunk, MaxMsgBytes: maxRecv,
		Generations: 2, Channels: o.Channels, CQDepth: 1 << 12,
		Clock: clk,
	}

	var (
		sess *reliability.Session
		topo *netem.Topology
		gen  *netem.TrafficGen
	)
	oneWay := o.RTT / 2
	if o.CrossBps > 0 {
		// Contended mode: a two-node topology whose single edge is the
		// shared bottleneck; the background source feeds the forward
		// queue so data packets contend for buffer and serialization.
		topo = netem.New("perftest", clk, o.Seed)
		a, b := topo.AddNode("src"), topo.AddNode("dst")
		edge, eerr := topo.AddEdge(a, b, netem.EdgeConfig{
			DistanceKm:         oneWay.Seconds() / wan.PropagationSecPerKm,
			BandwidthBps:       o.BandwidthBps,
			BufferBytes:        o.CrossBufferBytes,
			MarkThresholdBytes: o.CrossBufferBytes / 2,
			Loss:               netem.LossSpec{P: o.Drop},
		})
		if eerr != nil {
			return Result{}, eerr
		}
		if rec != nil {
			topo.SetTelemetry(rec)
		}
		sess, err = topo.NewFlow(a, b, coreCfg, relCfg)
		if err != nil {
			return Result{}, err
		}
		gen, err = netem.NewTrafficGen(netem.TrafficConfig{
			Bps: o.CrossBps, PacketBytes: o.MTU,
			Poisson: o.CrossPoisson, Seed: o.Seed + 7777, Clock: clk,
		}, edge.Fwd.Port(nil))
		if err != nil {
			sess.Close()
			return Result{}, err
		}
	} else {
		fabCfg := func(s int64) fabric.Config {
			return fabric.Config{
				Latency: oneWay, BandwidthBps: o.BandwidthBps,
				DropProb: o.Drop, Seed: s, Clock: clk,
			}
		}
		sess, err = reliability.NewSession(coreCfg, relCfg, fabCfg(o.Seed), fabCfg(o.Seed+1000), oneWay)
		if err != nil {
			return Result{}, err
		}
	}
	if rec != nil {
		sess.SetTelemetry(rec, o.Scheme+"/A", o.Scheme+"/B")
	}
	defer func() {
		sess.Close()
		if topo != nil {
			_ = topo.ClosePools()
		}
	}()

	// Send staging: one pre-filled payload per region, message i sends
	// payload i%regions. Receive staging: one MR of regions·Size,
	// message i lands at region i%regions. All large buffers come from
	// the run-to-run staging pool so back-to-back invocations (the
	// benchmark loop) don't push GC cycles into the measured window.
	sendBufs := make([][]byte, regions)
	for w := range sendBufs {
		sendBufs[w] = getBuf(o.Size)
		fillPattern(sendBufs[w], o.Seed, w)
		defer putBuf(sendBufs[w])
	}
	recvBuf := getBuf(regions * o.Size)
	for i := range recvBuf {
		recvBuf[i] = 0 // stale pool content must not satisfy verification
	}
	defer putBuf(recvBuf)
	mr := sess.Pair.B.Ctx.RegMR(recvBuf)

	// The scheme's parity scratch rotates with the receive regions.
	tr, err := sess.NewTransfer(o.Scheme, reliability.AdaptorConfig{}, o.Size, regions)
	if err != nil {
		return Result{}, err
	}

	verify := o.Verify
	digest := fnv.New64a()
	var sendErr, recvErr error
	var completions stats.Sketch
	var verifyWall time.Duration // host time inside the verify block
	transferTrack := int32(-1)
	if rec != nil {
		transferTrack = rec.Track("transfers")
	}
	startSim := clk.Now()
	startWall := time.Now()
	if gen != nil {
		gen.Start()
	}
	clock.JoinNamed(clk,
		clock.NamedFunc{Name: "perftest-send", Fn: func() {
			for i := 0; i < o.Msgs; i++ {
				if sendErr = tr.Write(sendBufs[i%regions]); sendErr != nil {
					sendErr = fmt.Errorf("msg %d: %w", i, sendErr)
					return
				}
			}
		}},
		clock.NamedFunc{Name: "perftest-recv", Fn: func() {
			for i := 0; i < o.Msgs; i++ {
				w := i % regions
				off := uint64(w * o.Size)
				t0 := clk.Now()
				if recvErr = tr.Receive(mr, off, o.Size, w); recvErr != nil {
					recvErr = fmt.Errorf("msg %d: %w", i, recvErr)
					return
				}
				dur := clk.Since(t0)
				completions.Add(dur.Nanoseconds())
				if rec != nil {
					rec.Event(clk.NowNanos(), telemetry.EvTransfer,
						transferTrack, int64(o.Size), dur.Nanoseconds(), 0, 0)
				}
				if verify {
					v0 := time.Now()
					region := recvBuf[off : off+uint64(o.Size)]
					if !patternEqual(region, o.Seed, w) {
						recvErr = fmt.Errorf("msg %d: received data corrupted", i)
						return
					}
					digest.Write(region)
					verifyWall += time.Since(v0)
				}
			}
		}},
	)
	simElapsed := clk.Since(startSim)
	wallElapsed := time.Since(startWall) - verifyWall
	stats := sess.Pair.B.QP.Stats()
	if rec != nil {
		// The receiving QP's late-write count joins the summary's
		// counters: the writes that landed in a buffer the receive had
		// already handed back.
		var done telemetry.Counter
		done.Store(stats.DoneWrites)
		rec.RegisterCounter(o.Scheme+"/B done_writes", &done)
		o.Trace.CellFinish(0, clk.NowNanos())
	}
	if gen != nil {
		gen.Stop()
	}
	if sendErr != nil {
		return Result{}, fmt.Errorf("perftest %s send: %w", o.Scheme, sendErr)
	}
	if recvErr != nil {
		return Result{}, fmt.Errorf("perftest %s recv: %w", o.Scheme, recvErr)
	}

	hostPackets := sess.Pair.A.Dev.RxPackets.Load() + sess.Pair.B.Dev.RxPackets.Load()
	cores := 1
	if !clk.IsVirtual() {
		cores = runtime.GOMAXPROCS(0)
	}
	res := Result{
		Scheme:         o.Scheme,
		Bytes:          int64(o.Msgs) * int64(o.Size),
		Msgs:           o.Msgs,
		SimElapsed:     simElapsed,
		WallElapsed:    wallElapsed,
		GoodputGbps:    float64(o.Msgs) * float64(o.Size) * 8 / simElapsed.Seconds() / 1e9,
		HostPackets:    hostPackets,
		HostPktsPerSec: float64(hostPackets) / wallElapsed.Seconds(),
		Cores:          cores,
		DataPktsRecv:   stats.PacketsReceived,
		Duplicates:     stats.Duplicates,
		DoneWrites:     stats.DoneWrites,
	}
	res.HostPktsPerSecCore = res.HostPktsPerSec / float64(cores)
	res.P50 = time.Duration(completions.Quantile(0.50))
	res.P99 = time.Duration(completions.Quantile(0.99))
	res.P999 = time.Duration(completions.Quantile(0.999))
	if verify {
		res.Digest = digest.Sum64()
	}
	if gen != nil {
		res.CrossSent = gen.Sent()
	}
	if topo != nil {
		res.TailDrops = topo.TailDrops()
		res.ECNMarked = topo.MarkedPackets()
	}
	return res, nil
}

// stagingPool recycles the harness's large staging buffers (send
// payloads, receive region, EC scratch) across Run calls, so the
// benchmark loop measures the data path and not the GC cycles its own
// setup would otherwise trigger mid-window.
var stagingPool struct {
	mu   sync.Mutex
	free [][]byte
}

func getBuf(n int) []byte {
	stagingPool.mu.Lock()
	for i, b := range stagingPool.free {
		if cap(b) >= n {
			last := len(stagingPool.free) - 1
			stagingPool.free[i] = stagingPool.free[last]
			stagingPool.free = stagingPool.free[:last]
			stagingPool.mu.Unlock()
			return b[:n]
		}
	}
	stagingPool.mu.Unlock()
	return make([]byte, n)
}

func putBuf(b []byte) {
	stagingPool.mu.Lock()
	stagingPool.free = append(stagingPool.free, b)
	stagingPool.mu.Unlock()
}

// fillPattern fills buf with a deterministic payload folded from the
// seed and the window-region index, so adjacent in-flight messages
// carry distinct bytes and cross-region scribbles are caught. The
// word stream is little-endian xorshift, written 8 bytes at a stride.
func fillPattern(buf []byte, seed int64, w int) {
	size := len(buf)
	s := uint64(seed)*0x9e3779b97f4a7c15 + uint64(w+1)*0xbf58476d1ce4e5b9
	i := 0
	for ; i+8 <= size; i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		binary.LittleEndian.PutUint64(buf[i:], s)
	}
	if i < size {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		for j := 0; i+j < size; j++ {
			buf[i+j] = byte(s >> (8 * j))
		}
	}
}

// patternEqual checks region against the fillPattern stream without
// materializing the expected copy.
func patternEqual(region []byte, seed int64, w int) bool {
	size := len(region)
	s := uint64(seed)*0x9e3779b97f4a7c15 + uint64(w+1)*0xbf58476d1ce4e5b9
	i := 0
	for ; i+8 <= size; i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		if binary.LittleEndian.Uint64(region[i:]) != s {
			return false
		}
	}
	if i < size {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		for j := 0; i+j < size; j++ {
			if region[i+j] != byte(s>>(8*j)) {
				return false
			}
		}
	}
	return true
}
