package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/netem"
	"sdrrdma/internal/nicsim"
	"sdrrdma/internal/reliability"
)

// Injected abort causes: what the typed-error chains of crash-recv /
// kill-session scenarios must carry back out of the protocol loops.
var (
	errInjectedCrash = fmt.Errorf("chaos: injected receiver crash")
	errInjectedKill  = fmt.Errorf("chaos: injected session kill")
)

// Diamond scenario fabric: src reaches dst via two 2-hop arms, so a
// single flap always has a reroute target and only a source blackhole
// (both uplinks down) partitions the flow.
const (
	chaosDistKm = 300 // 1 ms one-way per hop → 4 ms route RTT
	chaosBWBps  = 1e9
	chaosBufB   = 1 << 20

	followUpSize = 64 << 10
	// elapsedSlack pads the invariant-1 deadline: the CTS wait and the
	// transfer body each get a GlobalTimeout, plus polling granularity.
	elapsedSlack = 25 * time.Millisecond
)

func chaosEdge() netem.EdgeConfig {
	return netem.EdgeConfig{DistanceKm: chaosDistKm, BandwidthBps: chaosBWBps, BufferBytes: chaosBufB}
}

func chaosCoreCfg() core.Config {
	return core.Config{
		MTU: 1024, ChunkBytes: 4096, MaxMsgBytes: 1 << 20,
		Generations: 2, Channels: 2, CQDepth: 1 << 10,
	}
}

// diamond builds the 4-node scenario topology on clk. Edge indices:
// 0 = src–mid1, 1 = mid1–dst (the BFS-preferred primary arm),
// 2 = src–mid2, 3 = mid2–dst (the backup arm).
func diamond(clk clock.Clock, seed int64) (t *netem.Topology, src, dst int, err error) {
	t = netem.New("chaos", clk, seed)
	src = t.AddNode("src")
	m1 := t.AddNode("mid1")
	m2 := t.AddNode("mid2")
	dst = t.AddNode("dst")
	for _, e := range [][2]int{{src, m1}, {m1, dst}, {src, m2}, {m2, dst}} {
		if _, err = t.AddEdge(e[0], e[1], chaosEdge()); err != nil {
			return nil, 0, 0, err
		}
	}
	return t, src, dst, nil
}

// compile lowers a program's link faults into a netem.Schedule and
// returns the endpoint faults for separate wiring. Link death is two
// flaps (both source uplinks) restored exactly at the horizon.
func compile(p Program) (netem.Schedule, []Fault) {
	sched := netem.Schedule{Horizon: horizon}
	var eps []Fault
	for _, f := range p.Faults {
		switch f.Kind {
		case faultFlap:
			sched.Flaps = append(sched.Flaps, netem.Flap{Edge: f.Edge, Down: f.At, Up: f.At + f.Dur})
		case faultLinkDeath:
			for _, e := range []int{0, 2} {
				sched.Flaps = append(sched.Flaps, netem.Flap{Edge: e, Down: f.At, Up: horizon})
			}
		case faultBurstLoss:
			on := netem.LossSpec{P: float64(f.Pct) / 100, BurstLen: 4}
			sched.Events = append(sched.Events,
				netem.Event{At: f.At, Edge: f.Edge, Loss: on},
				netem.Event{At: f.At + f.Dur, Edge: f.Edge}) // zero Loss: lossless again
		case faultDrift:
			sched.Drifts = append(sched.Drifts, netem.Drift{
				Edge: f.Edge, Start: f.At, Duration: f.Dur,
				RateKmPerSec: float64(f.Pct) * 1000, Step: f.Dur / 4,
			})
		default:
			eps = append(eps, f)
		}
	}
	return sched, eps
}

// installEndpointFaults arms crash/kill timers and installs each
// side's control-plane faults as an interceptor on the link direction
// its control packets leave by: side A's on Link.AB, side B's on
// Link.BA. Data packets pass untouched; per-control-packet decisions
// hash a stateless (stream, packet#) coin, so a retransmission storm
// cannot shift the draws of a later fault window.
func installEndpointFaults(clk *clock.Virtual, flow *reliability.Session, p Program, eps []Fault) {
	t0 := clk.Now()
	var sides [2][]Fault
	for _, f := range eps {
		switch f.Kind {
		case faultControlDrop, faultControlDup, faultControlCorrupt:
			sides[f.Edge&1] = append(sides[f.Edge&1], f)
		case faultCrashRecv:
			clk.At(clk.NowNanos()+int64(f.At), func() { flow.B.Abort(errInjectedCrash) })
		case faultKillSession:
			clk.At(clk.NowNanos()+int64(f.At), func() { flow.Abort(errInjectedKill) })
		}
	}
	for s, faults := range sides {
		if len(faults) == 0 {
			continue
		}
		dir := [2]*fabric.Direction{flow.Pair.Link.AB, flow.Pair.Link.BA}[s]
		stream := p.Seed ^ uint64(p.Index)<<20 ^ uint64(s+1)<<52
		var n uint64
		dir.SetInterceptor(func(pkt *nicsim.Packet) fabric.Verdict {
			if pkt.Opcode != nicsim.OpSend {
				return fabric.Pass // data; only control rides UD sends
			}
			now := clk.Since(t0)
			n++
			for fi, f := range faults {
				if now < f.At || now >= f.At+f.Dur {
					continue
				}
				if splitAt(stream+uint64(fi)<<8, n)%100 >= uint64(f.Pct) {
					continue
				}
				switch f.Kind {
				case faultControlDrop:
					return fabric.Drop
				case faultControlDup:
					return fabric.Duplicate
				default: // corrupt: the CRC32-C trailer must catch it
					pkt.Payload[len(pkt.Payload)/2] ^= 0x5a
					return fabric.Pass
				}
			}
			return fabric.Pass
		})
	}
}

// Outcome is the verdict of one scenario. Its rendering (and thus the
// whole Report) is a pure function of the program, independent of
// worker count.
type Outcome struct {
	Index   int
	Program Program
	// Send and Recv classify each side's result: "ok", a typed-error
	// name, "deadlock", or "UNTYPED(...)" (a violation).
	Send, Recv string
	// Elapsed is the slower side's virtual transfer time.
	Elapsed time.Duration
	// DoneWrites counts the duplicate packets the receiving NIC
	// DMA-wrote into an already complete message, up to the end of the
	// fault program (core.Stats.DoneWrites).
	DoneWrites uint64
	// FollowUp records invariant 3: "ok-reused" (lease returned to the
	// pool and re-leased clean), "ok-cold" (lease quarantined, fresh
	// build ran clean), "n/a" (rc-gbn, unpooled), or a failure.
	FollowUp string
	// Violations lists every invariant breach; empty means the
	// scenario passed.
	Violations []string
}

func (o *Outcome) viol(format string, args ...any) {
	o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
}

// classify maps a transfer error onto the typed taxonomy. Anything
// outside the taxonomy is an invariant-1 violation and keeps its full
// message for the counterexample report.
func classify(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, reliability.ErrAborted):
		return "aborted"
	case errors.Is(err, reliability.ErrPeerDead):
		return "peer-dead"
	case errors.Is(err, reliability.ErrTimeout):
		return "timeout"
	default:
		return "UNTYPED(" + err.Error() + ")"
	}
}

func pattern(size int, seed byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

// safeCall runs fn converting a panic into an (untyped, thus
// violating) error, so a harness bug surfaces as a counterexample
// instead of crashing the sweep's worker goroutine.
func safeCall(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// guarded wraps one side's actor in safeCall: a panic becomes that
// side's error, and the other side runs on to its own typed timeout.
func guarded(side clock.NamedFunc, errp *error) clock.NamedFunc {
	fn := side.Fn
	side.Fn = func() {
		if err := safeCall(func() error { fn(); return nil }); err != nil {
			*errp = err
		}
	}
	return side
}

// transfer drives one scheme transfer A→B over the flow; the Outcome
// carries both sides' errors, return times and the byte verification.
func transfer(clk *clock.Virtual, flow *reliability.Session, scheme string, size int, seed byte) *reliability.Outcome {
	tr, err := flow.NewTransfer(scheme, reliability.AdaptorConfig{}, size, 1)
	if err != nil {
		return &reliability.Outcome{SendErr: err}
	}
	send, recv, out := tr.Actors("chaos", pattern(size, seed))
	clock.JoinNamed(clk, guarded(send, &out.SendErr), guarded(recv, &out.RecvErr))
	return out
}

// runProgram executes one scenario on clk, fresh or freshly reset, and
// checks every invariant. A virtual-clock deadlock (or any other
// panic) is recovered into the outcome as a counterexample; clock.Lanes
// then discards the poisoned engine instead of reusing it.
func runProgram(clk *clock.Virtual, p Program) (o Outcome) {
	o = Outcome{Index: p.Index, Program: p, Send: "-", Recv: "-", FollowUp: "skipped"}
	defer func() {
		if r := recover(); r != nil {
			o.Send, o.Recv = "deadlock", "deadlock"
			o.viol("virtual clock deadlocked: %v", r)
		}
	}()
	if p.Scheme == schemeRCGBN {
		runRC(clk, p, &o)
	} else {
		runSDR(clk, p, &o)
	}
	return o
}

func runSDR(clk *clock.Virtual, p Program, o *Outcome) {
	topo, src, dst, err := diamond(clk, int64(p.Seed)+int64(p.Index)*7919)
	if err != nil {
		o.viol("topology: %v", err)
		return
	}
	sched, eps := compile(p)
	relCfg, err := reliability.Config{K: 4, M: 2, GlobalTimeout: globalTimeout}.ForScheme(p.Scheme)
	if err != nil {
		o.viol("config: %v", err)
		return
	}
	dial := func() (*reliability.Session, error) { return topo.NewFlow(src, dst, chaosCoreCfg(), relCfg) }
	flow, err := dial()
	if err != nil {
		o.viol("lease: %v", err)
		return
	}
	installEndpointFaults(clk, flow, p, eps)
	if _, err := sched.Apply(topo); err != nil {
		o.viol("schedule: %v", err)
		return
	}
	judgeFlow(clk, topo, dial, flow, p, o)
}

// judgeFlow drives p's transfer over flow, the faults already armed,
// and checks invariants 1 and 3 — the second on a follow-up flow from
// dial once the fault program has drained.
func judgeFlow(clk *clock.Virtual, topo *netem.Topology, dial func() (*reliability.Session, error), flow *reliability.Session, p Program, o *Outcome) {
	res := transfer(clk, flow, p.Scheme, p.Size, byte(p.Index))
	o.Send, o.Recv = classify(res.SendErr), classify(res.RecvErr)
	o.Elapsed = max(res.SendDone, res.RecvDone)

	// Invariant 1: byte-verified completion or a typed error, within a
	// bounded multiple of GlobalTimeout.
	ok := res.SendErr == nil && res.RecvErr == nil
	if ok && !res.BytesOK() {
		o.viol("transfer completed but payload mismatched")
	}
	if strings.HasPrefix(o.Send, "UNTYPED") {
		o.viol("sender error outside the typed taxonomy: %s", o.Send)
	}
	if strings.HasPrefix(o.Recv, "UNTYPED") {
		o.viol("receiver error outside the typed taxonomy: %s", o.Recv)
	}
	if o.Elapsed > 2*globalTimeout+elapsedSlack {
		o.viol("transfer overran: %v > 2×GlobalTimeout+%v", o.Elapsed, elapsedSlack)
	}

	// Drain the fault program: advance past the horizon so link-death
	// flaps restore and stray crash timers fire against the old lease,
	// then force the fabric back to a clean room for the follow-up.
	clock.Join(clk, func() {
		if rem := horizon + time.Millisecond - clk.Elapsed(); rem > 0 {
			clk.Sleep(rem)
		}
	})
	for _, e := range topo.Edges() {
		e.SetDown(false)
		if err := e.SetLoss(netem.LossSpec{}); err != nil {
			o.viol("restore loss: %v", err)
		}
		if err := e.SetDistance(chaosDistKm); err != nil {
			o.viol("restore distance: %v", err)
		}
	}
	topo.ReroutePaths()
	o.DoneWrites = flow.Pair.B.QP.Stats().DoneWrites

	// Invariant 3: a clean transfer releases the lease back to the
	// pool; a failed one explicitly quarantines it. Either way the
	// follow-up flow must run byte-clean — re-leased from the pool
	// after Close, cold-built after Quarantine — and the pool must
	// account for exactly that.
	clean := ok && res.BytesOK()
	if clean {
		flow.Close()
	} else {
		flow.Quarantine()
	}
	flow2, err := dial()
	if err != nil {
		o.FollowUp = "FAIL(lease: " + err.Error() + ")"
		o.viol("follow-up lease failed: %v", err)
	} else {
		res2 := transfer(clk, flow2, p.Scheme, followUpSize, byte(p.Index)+1)
		switch {
		case res2.SendErr != nil:
			o.FollowUp = "FAIL(send)"
			o.viol("follow-up send on a clean network: %v", res2.SendErr)
		case res2.RecvErr != nil:
			o.FollowUp = "FAIL(recv)"
			o.viol("follow-up receive on a clean network: %v", res2.RecvErr)
		case !res2.BytesOK():
			o.FollowUp = "FAIL(bytes)"
			o.viol("follow-up payload mismatched — lease poisoned")
		case clean:
			o.FollowUp = "ok-reused"
		default:
			o.FollowUp = "ok-cold"
		}
		flow2.Close()
	}

	built, leased := topo.PoolStats()
	if leased != 0 {
		o.viol("pool leak: %d deployment(s) still leased", leased)
	}
	wantBuilt := 1
	if !clean {
		wantBuilt = 2 // quarantined lease must not be re-leased
	}
	if built != wantBuilt {
		o.viol("pool built %d deployments, want %d", built, wantBuilt)
	}
	if err := topo.ClosePools(); err != nil {
		o.viol("pool close: %v", err)
	}
}

// runRC drives the commodity RC go-back-N baseline over the same
// diamond (its packets ride the same re-routable netem paths), with a
// GlobalTimeout-bounded completion poll. The baseline has no control
// plane or session pool, so only invariants 1 and 2 apply.
func runRC(clk *clock.Virtual, p Program, o *Outcome) {
	o.FollowUp = "n/a"
	topo, src, dst, err := diamond(clk, int64(p.Seed)+int64(p.Index)*7919)
	if err != nil {
		o.viol("topology: %v", err)
		return
	}
	devA := nicsim.NewDevice("chaos-rcA")
	devB := nicsim.NewDevice("chaos-rcB")
	link, rtt, err := topo.NewLink(src, dst, devA, devB)
	if err != nil {
		o.viol("path: %v", err)
		return
	}

	rc := nicsim.NewRCPair(clk, devA, devB, link.AB, link.BA, 1024, 3*rtt, 16, 512)
	defer rc.Close()

	sched, _ := compile(p)
	if _, err := sched.Apply(topo); err != nil {
		o.viol("schedule: %v", err)
		return
	}

	data := pattern(p.Size, byte(p.Index))
	recvBuf := make([]byte, p.Size)
	mr := devB.RegMR(recvBuf)
	start := clk.Now()
	var xferErr error
	var elapsed time.Duration
	clock.JoinNamed(clk, clock.NamedFunc{Name: "chaos-rc-send", Fn: func() {
		xferErr = safeCall(func() error {
			rc.A.WriteImm(mr.Key(), 0, data, 0, 1)
			if !rc.Wait(1, rtt, start.Add(globalTimeout)) {
				return fmt.Errorf("%w: rc-gbn transfer of %d B", reliability.ErrTimeout, p.Size)
			}
			return nil
		})
		elapsed = clk.Since(start)
	}})
	o.Send = classify(xferErr)
	o.Recv = o.Send
	o.Elapsed = elapsed
	if xferErr == nil && !bytes.Equal(recvBuf, data) {
		o.viol("rc-gbn completed but payload mismatched")
	}
	if strings.HasPrefix(o.Send, "UNTYPED") {
		o.viol("rc-gbn error outside the typed taxonomy: %s", o.Send)
	}
	if elapsed > globalTimeout+rtt+elapsedSlack {
		o.viol("rc-gbn overran: %v", elapsed)
	}
}

// Report is one sweep's verdict: outcomes in scenario order,
// byte-identical for any worker count — each scenario runs on its own
// virtual clock and touches nothing shared.
type Report struct {
	Seed     uint64
	Outcomes []Outcome
}

// NumViolations counts invariant breaches across the sweep.
func (r *Report) NumViolations() int {
	n := 0
	for _, o := range r.Outcomes {
		n += len(o.Violations)
	}
	return n
}

// Counterexamples returns the violating outcomes: each carries the
// full triggering fault program (see shrink for minimization).
func (r *Report) Counterexamples() []Outcome {
	var bad []Outcome
	for _, o := range r.Outcomes {
		if len(o.Violations) > 0 {
			bad = append(bad, o)
		}
	}
	return bad
}

// Run generates and executes n scenarios of seed's corpus as the cells
// of a clock.Lanes sweep over `workers` lanes (≤ 0 means GOMAXPROCS).
// Results land at their own index, so the report is identical for
// every worker count.
func Run(seed uint64, n, workers int) *Report {
	outs := make([]Outcome, n)
	(&clock.Lanes{Workers: workers}).Run(n, func(v *clock.Virtual, i int) {
		outs[i] = runProgram(v, generate(seed, i))
	})
	return &Report{Seed: seed, Outcomes: outs}
}
