package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sdrrdma/internal/telemetry"
)

// benchOpts is the benchmark shape: steady-state windowed transfers,
// verification off (the digest pass measures memcmp, not the stack).
func benchOpts(scheme string) Options {
	return Options{Scheme: scheme, Clock: "virtual", Size: 4 << 20, Msgs: 16}
}

func benchmarkPerftest(b *testing.B, scheme string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(benchOpts(scheme))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HostPktsPerSecCore, "pkts/s/core")
		b.ReportMetric(res.GoodputGbps, "Gbit/s")
		b.SetBytes(res.Bytes)
	}
}

func BenchmarkPerftestSR(b *testing.B)       { benchmarkPerftest(b, "sr") }
func BenchmarkPerftestEC(b *testing.B)       { benchmarkPerftest(b, "ec") }
func BenchmarkPerftestAdaptive(b *testing.B) { benchmarkPerftest(b, "adaptive") }

// Bad sizes and rates are refused before anything is built, in both
// modes, with exit status 1 and a message: never a panic, a negative
// message count or a silently different link. The checks run once,
// before the dedicated/contended split.
func TestPerftestRejectsBadOptions(t *testing.T) {
	check := func(args, want string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		code := cli(strings.Fields("-size 65536 -msgs 1 "+args), &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), want) || stdout.Len() != 0 {
			t.Errorf("%s: exit %d, stderr %q, stdout %q; want exit 1 and %q", args, code, stderr.String(), stdout.String(), want)
		}
	}
	bad := []struct{ args, want string }{
		{"-drop -0.5", "outside [0,1)"},
		{"-drop 1", "outside [0,1)"},
		{"-drop 1.5", "outside [0,1)"},
		{"-drop NaN", "outside [0,1)"},
		{"-msgs -3", "message count -3"},
		{"-window -1", "window -1"},
		{"-bw -5", "line rate -5"},
		{"-bw NaN", "line rate NaN"},
		{"-bw +Inf", "line rate +Inf"},
	}
	for _, mode := range []string{"", " -cross-bps 1e9"} {
		for _, c := range bad {
			check(c.args+mode, c.want)
		}
	}
	for _, cross := range []string{"-1", "NaN", "+Inf"} {
		check("-cross-bps "+cross, "cross-traffic load "+cross)
	}
	// A finite load too high to pace — its mean packet gap truncates to
	// 0 ns — is refused when the generator is built, not run forever.
	check("-cross-bps 1e14", "under 1 ns apart")
	// Regions × size past the int range is refused, not wrapped.
	check("-size 4611686018427387904 -msgs 4 -window 4", "overflow the receive buffer")
	// An RTT under 8 ns derives a 0 ns poll cadence, which never let
	// simulated time advance.
	for _, rtt := range []string{"1ns", "7ns"} {
		check("-rtt "+rtt, "PollInterval 0s <= 0")
		check("-rtt "+rtt+" -cross-bps 1e9", "PollInterval 0s <= 0")
	}
	// A control message is one datagram: an MTU it cannot fit in is
	// refused when the session is built (it panicked encoding an ACK).
	check("-mtu 16 -chunk 16 -size 256", "below the 22 B minimum")
	check("-mtu 21 -chunk 21 -size 210 -cross-bps 1e9", "below the 22 B minimum")
	// Every one of these flags has a non-zero default, so a zero can
	// only be the user's, and it must not silently run the default.
	for _, name := range []string{"size", "msgs", "window", "mtu", "chunk", "channels", "rtt", "bw", "cross-buffer"} {
		check("-"+name+" 0", "-"+name+" 0: must be non-zero")
	}
}

// An EC receiver posts each parity submessage, M chunks, as a receive
// of its own, so a message smaller than M·chunk must still run: it
// failed "exceeds MaxMsgBytes" at every -size below 512 KiB.
func TestPerftestECBelowParitySize(t *testing.T) {
	for _, size := range []int{4096, 64 << 10} {
		res, err := Run(Options{Scheme: "ec", Size: size, Msgs: 16, Drop: 0.01, Verify: true})
		if err != nil {
			t.Fatalf("-size %d: %v", size, err)
		}
		if res.Digest == 0 {
			t.Fatalf("-size %d: verification produced no digest", size)
		}
	}
}

// TestPerftestSchemes smokes every scheme (plus the contended mode)
// through a small windowed run with content verification on.
func TestPerftestSchemes(t *testing.T) {
	for _, scheme := range []string{"sr", "sr-nack", "ec", "adaptive"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			res, err := Run(Options{
				Scheme: scheme, Size: 1 << 20, Msgs: 6, Window: 3,
				Drop: 0.002, Verify: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest == 0 {
				t.Fatal("verification produced no digest")
			}
			if res.GoodputGbps <= 0 {
				t.Fatalf("non-positive goodput: %v", res.GoodputGbps)
			}
		})
	}
	t.Run("contended", func(t *testing.T) {
		res, err := Run(Options{
			Scheme: "sr", Size: 1 << 20, Msgs: 6, Window: 3,
			CrossBps: 5e10, CrossPoisson: true, Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.CrossSent == 0 {
			t.Fatal("cross-traffic generator emitted nothing")
		}
		if res.Digest == 0 {
			t.Fatal("verification produced no digest")
		}
	})
}

// TestPerftestDeterminism: same seed ⇒ byte-identical results —
// digest, host packet count, simulated elapsed — across repeated
// virtual-clock runs and across GOMAXPROCS settings, for every
// scheme. This is the acceptance gate for the data-path optimization
// work: faster must not mean "different".
func TestPerftestDeterminism(t *testing.T) {
	opts := func(scheme string) Options {
		return Options{
			Scheme: scheme, Size: 1 << 20, Msgs: 5, Window: 2,
			Drop: 0.003, Seed: 42, Verify: true,
		}
	}
	type key struct {
		digest, pkts uint64
		sim          int64
	}
	for _, scheme := range []string{"sr", "ec", "adaptive"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			var want key
			for run := 0; run < 2; run++ {
				res, err := Run(opts(scheme))
				if err != nil {
					t.Fatal(err)
				}
				got := key{res.Digest, res.HostPackets, int64(res.SimElapsed)}
				if run == 0 {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("run %d diverged: %+v != %+v", run, got, want)
				}
			}
			prev := runtime.GOMAXPROCS(0)
			defer runtime.GOMAXPROCS(prev)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				res, err := Run(opts(scheme))
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				if got := (key{res.Digest, res.HostPackets, int64(res.SimElapsed)}); got != want {
					t.Fatalf("GOMAXPROCS=%d diverged: %+v != %+v", procs, got, want)
				}
			}
		})
	}
}

// TestPerftestSteadyStateAllocs is the allocation regression guard for
// the hot data path of every scheme. It measures MARGINAL heap
// allocations per host packet — the allocation delta between a short
// and a long run divided by the packet delta — which cancels out
// per-run setup (session construction, window slabs, pattern fill) and
// isolates what the steady-state receive/send loop allocates per
// packet. After the pooled-staging and batched-polling work SR sits
// near 0.1; EC and adaptive stage shard tables, parity and per-segment
// state in the endpoint's pooled scratch and land in the same class. A
// single new unconditional per-packet allocation adds ≥1.0, so the 0.5
// ceiling catches any such regression with wide noise margin. The
// contended case runs the adaptive scheme across the netem bottleneck
// against 50 Gbit/s of Poisson cross traffic: about six background
// packets cross the queue per host packet, so one allocation per
// background packet (an unpooled envelope, a regrowing FIFO) shows as
// ≈ 6 — it measured ≈ 10 before both were fixed.
func TestPerftestSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"sr", Options{Scheme: "sr"}},
		{"ec", Options{Scheme: "ec"}},
		{"adaptive", Options{Scheme: "adaptive"}},
		{"contended", Options{Scheme: "adaptive", CrossBps: 5e10, CrossPoisson: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			measure := func(msgs int) (float64, uint64) {
				o := c.opts
				o.Size, o.Msgs, o.Window, o.Seed = 1<<20, msgs, 2, 9
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := Run(o)
				if err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return float64(after.Mallocs - before.Mallocs), res.HostPackets
			}
			measure(4) // warm process-wide lazy state (pools, type metadata)
			aShort, pShort := measure(8)
			aLong, pLong := measure(40)
			marginal := (aLong - aShort) / float64(pLong-pShort)
			t.Logf("steady-state allocs/packet: %.3f (short %v/%v pkts, long %v/%v pkts)",
				marginal, aShort, pShort, aLong, pLong)
			if marginal > 0.5 {
				t.Fatalf("hot-path allocation regression: %.3f allocs/packet (ceiling 0.5) — "+
					"a per-packet allocation crept back into the receive/send loop", marginal)
			}
		})
	}
}

// TestPerftestWindowRotation runs lossy SR-NACK over one, two and four
// receive regions. A receive retires its slots at completion, so late
// retransmissions land on the NULL key and even one region, re-posted
// by every message, stays intact. Failure mode is a corruption error
// from Run.
func TestPerftestWindowRotation(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		res, err := Run(Options{
			Scheme: "sr-nack", Size: 512 << 10, Msgs: 8, Window: w,
			Drop: 0.01, Seed: 7, Verify: true,
		})
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if res.Msgs != 8 {
			t.Fatalf("window %d: short run: %+v", w, res)
		}
	}
}

// A window wider than the message count touches only Msgs regions, so
// it runs exactly as a window of Msgs and allocates for those alone
// (100 000 regions of 64 KiB would be ≈ 13 GB of staging).
func TestPerftestWindowBeyondMessages(t *testing.T) {
	run := func(window int) (Result, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(Options{Scheme: "sr-nack", Size: 64 << 10, Msgs: 2, Window: window, Drop: 0.01, Seed: 3, Verify: true})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	want, _ := run(2)
	got, alloc := run(100000)
	if alloc > 64<<20 {
		t.Errorf("window 100000 allocated %d B", alloc)
	}
	if got.Digest != want.Digest || got.SimElapsed != want.SimElapsed || got.DataPktsRecv != want.DataPktsRecv {
		t.Errorf("window 100000 ran as %+v, window 2 as %+v", got, want)
	}
}

// TestPerftestCrossSchemeDigest: every scheme must deliver identical
// bytes for the same seed, so their digests must agree.
func TestPerftestCrossSchemeDigest(t *testing.T) {
	var digests []uint64
	for _, scheme := range []string{"sr", "sr-nack", "ec", "adaptive"} {
		res, err := Run(Options{
			Scheme: scheme, Size: 1 << 20, Msgs: 4, Window: 2, Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, res.Digest)
	}
	for i := 1; i < len(digests); i++ {
		if digests[i] != digests[0] {
			t.Fatalf("digest mismatch across schemes: %v", digests)
		}
	}
}

// ExampleRun documents the harness shape (not executed as a test).
func ExampleRun() {
	res, err := Run(Options{Scheme: "sr", Size: 1 << 20, Msgs: 2, Verify: true})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Msgs)
	// Output: 2
}

// TestPerftestTraceAndQuantiles: a flight-recorded run emits one
// transfer event per message, reports completion quantiles from the
// sketch, and stays byte-deterministic (trace included) per seed.
func TestPerftestTraceAndQuantiles(t *testing.T) {
	opts := Options{
		Scheme: "adaptive", Size: 1 << 20, Msgs: 6, Window: 3,
		Drop: 0.002, Seed: 11, Verify: true,
	}
	record := func() (Result, []byte) {
		o := opts
		o.Trace = telemetry.NewTrace("perftest")
		res, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := o.Trace.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	res, trace := record()
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 {
		t.Fatalf("quantiles not monotone positive: p50=%v p99=%v p999=%v",
			res.P50, res.P99, res.P999)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	transfers := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "i" && e.Name == "transfer" {
			transfers++
		}
	}
	if transfers != opts.Msgs {
		t.Fatalf("trace has %d transfer events, want %d", transfers, opts.Msgs)
	}
	res2, trace2 := record()
	if res2.Digest != res.Digest || res2.P50 != res.P50 || res2.P999 != res.P999 {
		t.Fatalf("traced reruns diverged: %+v vs %+v", res2, res)
	}
	if !bytes.Equal(trace, trace2) {
		t.Fatal("trace bytes diverged across identical runs")
	}
}

// TestPerftestDoneWrites pins, per scheme, how many duplicate packets
// the receiving NIC DMA-wrote into a receive whose bitmap was already
// complete, in the lossy runs testdata/identity.txt lists. A receive
// retires its slots at completion, so a late retransmission lands on
// the NULL key instead of in a buffer the receive has handed back:
// what remains is adaptive's, whose complete segments wait behind a
// stalled head segment before the message's receive returns.
func TestPerftestDoneWrites(t *testing.T) {
	for scheme, want := range map[string]uint64{"sr": 0, "sr-nack": 0, "ec": 0, "adaptive": 7} {
		res, err := Run(Options{Scheme: scheme, Drop: 0.01, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.DoneWrites != want {
			t.Errorf("%s: %d packets written into complete messages, want %d", scheme, res.DoneWrites, want)
		}
	}
}
