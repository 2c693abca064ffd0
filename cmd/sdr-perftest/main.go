// Command sdr-perftest is the Go equivalent of the paper's
// sdr_write_bw benchmark (§5.4.1): sustained back-to-back windowed
// transfers through the full nicsim/core/reliability path — real
// reliability sessions (SR, SR-NACK, EC or the adaptive ladder), not
// bitmap busy-polling — reporting simulated goodput at the session
// clock and host-side packets/sec/core.
//
// Usage:
//
//	sdr-perftest -scheme sr -clock virtual -size 4194304 -msgs 32
//	sdr-perftest -scheme ec -drop 0.01
//	sdr-perftest -scheme sr -cross-bps 5e10 -cross-poisson
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sdrrdma/internal/telemetry"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli runs the command on args, printing to stdout and stderr, and
// returns the exit status: 1 when the run fails.
func cli(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("sdr-perftest", flag.ExitOnError)
	flags.SetOutput(stderr)
	scheme := flags.String("scheme", "sr", "reliability scheme: sr | sr-nack | ec | adaptive")
	clk := flags.String("clock", "virtual", "clock backend: virtual (deterministic DES) | real (wall clock)")
	size := flags.Int("size", 4<<20, "message size [bytes]")
	msgs := flags.Int("msgs", 32, "messages to transfer")
	window := flags.Int("window", 4, "receive-region rotation depth")
	mtu := flags.Int("mtu", 4096, "MTU [bytes]")
	chunk := flags.Int("chunk", 64<<10, "bitmap chunk size [bytes]")
	channels := flags.Int("channels", 4, "SDR channels (receive DPA workers)")
	rtt := flags.Duration("rtt", time.Millisecond, "emulated round-trip time")
	bw := flags.Float64("bw", 100e9, "per-direction line rate [bit/s]")
	drop := flags.Float64("drop", 0, "per-packet drop probability")
	seed := flags.Int64("seed", 1, "random seed (loss draws, payloads, cross traffic); 0 runs seed 1")
	crossBps := flags.Float64("cross-bps", 0, "background cross-traffic load sharing the bottleneck [bit/s] (0 = dedicated link)")
	crossPoisson := flags.Bool("cross-poisson", false, "Poisson cross-traffic arrivals (default CBR)")
	crossBuf := flags.Int("cross-buffer", 4<<20, "shared bottleneck buffer [bytes] (contended mode)")
	verify := flags.Bool("verify", true, "verify received bytes and chain a digest")
	tracePath := flags.String("trace", "",
		"flight-record the run into this file as Chrome trace-event JSON (open in Perfetto)")
	flags.Parse(args)
	// Run reads a zero as "use the default", and each of these flags
	// has a non-zero default, so a zero here is the user's: refuse it
	// instead of silently running the default.
	for _, f := range []struct {
		name string
		zero bool
	}{
		{"size", *size == 0}, {"msgs", *msgs == 0}, {"window", *window == 0},
		{"mtu", *mtu == 0}, {"chunk", *chunk == 0}, {"channels", *channels == 0},
		{"rtt", *rtt == 0}, {"bw", *bw == 0}, {"cross-buffer", *crossBuf == 0},
	} {
		if f.zero {
			fmt.Fprintf(stderr, "sdr-perftest: -%s 0: must be non-zero\n", f.name)
			return 1
		}
	}

	opts := Options{
		Scheme: *scheme, Clock: *clk,
		Size: *size, Msgs: *msgs, Window: *window,
		MTU: *mtu, Chunk: *chunk, Channels: *channels,
		RTT: *rtt, BandwidthBps: *bw, Drop: *drop, Seed: *seed,
		CrossBps: *crossBps, CrossPoisson: *crossPoisson, CrossBufferBytes: *crossBuf,
		Verify: *verify,
	}
	if *tracePath != "" {
		opts.Trace = telemetry.NewTrace("perftest")
	}
	res, err := Run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "sdr-perftest:", err)
		return 1
	}
	fmt.Fprintf(stdout, "transferred %d messages × %d B through the %s session (%s clock)\n",
		res.Msgs, res.Bytes/int64(res.Msgs), res.Scheme, *clk)
	fmt.Fprintln(stdout, res)
	fmt.Fprintf(stdout, "data pkts recv: %d   duplicates: %d   cores: %d\n",
		res.DataPktsRecv, res.Duplicates, res.Cores)
	fmt.Fprintf(stdout, "per-transfer completion: p50 %v  p99 %v  p99.9 %v\n",
		res.P50, res.P99, res.P999)
	if opts.Trace != nil {
		if err := opts.Trace.WriteChromeFile(*tracePath); err != nil {
			fmt.Fprintln(stderr, "sdr-perftest: writing trace:", err)
			return 1
		}
		fmt.Fprint(stdout, opts.Trace.Summary())
		fmt.Fprintf(stdout, "trace written to %s (load it in https://ui.perfetto.dev)\n", *tracePath)
	}
	return 0
}
