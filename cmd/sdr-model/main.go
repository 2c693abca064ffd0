// Command sdr-model is the deployment explorer built on the paper's
// completion-time framework (§4.2): given long-haul channel parameters
// and a message size, it predicts the completion time of every
// reliability scheme and recommends one — the "guided choice and
// performance tuning" workflow of §1.
//
// Usage:
//
//	sdr-model -size 128MiB -bw 400 -dist 3750 -pdrop 1e-4
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"sdrrdma/internal/model"
	"sdrrdma/internal/stats"
	"sdrrdma/internal/wan"
)

func parseSize(arg string) (int64, error) {
	s, mult := strings.TrimSpace(arg), 1.0
	for i, tag := range []string{"TiB", "GiB", "MiB", "KiB", "B"} {
		if num, ok := strings.CutSuffix(s, tag); ok {
			s, mult = num, float64(int64(1)<<(40-10*i))
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	b := v * mult
	if !(b >= 1 && b < math.MaxInt64) { // NaN fails both
		return 0, fmt.Errorf("size %q is not a positive, finite byte count", arg)
	}
	return int64(b), nil
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli runs the command on args, printing to stdout and stderr, and
// returns the exit status: 2 for a usage error.
func cli(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("sdr-model", flag.ExitOnError)
	flags.SetOutput(stderr)
	sizeStr := flags.String("size", "128MiB", "message size (B/KiB/MiB/GiB/TiB)")
	bw := flags.Float64("bw", 400, "link bandwidth [Gbit/s]")
	dist := flags.Float64("dist", 3750, "one-way distance [km]")
	pdrop := flags.Float64("pdrop", 1e-5, "per-chunk drop probability")
	chunk := flags.Int("chunk", 4096, "bitmap chunk size [bytes]")
	samples := flags.Int("samples", 10000, "stochastic samples")
	seed := flags.Int64("seed", 1, "RNG seed")
	flags.Parse(args)

	size, err := parseSize(*sizeStr)
	if err != nil {
		fmt.Fprintln(stderr, "sdr-model:", err)
		return 2
	}
	if *samples <= 0 {
		fmt.Fprintf(stderr, "sdr-model: -samples %d: want at least one sample\n", *samples)
		return 2
	}
	ch := wan.Params{
		BandwidthBps: *bw * 1e9,
		DistanceKm:   *dist,
		PDrop:        *pdrop,
		MTUBytes:     4096,
		ChunkBytes:   *chunk,
	}
	if err := ch.Validate(); err != nil {
		fmt.Fprintln(stderr, "sdr-model:", err)
		return 2
	}

	lossless := model.LosslessTime(ch, size)
	fmt.Fprintf(stdout, "channel: %.0f Gbit/s, %.0f km (RTT %.2f ms), P_drop %.1e, chunk %d B\n",
		*bw, *dist, ch.RTT()*1e3, *pdrop, *chunk)
	fmt.Fprintf(stdout, "message: %s (%d chunks), BDP %.2f MiB, lossless Write %.3f ms\n\n",
		*sizeStr, ch.ChunksIn(size), ch.BDPBytes()/(1<<20), lossless*1e3)

	schemes := []model.Scheme{
		model.NewSRRTO(ch),
		model.NewSRNACK(ch),
		model.NewMDS(ch),
		model.NewXOR(ch),
	}
	fmt.Fprintf(stdout, "%-16s  %12s  %12s  %10s\n", "scheme", "mean [ms]", "p99.9 [ms]", "slowdown")
	best, bestMean := "", 0.0
	for i, s := range schemes {
		sum := stats.Summarize(model.Sample(s, size, *samples, *seed+int64(i)))
		fmt.Fprintf(stdout, "%-16s  %12.3f  %12.3f  %9.2fx\n",
			s.Name(), sum.Mean*1e3, sum.P999*1e3, sum.Mean/lossless)
		if best == "" || sum.Mean < bestMean {
			best, bestMean = s.Name(), sum.Mean
		}
	}
	fmt.Fprintf(stdout, "\nrecommended reliability scheme for this deployment: %s\n", best)
	return 0
}
