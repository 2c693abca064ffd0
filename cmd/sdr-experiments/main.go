// Command sdr-experiments regenerates the paper's evaluation figures
// (§5) and their ablations and extensions. Each figure prints the same
// rows/series the paper plots, with the paper's reading of it as a
// note. Run without -fig it prints the figure table (id, level, paper
// figure, title), which README.md's figure section holds verbatim.
//
// Usage:
//
//	sdr-experiments                    # list the figures
//	sdr-experiments -fig 3a            # one figure
//	sdr-experiments -fig all           # everything, in paper order (slow)
//	sdr-experiments -fig 9 -samples 5000 -seed 7
//	sdr-experiments -fig 14 -duration 2.0
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"

	"sdrrdma/internal/experiments"
	"sdrrdma/internal/telemetry"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli runs the command on args, printing to stdout and stderr, and
// returns the exit status: 2 for a usage error, 1 for a failed figure.
func cli(args []string, stdout, stderr io.Writer) int {
	figures := experiments.List()
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f[0]
	}
	flags := flag.NewFlagSet("sdr-experiments", flag.ExitOnError)
	flags.SetOutput(stderr)
	fig := flags.String("fig", "", "figure ID ("+strings.Join(ids, ", ")+") or 'all'")
	samples := flags.Int("samples", 1000, "stochastic model samples per point")
	tailSamples := flags.Int("tail-samples", 10000, "samples for p99.9 points")
	seed := flags.Int64("seed", 42, "deterministic RNG seed")
	duration := flags.Float64("duration", 1.0, "seconds per functional throughput point")
	clockMode := flags.String("clock", "virtual",
		"clock for the functional figures (wan-functional, multidc-functional): 'virtual' (deterministic, simulation speed) or 'real' (wall clock)")
	sweepWorkers := flags.Int("sweep-workers", 0,
		"sweep lanes for the model figures and the virtual-clock functional figures: 0 = GOMAXPROCS, 1 = serial; output is byte-identical either way")
	tracePath := flags.String("trace", "",
		"flight-record the run into this file as Chrome trace-event JSON (open in Perfetto); single figure only")
	flags.Parse(args)

	if *clockMode != "virtual" && *clockMode != "real" {
		fmt.Fprintf(stderr, "sdr-experiments: unknown -clock %q (want virtual or real)\n", *clockMode)
		return 2
	}
	// Zero means "the default"; NaN fails both duration comparisons.
	if *samples < 0 || *tailSamples < 0 || !(*duration >= 0 && *duration < math.Inf(1)) {
		fmt.Fprintf(stderr, "sdr-experiments: -samples %d, -tail-samples %d, -duration %g: want counts >= 0 and a finite duration >= 0 (0 = default)\n",
			*samples, *tailSamples, *duration)
		return 2
	}

	if *fig == "" {
		fmt.Fprintln(stderr, "usage: sdr-experiments -fig <id|all>")
		tw := tabwriter.NewWriter(stderr, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "id\tlevel\tpaper\ttitle")
		for _, f := range figures {
			fmt.Fprintln(tw, strings.Join(f, "\t"))
		}
		tw.Flush()
		return 2
	}
	if *tracePath != "" && *fig == "all" {
		fmt.Fprintln(stderr, "sdr-experiments: -trace records one figure at a time (pick a -fig)")
		return 2
	}
	opts := experiments.Options{
		Samples:      *samples,
		TailSamples:  *tailSamples,
		Seed:         *seed,
		DurationSec:  *duration,
		RealClock:    *clockMode == "real",
		SweepWorkers: *sweepWorkers,
	}
	if *tracePath != "" {
		opts.Trace = telemetry.NewTrace(*fig)
	}
	if *fig != "all" {
		ids = []string{*fig}
	}
	for _, id := range ids {
		res, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(stderr, "sdr-experiments: figure %s: %v\n", id, err)
			return 1
		}
		fmt.Fprintln(stdout, res.Format())
	}
	if opts.Trace != nil {
		if err := opts.Trace.WriteChromeFile(*tracePath); err != nil {
			fmt.Fprintf(stderr, "sdr-experiments: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, opts.Trace.Summary())
		fmt.Fprintf(stdout, "trace written to %s (load it in https://ui.perfetto.dev)\n", *tracePath)
	}
	return 0
}
