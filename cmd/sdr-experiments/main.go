// Command sdr-experiments regenerates the paper's evaluation figures
// (§5). Each figure prints the same rows/series the paper plots, with
// the paper's reading of it as a note; README.md records
// paper-vs-measured for the functional figures.
//
// Usage:
//
//	sdr-experiments -fig 3a            # one figure
//	sdr-experiments -fig all           # everything (slow)
//	sdr-experiments -fig 9 -samples 5000 -seed 7
//	sdr-experiments -fig 14 -duration 2.0
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sdrrdma/internal/experiments"
	"sdrrdma/internal/telemetry"
)

func main() {
	fig := flag.String("fig", "", "figure ID ("+strings.Join(experiments.List(), ", ")+") or 'all'")
	samples := flag.Int("samples", 1000, "stochastic model samples per point")
	tailSamples := flag.Int("tail-samples", 10000, "samples for p99.9 points")
	seed := flag.Int64("seed", 42, "deterministic RNG seed")
	duration := flag.Float64("duration", 1.0, "seconds per functional throughput point")
	clockMode := flag.String("clock", "virtual",
		"clock for the functional figures (wan-functional, multidc-functional): 'virtual' (deterministic, simulation speed) or 'real' (wall clock)")
	sweepWorkers := flag.Int("sweep-workers", 0,
		"virtual sweep lanes for the functional figures: 0 = GOMAXPROCS, 1 = serial; output is byte-identical either way")
	tracePath := flag.String("trace", "",
		"flight-record the run into this file as Chrome trace-event JSON (open in Perfetto); single figure only")
	flag.Parse()

	if *clockMode != "virtual" && *clockMode != "real" {
		fmt.Fprintf(os.Stderr, "sdr-experiments: unknown -clock %q (want virtual or real)\n", *clockMode)
		os.Exit(2)
	}

	if *fig == "" {
		fmt.Fprintln(os.Stderr, "usage: sdr-experiments -fig <id|all>")
		fmt.Fprintln(os.Stderr, "figures:", strings.Join(experiments.List(), ", "))
		os.Exit(2)
	}
	if *tracePath != "" && *fig == "all" {
		fmt.Fprintln(os.Stderr, "sdr-experiments: -trace records one figure at a time (pick a -fig)")
		os.Exit(2)
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
	ids := []string{*fig}
	if *fig == "all" {
		ids = experiments.List()
	}
	for _, id := range ids {
		res, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdr-experiments: figure %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(res.Format())
	}
	if opts.Trace != nil {
		if err := opts.Trace.WriteChromeFile(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "sdr-experiments: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(opts.Trace.Summary())
		fmt.Printf("trace written to %s (load it in https://ui.perfetto.dev)\n", *tracePath)
	}
}
