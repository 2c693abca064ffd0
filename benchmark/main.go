// Command benchmark is the repository benchmark (BENCHMARK.json): five
// perftest-shaped workloads run through real reliability sessions on
// the virtual clock, reporting host-time and simulated-time end-to-end
// metrics and, with -trace 1, an outside-in per-layer ledger. See
// README.md in this directory for the metric glossary.
//
// Usage:
//
//	go run ./benchmark -seed 1                      # every workload, end to end
//	go run ./benchmark -seed 1 -trace 1             # per-layer metrics instead
//	go run ./benchmark -workload wan_ec -seconds 10 # one workload
//	go run ./benchmark -selfcheck -seed 1           # repeatability check
//	go run ./benchmark -manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload to run (default: all of them)")
	seed := flag.Int64("seed", 1, "seed for loss draws, payload patterns and cross-traffic arrivals")
	seconds := flag.Float64("seconds", runSeconds, "host seconds of timed reps per workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	traced := flag.Bool("traced", false, "same as -trace 1")
	selfcheck := flag.Bool("selfcheck", false, "run the end-to-end set twice and compare the medians against the bounds")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *printManifest {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildManifest()); err != nil {
			fatal(err)
		}
		return
	}

	// One thread. The virtual clock is a single cooperative baton, so the
	// simulation is serial by construction; a second thread only adds
	// cross-thread hand-overs (sr_clean runs ~20 % slower at 2) and, on a
	// shared 2-vCPU box, ties the EC worker pool's speed to a sibling vCPU
	// that is not always there (wan_ec repeats to ±5 % at 1, ±18 % at 2).
	// Pinned so the run shape is the same on every box.
	runtime.GOMAXPROCS(1)

	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	o := runOpts{seed: *seed, seconds: *seconds, minReps: 3, setupSamples: 5, traced: (*traced || *trace == 1) && !*selfcheck, driveScale: 1}
	if o.traced {
		o.minReps = 2 // per half: untraced, then traced
	}
	printHeader(os.Stdout, o)

	if *selfcheck {
		if !runSelfcheck(os.Stdout, selected, o) {
			os.Exit(1)
		}
		return
	}
	ok := true
	for _, w := range selected {
		run, err := runWorkload(w, o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		run.report(os.Stdout)
		if o.traced {
			path := fmt.Sprintf(".bench_build/spans/%s.jsonl", w.name)
			if err := run.tr.writeJSONL(path); err != nil {
				fatal(err)
			}
			fmt.Printf("spans written to %s\n", path)
		}
		ok = ok && run.correct()
		fmt.Println(run.resultLine())
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// printHeader says what ran where, so two outputs can be told apart.
func printHeader(out io.Writer, o runOpts) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(out, "sdrrdma benchmark  commit %s  %s  nproc %d  GOMAXPROCS %d\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "cpu: %s\n", cpuModel())
	fmt.Fprintf(out, "seed %d  %.0f s of timed reps per workload (at least %d)\n", o.seed, o.seconds, o.minReps)
	fmt.Fprintln(out, "virtual clock, in-process simulated wire — no real link or loopback crossed")
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
