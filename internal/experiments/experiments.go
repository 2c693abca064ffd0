// Package experiments regenerates every table and figure of the
// paper's evaluation (§5). Run(id) looks a figure up in the registry
// and returns a Result whose rows mirror the series the paper plots;
// the cmd/sdr-experiments binary prints them, and each Result's notes
// record the paper's value next to the measured one.
//
// Figures 2, 3 and 9–13 use the model path (the paper produced them
// with its Python framework, §5.1.1); Figures 14–16 run the real Go
// SDR stack over the in-memory fabric and report the actual pipeline
// packet rates (shape-comparable, not absolute: the host is a
// simulator core, not a NIC — see README "Benchmarks").
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"sdrrdma/internal/telemetry"
)

// Result is one regenerated table/figure.
type Result struct {
	Name   string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.Name, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for i := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tunes experiment fidelity.
type Options struct {
	// Samples is the stochastic-model sample count per data point
	// (the paper uses 1000 for means; tails want more).
	Samples int
	// TailSamples is used where p99.9 is reported.
	TailSamples int
	// Seed makes everything reproducible.
	Seed int64
	// Duration (seconds) for functional throughput measurements.
	DurationSec float64
	// RealClock runs the WAN functional figures against the wall clock
	// instead of the default deterministic virtual clock — the
	// before/after comparison for the virtual-clock migration.
	RealClock bool
	// SweepWorkers caps how many virtual-clock sweep cells run
	// concurrently (clock.Lanes): 0 = GOMAXPROCS, 1 = the serial
	// reference path. Output is byte-identical for every setting.
	SweepWorkers int
	// Trace, when set, flight-records the run: every sweep cell gets
	// its own telemetry.Recorder (Trace.Cell(i)), scenario code attaches
	// it to topologies and sessions, and the caller exports Chrome
	// trace-event JSON afterwards. On the virtual clock the recorded
	// events — like the figures themselves — are byte-identical per seed
	// for any SweepWorkers and GOMAXPROCS.
	Trace *telemetry.Trace
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.Samples == 0 {
		o.Samples = 1000
	}
	if o.TailSamples == 0 {
		o.TailSamples = 10000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.DurationSec == 0 {
		o.DurationSec = 1.0
	}
	return o
}

// clockLabel names the clock backend in functional-figure titles.
func (o Options) clockLabel() string {
	if o.RealClock {
		return "real"
	}
	return "virtual"
}

// registry maps figure IDs to their runners.
var registry = map[string]func(Options) (*Result, error){
	"2":   fig2,
	"3a":  fig3a,
	"3b":  fig3b,
	"3c":  fig3c,
	"9":   fig9,
	"10a": fig10a,
	"10b": fig10b,
	"10c": fig10c,
	"10d": fig10d,
	"11":  fig11,
	"12":  fig12,
	"13":  fig13,
	"14":  fig14,
	"15":  fig15,
	"16":  fig16,
}

// List returns the available experiment IDs in order.
func List() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by figure ID.
func Run(id string, opts Options) (*Result, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, List())
	}
	return fn(opts.withDefaults())
}

// sizeLabel formats byte counts the way the paper's axes do.
func sizeLabel(b int64) string {
	switch {
	case b >= 1<<40:
		return fmt.Sprintf("%d TiB", b>>40)
	case b >= 1<<30:
		return fmt.Sprintf("%d GiB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%d MiB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%d KiB", b>>10)
	default:
		return fmt.Sprintf("%d B", b)
	}
}
