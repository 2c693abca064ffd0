// Package experiments regenerates every table and figure of the
// paper's evaluation (§5), plus its ablations and extensions. One
// ordered table, figures, holds each figure's id, paper reference,
// level, Result metadata and cells; Run(id) sweeps a figure's cells and
// returns a Result whose rows mirror the series the paper plots, and
// List returns the table for cmd/sdr-experiments to print. Each
// Result's notes record the paper's value next to the measured one.
//
// A figure's level says where its numbers come from and how its cells
// run:
//
//   - model: the completion-time model (§4.2; the paper produced these
//     with its Python framework, §5.1.1). Cells fan out over
//     clock.Lanes.
//   - des: protosim's chunk-level discrete-event simulator. Cells run
//     serially, because protosim.Sample parallelises each campaign.
//   - functional: the Go SDR stack as packet-level runs, on the virtual
//     clock unless Options.RealClock is set. Cells fan out over
//     clock.Lanes.
//   - wall: wall-clock measurements of this host's encode and pipeline
//     rates, shape-comparable with the paper's hardware but not
//     absolute. Cells run serially, and the numbers differ run to run.
//
// Every figure but the wall ones is a pure function of its Options.
package experiments

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/gf256"
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
	// RealClock runs the functional figures against the wall clock
	// instead of the default deterministic virtual clock.
	RealClock bool
	// SweepWorkers caps how many model and virtual-clock cells run
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

// level is where a figure's numbers come from; it decides how the
// figure's cells run (see the package comment).
type level string

const (
	levelModel      level = "model"
	levelDES        level = "des"
	levelFunctional level = "functional"
	levelWall       level = "wall"
)

// figure is one row of the figure table.
type figure struct {
	id    string
	paper string // the paper figure, or the section an extension follows
	level level
	// The Result metadata. A sweep may append to the title and the notes
	// what depends on the options.
	name, title string
	header      []string
	notes       []string
	cells       func(o Options) (sweep, error)
}

// sweep is a figure's cells at one set of options: row r of the table
// is labels[r] followed by the values of cells (r, 0) … (r, cols−1).
type sweep struct {
	labels [][]string
	cols   int // cells per row; 0 means 1
	cell   func(clk clock.Clock, r, c int) ([]string, error)
	title  string   // appended to the figure's title
	notes  []string // appended to the figure's notes
	// done, if set, runs after the cells, whether or not one failed;
	// the notes it returns follow the sweep's.
	done func() []string
}

// labelsOf labels each row with one cell rendered from its axis value.
func labelsOf[T any](axis []T, label func(T) string) [][]string {
	labels := make([][]string, len(axis))
	for i, v := range axis {
		labels[i] = []string{label(v)}
	}
	return labels
}

// pLabel renders a drop probability the way every figure's P_drop axis
// prints it.
func pLabel(p float64) string { return fmt.Sprintf("%.0e", p) }

// hostCPUs opens the notes of the figures that time this host.
var hostCPUs = fmt.Sprintf("functional Go pipeline on %d CPUs", runtime.NumCPU())

// figures is the evaluation in paper order — Figures 2–16, then the
// ablations, the extensions and the functional-stack figures. Every
// consumer reads it: Run and List, the sdr-experiments usage listing,
// the identity test and README's figure section.
var figures = []figure{
	{id: "2", paper: "Fig 2", level: levelModel, cells: fig2,
		name: "Fig 2", title: "UDP payload drop rate between two DC sites (200 trials/size)",
		header: []string{"payload", "p5", "p25", "median", "p75", "p95", "max"},
		notes: []string{
			"paper: 1 KiB spans ~1e-4..1e-2; 8 KiB spans ~1e-3..>1e-1; spread ≈3 orders of magnitude",
			"substitution: congested-ISP trial model (see README.md, \"Fig 2: the congested-ISP trial model\")",
		}},
	{id: "3a", paper: "Fig 3a", level: levelModel, cells: fig3a,
		name: "Fig 3a", title: "Mean slowdown vs Write size (P=1e-5, 3750 km, 400 Gbit/s)",
		header: []string{"write size", "SR RTO(3 RTT)", "MDS EC(32,8)"},
		notes:  []string{"paper: SR peaks ~2.5x near the size where one drop is likely (~1/P packets); EC stays near its 1.25x parity floor; SR wins above ~32 GiB"}},
	{id: "3b", paper: "Fig 3b", level: levelModel, cells: fig3b,
		name: "Fig 3b", title: "Mean slowdown vs one-way distance (8 GiB, P=1e-5, 400 Gbit/s)",
		header: []string{"distance", "RTT", "SR RTO(3 RTT)", "MDS EC(32,8)"},
		notes:  []string{"paper: SR wins while the message is 'large' vs BDP; EC overtakes as distance grows and the RTT penalty of retransmission is exposed"}},
	{id: "3c", paper: "Fig 3c", level: levelModel, cells: fig3c,
		name: "Fig 3c", title: "Mean slowdown vs drop rate (128 MiB, 3750 km, 400 Gbit/s)",
		header: []string{"P_drop", "SR RTO(3 RTT)", "MDS EC(32,8)"},
		notes:  []string{"paper: SR climbs from ~3x to ~10x as packets need multiple retransmission rounds (+1/+2/+3 RTO); EC stays near 1.25x until parity is overwhelmed"}},
	{id: "9", paper: "Fig 9", level: levelModel, cells: fig9,
		name: "Fig 9", title: "EC(32,8) speedup over SR RTO (400 Gbit/s, 25 ms RTT); >1 = EC wins",
		header: []string{"size \\ P_drop", "1e-06", "1e-05", "1e-04", "1e-03", "1e-02", "1e-01"},
		notes:  []string{"paper: red region (EC wins) spans ~128 KiB–1 GiB × 1e-6–1e-2; SR wins for multi-GiB messages at low drop; both ≈equal for tiny messages"}},
	{id: "10a", paper: "Fig 10a", level: levelModel, cells: fig10a,
		name: "Fig 10a", title: "Completion time vs Write size (P=1e-5)",
		header: []string{"write size", "SR RTO(3 RTT) mean [ms]", "SR RTO(3 RTT) p99.9 [ms]",
			"SR NACK mean [ms]", "SR NACK p99.9 [ms]", "MDS EC(32,8) mean [ms]", "MDS EC(32,8) p99.9 [ms]"},
		notes: []string{"paper: SR's RTO is fully exposed below the BDP; NACK recovers ~4x of the gap; EC tracks the lossless baseline + parity"}},
	{id: "10b", paper: "Fig 10b", level: levelModel, cells: fig10b,
		name: "Fig 10b", title: "MDS EC(32,8), 128 MiB: completion and fallback vs drop rate",
		header: []string{"P_drop", "mean [ms]", "p99.9 [ms]", "P(fallback)", "slowdown"},
		notes:  []string{"paper: EC holds its parity floor until drops overwhelm the code, then wastes parity bandwidth and falls back to SR"}},
	{id: "10c", paper: "Fig 10c", level: levelModel, cells: fig10c,
		name: "Fig 10c", title: "SR RTO vs SR NACK, 128 MiB: RTO exposure vs drop rate",
		header: []string{"P_drop", "RTO mean [ms]", "RTO p99.9 [ms]", "NACK mean [ms]", "NACK p99.9 [ms]", "NACK gain"},
		notes:  []string{"paper: NACK improves up to ~4x but every drop still costs ≥1 RTT (+1/+2 RTO annotations)"}},
	{id: "10d", paper: "Fig 10d", level: levelModel, cells: fig10d,
		name: "Fig 10d", title: "MDS split sweep, 128 MiB: protection vs bandwidth inflation",
		header: []string{"P_drop", "EC(64,8) mean [ms]", "EC(32,8) mean [ms]", "EC(16,8) mean [ms]", "EC(8,8) mean [ms]"},
		notes:  []string{"paper: lower data:parity ratios survive higher drop rates at more bandwidth; (32,8) is the balanced choice (≤20% inflation, tolerates >1e-2)"}},
	{id: "11", paper: "Fig 11", level: levelWall, cells: fig11,
		name: "Fig 11", title: "MDS vs XOR EC(32,8), 64 KiB chunks, 128 MiB buffer",
		header: []string{"code", "encode [Gbit/s/core]", "cores to hide 400G", "fallback@1e-3", "fallback@1e-2"},
		notes: []string{
			"paper: XOR hides encoding with ~4 cores, MDS needs ~2x more; XOR falls back to SR at ~1e-3 chunk drop while MDS holds past 1e-2",
			"single-core encode throughput measured on this machine's CPU, MDS through the " + gf256.Kernel() + " kernel of internal/gf256 (shape-comparable; the paper used AVX-512/ISA-L on Xeon 8580)",
		}},
	{id: "12", paper: "Fig 12", level: levelModel, cells: fig12,
		name: "Fig 12", title: "Normalized 128 MiB Write completion (P=1e-5): distance × bandwidth",
		header: []string{"distance \\ BW", "100G SR", "100G EC", "400G SR", "400G EC", "800G SR", "800G EC", "1600G SR", "1600G EC"},
		notes:  []string{"paper: RTT impact on SR grows with both distance and bandwidth (BDP); at short distance T_inj dominates and the schemes converge"}},
	{id: "13", paper: "Fig 13", level: levelModel, cells: fig13,
		name: "Fig 13", title: "p99.9 ring-Allreduce speedup, MDS EC(32,8) over SR RTO",
		header: []string{"config", "P=1e-04", "P=1e-03", "P=1e-02"},
		notes:  []string{"paper: speedup grows with drop rate from ~3x to >6x; gains persist across DC counts and buffer sizes (2N-2 stages compound per-stage costs)"}},
	{id: "14", paper: "Fig 14", level: levelWall, cells: fig14,
		name: "Fig 14", title: "SDR throughput (16 in-flight, 64 KiB chunks) and worker scaling",
		header: []string{"config", "Gbit/s", "Mpkts/s", "msgs"},
		notes: []string{
			hostCPUs + " — shapes comparable, absolute rates are not 400G silicon",
			"paper: SDR saturates 400G from 512 KiB; smaller messages lose to receive-repost overhead; RC Writes lead below 512 KiB",
		}},
	{id: "15", paper: "Fig 15", level: levelWall, cells: fig15,
		name: "Fig 15", title: "Packet rate vs bitmap chunk size (64 B writes, 16 workers)",
		header: []string{"chunk [MTUs]", "Mpkts/s", "P_chunk@1e-5"},
		notes: []string{
			hostCPUs,
			"paper: rate is flat across chunk sizes (workers process completions, not payloads) while P_chunk grows as 1-(1-p)^N — the bitmap resolution is free at line rate",
		}},
	{id: "16", paper: "Fig 16", level: levelWall, cells: fig16,
		name: "Fig 16", title: "Packet rate vs receive DPA workers (64 B writes)",
		header: []string{"workers", "Mpkts/s", "scaling vs 1 worker"},
		notes: []string{
			hostCPUs + " — scaling saturates at the host core count; BlueField-3 has 256 DPA threads",
			"paper line-rate targets at 4 KiB MTU: 400G=12, 800G=24, 1600G=49, 3200G=98 Mpkts/s; DPA scales near-linearly 4→128 threads",
		}},
	{id: "ablation-gen", paper: "§3.3.2", level: levelWall, cells: ablationGenerations,
		name: "Ablation: generations", title: "Throughput vs generation count (1 MiB messages, 8 workers)",
		header: []string{"generations", "Gbit/s", "msgs"},
		notes: []string{
			hostCPUs,
			"expected: flat — generations are used sequentially (§3.3.2), so extra QPs cost memory, not throughput",
		}},
	{id: "ablation-rto", paper: "§4.1.1", level: levelModel, cells: ablationRTO,
		name: "Ablation: SR RTO factor", title: "SR completion vs RTO factor (128 MiB, P=1e-4)",
		header: []string{"RTO [RTTs]", "mean [ms]", "p99.9 [ms]", "slowdown"},
		notes:  []string{"NACK mode is the RTO=1 endpoint of this sweep; the paper's default is 3"}},
	{id: "ablation-chunk", paper: "§3.1.1", level: levelModel, cells: ablationChunkModel,
		name: "Ablation: bitmap chunk size (model)", title: "SR completion vs chunk size (128 MiB, per-packet P=1e-4)",
		header: []string{"chunk", "P_chunk", "chunks", "SR mean [ms]", "slowdown"},
		notes:  []string{"per-packet drop rate held at 1e-4; the chunk bitmap converts it to 1-(1-p)^N per chunk"}},
	{id: "des-validate", paper: "§4.2", level: levelDES, cells: desValidation,
		name: "DES validation", title: "SR 128 MiB: closed form vs stochastic model vs discrete-event sim",
		header: []string{"P_drop", "analytic [ms]", "stochastic [ms]", "DES [ms]", "max spread"},
		notes:  []string{"extension of contribution #4: the DES relaxes the closed form's serialization assumption; agreement within ~10% validates both"}},
	{id: "gbn", paper: "§4", level: levelDES, cells: gbnBaseline,
		name: "GBN baseline", title: "Go-Back-N vs SR vs EC, 128 MiB (DES, 64 KiB chunks)",
		header: []string{"P_drop", "GBN mean [ms]", "SR mean [ms]", "EC mean [ms]", "SR/GBN", "EC/GBN"},
		notes:  []string{"§4 picks SR because it provably dominates GBN [Bertsekas & Gallager]; the DES shows by how much on a 25 ms-RTT path"}},
	{id: "tree", paper: "§5.3", level: levelModel, cells: treeCollective,
		name: "Tree collective", title: "p99.9 binomial-tree broadcast speedup, MDS EC over SR RTO (128 MiB)",
		header: []string{"datacenters", "rounds", "P=1e-4", "P=1e-3", "P=1e-2"},
		notes:  []string{"per-stage reliability costs compound along the ⌈log2 N⌉-deep critical path, mirroring the ring's (2N−2) amplification"}},
	{id: "wan-functional", paper: "§5.1", level: levelFunctional, cells: wanFunctional,
		name: "WAN functional", title: "Functional SDR stack at 25 ms RTT, 400 Gbit/s",
		header: []string{"scheme", "P_drop", "completion [ms]", "packets", "overhead"},
		notes: []string{
			"packet-level runs of the real Go stack (DMA into user buffers) — not the closed-form model",
			"completion is sender-side; overhead is injected/ideal data packets (EC ideal includes parity)",
		}},
	{id: "multidc-functional", paper: "§5.3", level: levelFunctional, cells: multiDCFunctional,
		name: "Multi-DC functional", title: "SDR reliability across emulated multi-datacenter topologies",
		header: []string{"scenario", "scheme", "completion [ms]", "packets", "tail-drop", "wire-drop", "drops/lost chunk"},
		notes:  []string{"packet-level runs of the real Go stack over internal/netem finite-buffer queues — every flow shares edge buffers with its neighbours"}},
	{id: "adaptive-functional", paper: "§4.1", level: levelFunctional, cells: adaptiveFunctional,
		name: "Adaptive functional", title: "Mid-flight adaptive reliability through a dynamic-fault regime sweep",
		header: []string{"scheme", "completion [ms]", "packets", "overhead", "wire-drop", "down-drop", "marked", "reroutes", "trajectory"},
		notes:  []string{"diamond topology: 1500 km primary (10 ms RTT) + 2500 km backup, 2 Gbit/s edges, packet-level runs of the real Go stack"}},
	{id: "chaos-functional", paper: "—", level: levelFunctional, cells: chaosFunctional,
		name: "chaos-functional", title: "failure-semantics survivability",
		header: []string{"scheme", "scenarios", "completed", "timeout", "aborted", "peer-dead", "untyped", "reused", "quarantined", "violations"},
		notes: []string{
			"every non-completed transfer returned a typed error (ErrTimeout/ErrAborted/ErrPeerDead) within the bound",
			"reused = lease returned to the session pool and re-leased clean; quarantined = lease retired, cold build verified",
		}},
}

// List returns the figure table in paper order, one row per figure:
// id, level, paper figure and title.
func List() [][]string {
	rows := make([][]string, len(figures))
	for i, f := range figures {
		rows[i] = []string{f.id, string(f.level), f.paper, f.title}
	}
	return rows
}

// Run executes one experiment by figure ID.
func Run(id string, opts Options) (*Result, error) {
	i := slices.IndexFunc(figures, func(f figure) bool { return f.id == id })
	if i < 0 {
		ids := make([]string, len(figures))
		for i, f := range figures {
			ids[i] = f.id
		}
		return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, ids)
	}
	f := &figures[i]
	opts = opts.withDefaults()
	s, err := f.cells(opts)
	if err != nil {
		return nil, err
	}
	rows, err := sweepRows(opts, f.level, s)
	var late []string
	if s.done != nil {
		late = s.done()
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Name: f.name, Title: f.title + s.title, Header: f.header, Rows: rows,
		Notes: slices.Concat(f.notes, s.notes, late),
	}, nil
}

// sweepRows runs s's cells the way level l runs them and returns the
// table rows in order. It fails fast: cells that start after a failure
// are skipped, and the error returned is the lowest-numbered failed
// cell's.
func sweepRows(o Options, l level, s sweep) ([][]string, error) {
	cols := max(s.cols, 1)
	n := len(s.labels) * cols
	vals := make([][]string, n)
	errs := make([]error, n)
	var failed atomic.Bool
	cell := func(clk clock.Clock, i int) {
		if failed.Load() {
			return
		}
		if vals[i], errs[i] = s.cell(clk, i/cols, i%cols); errs[i] != nil {
			failed.Store(true)
		}
	}
	switch l {
	case levelModel:
		// Model cells never read the clock; the lanes only spread them
		// over the cores.
		(&clock.Lanes{Workers: o.SweepWorkers}).Run(n, func(_ *clock.Virtual, i int) { cell(nil, i) })
	case levelFunctional:
		runSweep(o, n, cell)
	default:
		// DES campaigns already fan out inside protosim.Sample, and wall
		// cells time the host, so neither may share the cores.
		for i := range n {
			cell(nil, i)
		}
	}
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	rows := make([][]string, len(s.labels))
	for r, label := range s.labels {
		rows[r] = slices.Clone(label)
		for _, v := range vals[r*cols : (r+1)*cols] {
			rows[r] = append(rows[r], v...)
		}
	}
	return rows, nil
}

// runSweep executes n independent functional cells. On the default
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
				o.Trace.CellStart(i, clock.Realtime().NowNanos())
			}
			cell(clock.Realtime(), i)
			if o.Trace != nil {
				o.Trace.CellFinish(i, clock.Realtime().NowNanos())
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
