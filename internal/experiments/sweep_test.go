package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"sdrrdma/internal/clock"
)

// renderFig runs one figure with an explicit lane count and returns
// the formatted table.
func renderFig(t *testing.T, id string, workers int) string {
	t.Helper()
	opts := quickOpts
	opts.SweepWorkers = workers
	res, err := Run(id, opts)
	if err != nil {
		t.Fatalf("figure %s (workers=%d): %v", id, workers, err)
	}
	return res.Format()
}

// sweepDeterminism asserts the multi-lane guarantee for one figure:
// the parallel sweep is byte-identical to the serial virtual path for
// every worker count, and stays so across GOMAXPROCS ∈ {1, 4, 8}.
func sweepDeterminism(t *testing.T, id string) {
	t.Helper()
	serial := renderFig(t, id, 1)
	for _, workers := range []int{0, 2, 4, 8} {
		if got := renderFig(t, id, workers); got != serial {
			t.Fatalf("%s: workers=%d diverged from serial:\n%s\n---\n%s", id, workers, got, serial)
		}
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		if got := renderFig(t, id, 0); got != serial {
			t.Fatalf("%s: GOMAXPROCS=%d diverged from serial:\n%s\n---\n%s", id, procs, got, serial)
		}
	}
}

// sweepRows assembles rows in cell order, labels first; after a failure
// it skips the cells that have not started and reports the
// lowest-numbered failed cell, whatever else failed alongside it. The
// cell-running levels are checked alike.
func TestSweepRowsFailsFast(t *testing.T) {
	var ran atomic.Int32
	grid := func(failing ...int) sweep {
		return sweep{
			labels: [][]string{{"a"}, {"b"}, {"c"}, {"d"}},
			cols:   2,
			cell: func(_ clock.Clock, r, c int) ([]string, error) {
				ran.Add(1)
				if i := 2*r + c; slices.Contains(failing, i) {
					return nil, fmt.Errorf("cell %d", i)
				}
				return []string{fmt.Sprint(r, c)}, nil
			},
		}
	}
	for _, l := range []level{levelModel, levelFunctional, levelWall} {
		for _, workers := range []int{1, 4} {
			rows, err := sweepRows(Options{SweepWorkers: workers}, l, grid())
			if err != nil || len(rows) != 4 || !slices.Equal(rows[3], []string{"d", "3 0", "3 1"}) {
				t.Fatalf("%s workers=%d clean sweep: rows=%v err=%v", l, workers, rows, err)
			}
		}
		ran.Store(0)
		rows, err := sweepRows(Options{SweepWorkers: 1}, l, grid(2, 5))
		if rows != nil || err == nil || err.Error() != "cell 2" {
			t.Fatalf("%s serial failing sweep: rows=%v err=%v, want cell 2's error", l, rows, err)
		}
		if got := ran.Load(); got != 3 {
			t.Fatalf("%s: %d cells ran, want 3 (cells after the failure skipped)", l, got)
		}
		// On several lanes which cells start before the first failure is
		// scheduling; that the sweep fails with no rows is not.
		if rows, err := sweepRows(Options{SweepWorkers: 4}, l, grid(2, 5)); rows != nil || err == nil {
			t.Fatalf("%s parallel failing sweep: rows=%v err=%v", l, rows, err)
		}
	}
}

func TestWANFunctionalSweepParallelMatchesSerial(t *testing.T) {
	sweepDeterminism(t, "wan-functional")
}

func TestMultiDCSweepParallelMatchesSerial(t *testing.T) {
	sweepDeterminism(t, "multidc-functional")
}

// benchSweep times one figure's reduced sweep at a fixed lane count —
// the serial-vs-parallel pair make bench-par compares. On a multi-core host
// the parallel variant approaches cells/min(cells, cores) of the
// serial wall-clock; the cells share nothing but the lane pool.
func benchSweep(b *testing.B, id string, workers int) {
	opts := Options{Samples: 100, TailSamples: 100, Seed: 42, DurationSec: 0.1, SweepWorkers: workers}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(id, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWANFunctionalSweepSerial(b *testing.B)   { benchSweep(b, "wan-functional", 1) }
func BenchmarkWANFunctionalSweepParallel(b *testing.B) { benchSweep(b, "wan-functional", 0) }
func BenchmarkMultiDCSweepSerial(b *testing.B)         { benchSweep(b, "multidc-functional", 1) }
func BenchmarkMultiDCSweepParallel(b *testing.B)       { benchSweep(b, "multidc-functional", 0) }
func BenchmarkAdaptiveSweepSerial(b *testing.B)        { benchSweep(b, "adaptive-functional", 1) }
func BenchmarkAdaptiveSweepParallel(b *testing.B)      { benchSweep(b, "adaptive-functional", 0) }
