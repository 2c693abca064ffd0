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

// sweepRows returns rows in cell order; after a failure it skips the
// cells that have not started and reports the lowest-numbered failed
// cell, whatever else failed alongside it.
func TestSweepRowsFailsFast(t *testing.T) {
	var ran atomic.Int32
	cell := func(failing ...int) func(clock.Clock, int) ([]string, error) {
		return func(_ clock.Clock, i int) ([]string, error) {
			ran.Add(1)
			if slices.Contains(failing, i) {
				return nil, fmt.Errorf("cell %d", i)
			}
			return []string{fmt.Sprint(i)}, nil
		}
	}
	for _, workers := range []int{1, 4} {
		rows, err := sweepRows(Options{SweepWorkers: workers}, 8, cell())
		if err != nil || len(rows) != 8 || rows[7][0] != "7" {
			t.Fatalf("workers=%d clean sweep: rows=%v err=%v", workers, rows, err)
		}
	}
	ran.Store(0)
	rows, err := sweepRows(Options{SweepWorkers: 1}, 8, cell(2, 5))
	if rows != nil || err == nil || err.Error() != "cell 2" {
		t.Fatalf("serial failing sweep: rows=%v err=%v, want cell 2's error", rows, err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("%d cells ran, want 3 (cells after the failure skipped)", got)
	}
	// On several lanes which cells start before the first failure is
	// scheduling; that the sweep fails with no rows is not.
	if rows, err := sweepRows(Options{SweepWorkers: 4}, 8, cell(2, 5)); rows != nil || err == nil {
		t.Fatalf("parallel failing sweep: rows=%v err=%v", rows, err)
	}
}

func TestWANFunctionalSweepParallelMatchesSerial(t *testing.T) {
	sweepDeterminism(t, "wan-functional")
}

func TestMultiDCSweepParallelMatchesSerial(t *testing.T) {
	sweepDeterminism(t, "multidc-functional")
}

// benchSweep times one figure's reduced sweep at a fixed lane count —
// the serial-vs-parallel pair the README quotes. On a multi-core host
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
