package experiments

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/session"
)

// The multidc figure on the virtual clock is a pure function of its
// seed: byte-identical tables across runs and GOMAXPROCS settings
// (the same guarantee TestVirtualDeterminism gives the reliability
// stack, extended to whole topologies).
func TestMultiDCFunctionalDeterminism(t *testing.T) {
	render := func() string {
		res, err := Run("multidc-functional", quickOpts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Format()
	}
	first := render()
	prev := runtime.GOMAXPROCS(1)
	second := render()
	runtime.GOMAXPROCS(prev)
	third := render()
	if first != second || first != third {
		t.Fatalf("multidc-functional diverged across runs:\n%s\n%s\n%s", first, second, third)
	}
	if altSeed, err := Run("multidc-functional", Options{
		Samples: quickOpts.Samples, TailSamples: quickOpts.TailSamples,
		Seed: quickOpts.Seed + 1, DurationSec: quickOpts.DurationSec,
	}); err != nil {
		t.Fatal(err)
	} else if altSeed.Format() == first {
		t.Fatal("different seeds produced identical tables — figure not actually seeded")
	}
}

// The dumbbell's finite shared bottleneck must show §3.1.1 at the
// chunk level: tail-drop loss whose bursts the bitmap masks (mean
// packet drops per lost chunk > 1), connecting the functional stack
// to internal/wan's burst analysis.
func TestMultiDCDumbbellBurstMasking(t *testing.T) {
	res := runFig(t, "multidc-functional")
	found := false
	for _, row := range res.Rows {
		if row[0] != "dumbbell" {
			continue
		}
		found = true
		tail, err := strconv.ParseFloat(row[4], 64)
		if err != nil || tail <= 0 {
			t.Fatalf("dumbbell %s: tail-drop %q, want > 0", row[1], row[4])
		}
		masked, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatalf("dumbbell %s: drops/lost chunk %q not numeric: %v", row[1], row[6], err)
		}
		if masked <= 1 {
			t.Fatalf("dumbbell %s: %.2f drops per lost chunk, want > 1 (burst masking)", row[1], masked)
		}
	}
	if !found {
		t.Fatal("figure has no dumbbell rows")
	}
}

// The lossy ring rows must actually exercise the Gilbert–Elliott wire
// loss (wire-drop > 0) — otherwise the scenario silently degraded to
// a lossless run.
func TestMultiDCRingSeesBurstLoss(t *testing.T) {
	res := runFig(t, "multidc-functional")
	for _, row := range res.Rows {
		if !strings.HasPrefix(row[0], "ring-") {
			continue
		}
		wire, err := strconv.ParseFloat(row[5], 64)
		if err != nil || wire <= 0 {
			t.Fatalf("ring %s: wire-drop %q, want > 0", row[1], row[5])
		}
		return
	}
	t.Fatal("figure has no ring rows")
}

// A misspelt scheme fails every functional driver with the value's
// error; none of them falls back to SR.
func TestFunctionalDriversRejectUnknownScheme(t *testing.T) {
	clk := clock.NewVirtual()
	pool, err := session.NewPool(session.Config{Core: wanCoreCfg(clk)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	relCfg := reliability.Config{K: 4, M: 2}
	_, wanErr := runWANReliability(pool, clk, "ecc", 0, 1<<20, 1)
	_, adaptiveErr := runAdaptiveScenario(clk, "ecc", 1<<20, reliability.AdaptorConfig{}, 1, nil)
	_, ringErr := runMultiDCRing(clk, "ecc", relCfg, 3, 3*1024, 1)
	_, treeErr := runMultiDCTree(clk, "ecc", relCfg, 3, 64<<10, 1)
	_, dumbbellErr := runMultiDCDumbbell(clk, "ecc", relCfg, 64<<10, 1)
	for name, err := range map[string]error{"wan": wanErr, "adaptive": adaptiveErr, "ring": ringErr, "tree": treeErr, "dumbbell": dumbbellErr} {
		if err == nil || !strings.Contains(err.Error(), "unknown scheme") {
			t.Errorf("%s driver under scheme \"ecc\": err = %v, want the unknown-scheme error", name, err)
		}
	}
}
