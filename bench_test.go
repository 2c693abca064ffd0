// Benchmarks regenerating each table/figure of the paper's evaluation
// (§5). Each benchmark runs the corresponding experiment harness at
// reduced fidelity (fewer model samples, shorter functional
// measurements) so `go test -bench=.` stays tractable; the
// cmd/sdr-experiments binary runs them at full fidelity.
package sdrrdma_test

import (
	"strconv"
	"strings"
	"testing"

	"sdrrdma/internal/experiments"
)

// benchOpts keeps figure regeneration fast under `go test -bench`.
var benchOpts = experiments.Options{
	Samples:     200,
	TailSamples: 1000,
	Seed:        1,
	DurationSec: 0.15,
}

func benchFig(b *testing.B, id string) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchOpts)
		if err != nil {
			b.Fatalf("figure %s: %v", id, err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(float64(len(last.Rows)), "rows")
	}
}

func BenchmarkFig02(b *testing.B)  { benchFig(b, "2") }
func BenchmarkFig03a(b *testing.B) { benchFig(b, "3a") }
func BenchmarkFig03b(b *testing.B) { benchFig(b, "3b") }
func BenchmarkFig03c(b *testing.B) { benchFig(b, "3c") }
func BenchmarkFig09(b *testing.B)  { benchFig(b, "9") }
func BenchmarkFig10a(b *testing.B) { benchFig(b, "10a") }
func BenchmarkFig10b(b *testing.B) { benchFig(b, "10b") }
func BenchmarkFig10c(b *testing.B) { benchFig(b, "10c") }
func BenchmarkFig10d(b *testing.B) { benchFig(b, "10d") }
func BenchmarkFig11(b *testing.B)  { benchFig(b, "11") }
func BenchmarkFig12(b *testing.B)  { benchFig(b, "12") }
func BenchmarkFig13(b *testing.B)  { benchFig(b, "13") }
func BenchmarkFig14(b *testing.B)  { benchFig(b, "14") }
func BenchmarkFig15(b *testing.B)  { benchFig(b, "15") }
func BenchmarkFig16(b *testing.B)  { benchFig(b, "16") }

// Ablation benches cover the design choices the ablation figures
// sweep: generation count, RTO multiplier and chunk size.
func BenchmarkAblationGenerations(b *testing.B) { benchFig(b, "ablation-gen") }
func BenchmarkAblationRTO(b *testing.B)         { benchFig(b, "ablation-rto") }
func BenchmarkAblationChunk(b *testing.B)       { benchFig(b, "ablation-chunk") }

// Extension experiments: discrete-event cross-validation, the
// Go-Back-N commodity baseline, and tree collectives (§5.3).
func BenchmarkDESValidation(b *testing.B)  { benchFig(b, "des-validate") }
func BenchmarkGBNBaseline(b *testing.B)    { benchFig(b, "gbn") }
func BenchmarkTreeCollective(b *testing.B) { benchFig(b, "tree") }

// BenchmarkHeadlineSpeedup reports the paper's headline EC-over-SR
// mean speedup at the top of the red region as a benchmark metric.
func BenchmarkHeadlineSpeedup(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("9", benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		// 128 MiB row, P=1e-2 column of the Fig 9 grid
		for _, row := range res.Rows {
			if row[0] == "128 MiB" {
				v, err := strconv.ParseFloat(strings.TrimSpace(row[5]), 64)
				if err == nil {
					speedup = v
				}
			}
		}
	}
	b.ReportMetric(speedup, "x-speedup")
}
