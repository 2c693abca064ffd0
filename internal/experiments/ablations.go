package experiments

import (
	"fmt"
	"strconv"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/model"
	"sdrrdma/internal/stats"
)

// ablationGenerations measures the functional-stack cost of the
// late-packet generation mechanism (§3.3.2): more generations mean
// more internal QPs and root-mkey tables per SDR QP. The paper argues
// their sequential use keeps the overhead negligible.
func ablationGenerations(o Options) (sweep, error) {
	gens := []int{1, 2, 4, 8}
	return sweep{labels: labelsOf(gens, strconv.Itoa), cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		cfg := core.Config{
			MTU: 4096, ChunkBytes: 64 << 10, MaxMsgBytes: 4 << 20,
			Generations: gens[r], Channels: 8, CQDepth: 1 << 14,
		}
		res, err := measure(func(msgs int) (throughputResult, error) {
			return runThroughput(cfg, 1<<20, msgs, 16, 2)
		}, o.DurationSec/2)
		if err != nil {
			return nil, err
		}
		return []string{fmt.Sprintf("%.2f", res.gbps()), fmt.Sprintf("%d", res.msgs)}, nil
	}}, nil
}

// ablationRTO sweeps the SR retransmission-timeout factor (§4.1.1's
// RTO = RTT + α·RTT): too small risks spurious retransmits on real
// networks; in the model, completion time grows linearly with the
// exposed timeout.
func ablationRTO(o Options) (sweep, error) {
	const size = 128 << 20
	ch := paperChannel(1e-4)
	factors := []float64{1, 2, 3, 4, 5}
	factor := func(f float64) string { return fmt.Sprintf("%.0f", f) }
	return sweep{labels: labelsOf(factors, factor), cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		sum := stats.Summarize(model.Sample(model.SR{Ch: ch, RTOFactor: factors[r]}, size, o.TailSamples, o.Seed))
		return []string{
			fmt.Sprintf("%.2f", sum.Mean*1e3),
			fmt.Sprintf("%.2f", sum.P999*1e3),
			fmt.Sprintf("%.2f", sum.Mean/model.LosslessTime(ch, size)),
		}, nil
	}}, nil
}

// ablationChunkModel sweeps the bitmap chunk size in the model: larger
// chunks raise the effective chunk-drop probability
// (P_chunk = 1-(1-p)^N, Fig 15) and coarsen SR retransmission units,
// trading PCIe traffic against drop-detection resolution (§3.1.1).
func ablationChunkModel(o Options) (sweep, error) {
	const size = 128 << 20
	pkts := []int{1, 4, 16, 64}
	chunk := func(n int) string { return sizeLabel(int64(4096 * n)) }
	return sweep{labels: labelsOf(pkts, chunk), cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		ch := paperChannel(0)
		ch.ChunkBytes = 4096 * pkts[r]
		q := 1.0
		for i := 0; i < pkts[r]; i++ {
			q *= 1 - 1e-4
		}
		ch.PDrop = 1 - q
		mean := stats.Mean(model.Sample(model.NewSRRTO(ch), size, o.Samples, o.Seed))
		return []string{
			fmt.Sprintf("%.1e", ch.PDrop),
			fmt.Sprintf("%d", ch.ChunksIn(size)),
			fmt.Sprintf("%.2f", mean*1e3),
			fmt.Sprintf("%.2f", mean/model.LosslessTime(ch, size)),
		}, nil
	}}, nil
}
