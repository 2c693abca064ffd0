package experiments

import (
	"fmt"
	"runtime"

	"sdrrdma/internal/core"
	"sdrrdma/internal/model"
	"sdrrdma/internal/stats"
)

func init() {
	registry["ablation-gen"] = ablationGenerations
	registry["ablation-rto"] = ablationRTO
	registry["ablation-chunk"] = ablationChunkModel
}

// ablationGenerations measures the functional-stack cost of the
// late-packet generation mechanism (§3.3.2): more generations mean
// more internal QPs and root-mkey tables per SDR QP. The paper argues
// their sequential use keeps the overhead negligible.
func ablationGenerations(o Options) (*Result, error) {
	res := &Result{
		Name:   "Ablation: generations",
		Title:  "Throughput vs generation count (1 MiB messages, 8 workers)",
		Header: []string{"generations", "Gbit/s", "msgs"},
		Notes: []string{
			fmt.Sprintf("functional Go pipeline on %d CPUs", runtime.NumCPU()),
			"expected: flat — generations are used sequentially (§3.3.2), so extra QPs cost memory, not throughput",
		},
	}
	for _, gens := range []int{1, 2, 4, 8} {
		cfg := core.Config{
			MTU: 4096, ChunkBytes: 64 << 10, MaxMsgBytes: 4 << 20,
			Generations: gens, Channels: 8, CQDepth: 1 << 14,
		}
		run := func(msgs int) (throughputResult, error) {
			return runThroughput(cfg, 1<<20, msgs, 16, 2)
		}
		r, err := measure(run, o.DurationSec/2)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", gens),
			fmt.Sprintf("%.2f", r.gbps()),
			fmt.Sprintf("%d", r.msgs),
		})
	}
	return res, nil
}

// ablationRTO sweeps the SR retransmission-timeout factor (§4.1.1's
// RTO = RTT + α·RTT): too small risks spurious retransmits on real
// networks; in the model, completion time grows linearly with the
// exposed timeout.
func ablationRTO(o Options) (*Result, error) {
	res := &Result{
		Name:   "Ablation: SR RTO factor",
		Title:  "SR completion vs RTO factor (128 MiB, P=1e-4)",
		Header: []string{"RTO [RTTs]", "mean [ms]", "p99.9 [ms]", "slowdown"},
		Notes: []string{
			"NACK mode is the RTO=1 endpoint of this sweep; the paper's default is 3",
		},
	}
	const size = 128 << 20
	ch := paperChannel(1e-4)
	factors := []float64{1, 2, 3, 4, 5}
	res.Rows = make([][]string, len(factors))
	parallelFor(len(factors), func(i int) {
		s := model.SR{Ch: ch, RTOFactor: factors[i]}
		sum := stats.Summarize(model.Sample(s, size, o.TailSamples, o.Seed))
		res.Rows[i] = []string{
			fmt.Sprintf("%.0f", factors[i]),
			fmt.Sprintf("%.2f", sum.Mean*1e3),
			fmt.Sprintf("%.2f", sum.P999*1e3),
			fmt.Sprintf("%.2f", sum.Mean/model.LosslessTime(ch, size)),
		}
	})
	return res, nil
}

// ablationChunkModel sweeps the bitmap chunk size in the model: larger
// chunks raise the effective chunk-drop probability
// (P_chunk = 1-(1-p)^N, Fig 15) and coarsen SR retransmission units,
// trading PCIe traffic against drop-detection resolution (§3.1.1).
func ablationChunkModel(o Options) (*Result, error) {
	res := &Result{
		Name:   "Ablation: bitmap chunk size (model)",
		Title:  "SR completion vs chunk size (128 MiB, per-packet P=1e-4)",
		Header: []string{"chunk", "P_chunk", "chunks", "SR mean [ms]", "slowdown"},
		Notes: []string{
			"per-packet drop rate held at 1e-4; the chunk bitmap converts it to 1-(1-p)^N per chunk",
		},
	}
	const size = 128 << 20
	for _, pkts := range []int{1, 4, 16, 64} {
		ch := paperChannel(0)
		ch.ChunkBytes = 4096 * pkts
		pChunk := 1.0
		{
			q := 1.0
			for i := 0; i < pkts; i++ {
				q *= 1 - 1e-4
			}
			pChunk = 1 - q
		}
		ch.PDrop = pChunk
		s := model.NewSRRTO(ch)
		mean := stats.Mean(model.Sample(s, size, o.Samples, o.Seed))
		res.Rows = append(res.Rows, []string{
			sizeLabel(int64(ch.ChunkBytes)),
			fmt.Sprintf("%.1e", pChunk),
			fmt.Sprintf("%d", ch.ChunksIn(size)),
			fmt.Sprintf("%.2f", mean*1e3),
			fmt.Sprintf("%.2f", mean/model.LosslessTime(ch, size)),
		})
	}
	return res, nil
}
