package experiments

import (
	"fmt"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/collective"
	"sdrrdma/internal/model"
	"sdrrdma/internal/protosim"
	"sdrrdma/internal/stats"
	"sdrrdma/internal/wan"
)

// desChannel64K uses 64 KiB chunks to keep DES event counts low.
func desChannel64K(pdrop float64) wan.Params {
	return wan.Params{
		BandwidthBps: 400e9, DistanceKm: 3750, PDrop: pdrop,
		MTUBytes: 4096, ChunkBytes: 64 << 10,
	}
}

// desValidation cross-checks three estimates of the SR completion
// time: the Appendix A closed form, the paper-style stochastic
// sampler, and the packet-level discrete-event simulation (which
// additionally models retransmission serialization and ACK delay).
func desValidation(o Options) (sweep, error) {
	const size = 128 << 20
	drops := []float64{1e-5, 1e-4, 1e-3}
	// At full fidelity (cmd/sdr-experiments: -samples >= 500) the
	// allocation-free DES is cheap enough to extend the sweep into the
	// heavy-loss regime where retransmission serialization makes the
	// closed form visibly optimistic.
	if o.Samples >= 500 {
		drops = append(drops, 1e-2)
	}
	return sweep{labels: labelsOf(drops, pLabel), cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		ch := desChannel64K(drops[r])
		sr := model.SR{Ch: ch, RTOFactor: 3}
		analytic := sr.MeanCompletion(size)
		stoch := stats.Mean(model.Sample(sr, size, o.Samples, o.Seed))
		desSamples, err := protosim.Sample(protosim.Config{Ch: ch, Scheme: "sr"}, size, o.Samples, o.Seed+1)
		if err != nil {
			return nil, err
		}
		des := stats.Mean(desSamples)
		lo, hi := min(analytic, stoch, des), max(analytic, stoch, des)
		return []string{
			fmt.Sprintf("%.2f", analytic*1e3),
			fmt.Sprintf("%.2f", stoch*1e3),
			fmt.Sprintf("%.2f", des*1e3),
			fmt.Sprintf("%.1f%%", (hi-lo)/lo*100),
		}, nil
	}}, nil
}

// gbnBaseline quantifies §4's justification for Selective Repeat: the
// commodity Go-Back-N transport loses a full outstanding window per
// drop on a high-BDP path.
func gbnBaseline(o Options) (sweep, error) {
	const size = 128 << 20
	// Full fidelity runs the whole campaign; reduced runs halve it.
	ns := max(o.Samples/2, 100)
	if o.Samples >= 500 {
		ns = o.Samples
	}
	drops := []float64{1e-5, 1e-4, 1e-3}
	return sweep{labels: labelsOf(drops, pLabel), cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		var means [3]float64 // gbn, sr, ec
		for j, scheme := range []string{"gbn", "sr", "ec"} {
			s, err := protosim.Sample(protosim.Config{Ch: desChannel64K(drops[r]), Scheme: scheme}, size, ns, o.Seed+int64(j))
			if err != nil {
				return nil, err
			}
			means[j] = stats.Mean(s)
		}
		gbn, sr, ecv := means[0], means[1], means[2]
		return []string{
			fmt.Sprintf("%.2f", gbn*1e3),
			fmt.Sprintf("%.2f", sr*1e3),
			fmt.Sprintf("%.2f", ecv*1e3),
			fmt.Sprintf("%.2fx", gbn/sr),
			fmt.Sprintf("%.2fx", gbn/ecv),
		}, nil
	}}, nil
}

// treeCollective extends Fig 13's analysis to binomial-tree broadcast
// (§5.3: the schedule-dependency argument generalizes to tree
// algorithms); one cell per datacenter count and drop rate.
func treeCollective(o Options) (sweep, error) {
	n := max(o.TailSamples/4, 500)
	dcss := []int{4, 8, 16}
	drops := []float64{1e-4, 1e-3, 1e-2}
	var labels [][]string
	for _, dcs := range dcss {
		labels = append(labels, []string{fmt.Sprintf("%d", dcs), fmt.Sprintf("%d", collective.Tree{N: dcs}.Rounds())})
	}
	return sweep{labels: labels, cols: len(drops), cell: func(_ clock.Clock, r, c int) ([]string, error) {
		ch := paperChannel(drops[c])
		srTree := collective.Tree{N: dcss[r], BufferBytes: 128 << 20, Scheme: model.NewSRRTO(ch)}
		ecTree := collective.Tree{N: dcss[r], BufferBytes: 128 << 20, Scheme: model.NewMDS(ch)}
		sr := stats.Summarize(srTree.SampleN(n, o.Seed+int64(c))).P999
		ecv := stats.Summarize(ecTree.SampleN(n, o.Seed+10+int64(c))).P999
		return []string{fmt.Sprintf("%.2f", sr/ecv)}, nil
	}}, nil
}
