package experiments

import (
	"fmt"

	"sdrrdma/internal/collective"
	"sdrrdma/internal/model"
	"sdrrdma/internal/protosim"
	"sdrrdma/internal/stats"
	"sdrrdma/internal/wan"
)

func init() {
	registry["des-validate"] = desValidation
	registry["tree"] = treeCollective
	registry["gbn"] = gbnBaseline
}

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
func desValidation(o Options) (*Result, error) {
	res := &Result{
		Name:   "DES validation",
		Title:  "SR 128 MiB: closed form vs stochastic model vs discrete-event sim",
		Header: []string{"P_drop", "analytic [ms]", "stochastic [ms]", "DES [ms]", "max spread"},
		Notes: []string{
			"extension of contribution #4: the DES relaxes the closed form's serialization assumption; agreement within ~10% validates both",
		},
	}
	const size = 128 << 20
	drops := []float64{1e-5, 1e-4, 1e-3}
	// At full fidelity (cmd/sdr-experiments: -samples >= 500) the
	// allocation-free DES is cheap enough to extend the sweep into the
	// heavy-loss regime where retransmission serialization makes the
	// closed form visibly optimistic.
	if o.Samples >= 500 {
		drops = append(drops, 1e-2)
	}
	res.Rows = make([][]string, len(drops))
	// Cells run serially: protosim.Sample fans each DES campaign out
	// across GOMAXPROCS itself, so wrapping it in parallelFor would
	// only oversubscribe the cores with nested parallelism.
	for i := range drops {
		p := drops[i]
		ch := desChannel64K(p)
		sr := model.SR{Ch: ch, RTOFactor: 3}
		analytic := sr.MeanCompletion(size)
		stoch := stats.Mean(model.Sample(sr, size, o.Samples, o.Seed))
		desSamples, err := protosim.Sample(protosim.Config{Ch: ch, Scheme: "sr"}, size, o.Samples, o.Seed+1)
		if err != nil {
			return nil, err
		}
		des := stats.Mean(desSamples)
		lo, hi := analytic, analytic
		for _, v := range []float64{stoch, des} {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		res.Rows[i] = []string{
			fmt.Sprintf("%.0e", p),
			fmt.Sprintf("%.2f", analytic*1e3),
			fmt.Sprintf("%.2f", stoch*1e3),
			fmt.Sprintf("%.2f", des*1e3),
			fmt.Sprintf("%.1f%%", (hi-lo)/lo*100),
		}
	}
	return res, nil
}

// gbnBaseline quantifies §4's justification for Selective Repeat: the
// commodity Go-Back-N transport loses a full outstanding window per
// drop on a high-BDP path.
func gbnBaseline(o Options) (*Result, error) {
	res := &Result{
		Name:   "GBN baseline",
		Title:  "Go-Back-N vs SR vs EC, 128 MiB (DES, 64 KiB chunks)",
		Header: []string{"P_drop", "GBN mean [ms]", "SR mean [ms]", "EC mean [ms]", "SR/GBN", "EC/GBN"},
		Notes: []string{
			"§4 picks SR because it provably dominates GBN [Bertsekas & Gallager]; the DES shows by how much on a 25 ms-RTT path",
		},
	}
	const size = 128 << 20
	ns := o.Samples / 2
	if ns < 100 {
		ns = 100
	}
	// Full-fidelity runs no longer need to halve the DES campaign: the
	// rewritten simulator path makes full-sample sweeps cheap.
	if o.Samples >= 500 {
		ns = o.Samples
	}
	drops := []float64{1e-5, 1e-4, 1e-3}
	schemes := []string{"gbn", "sr", "ec"}
	means := make([][]float64, len(drops))
	for i := range means {
		means[i] = make([]float64, len(schemes))
	}
	// One DES campaign per (drop, scheme) cell, run serially:
	// protosim.Sample parallelizes each campaign internally, so cells
	// in parallelFor would only oversubscribe the cores.
	for cell := 0; cell < len(drops)*len(schemes); cell++ {
		i, j := cell/len(schemes), cell%len(schemes)
		ch := desChannel64K(drops[i])
		s, err := protosim.Sample(protosim.Config{Ch: ch, Scheme: schemes[j]}, size, ns, o.Seed+int64(j))
		if err != nil {
			return nil, err
		}
		means[i][j] = stats.Mean(s)
	}
	for i, p := range drops {
		gbn, sr, ecv := means[i][0], means[i][1], means[i][2]
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.0e", p),
			fmt.Sprintf("%.2f", gbn*1e3),
			fmt.Sprintf("%.2f", sr*1e3),
			fmt.Sprintf("%.2f", ecv*1e3),
			fmt.Sprintf("%.2fx", gbn/sr),
			fmt.Sprintf("%.2fx", gbn/ecv),
		})
	}
	return res, nil
}

// treeCollective extends Fig 13's analysis to binomial-tree broadcast
// (§5.3: the schedule-dependency argument generalizes to tree
// algorithms).
func treeCollective(o Options) (*Result, error) {
	res := &Result{
		Name:   "Tree collective",
		Title:  "p99.9 binomial-tree broadcast speedup, MDS EC over SR RTO (128 MiB)",
		Header: []string{"datacenters", "rounds", "P=1e-4", "P=1e-3", "P=1e-2"},
		Notes: []string{
			"per-stage reliability costs compound along the ⌈log2 N⌉-deep critical path, mirroring the ring's (2N−2) amplification",
		},
	}
	n := o.TailSamples / 4
	if n < 500 {
		n = 500
	}
	dcss := []int{4, 8, 16}
	drops := []float64{1e-4, 1e-3, 1e-2}
	res.Rows = make([][]string, len(dcss))
	for r, dcs := range dcss {
		res.Rows[r] = make([]string, 2+len(drops))
		res.Rows[r][0] = fmt.Sprintf("%d", dcs)
		res.Rows[r][1] = fmt.Sprintf("%d", collective.Tree{N: dcs}.Rounds())
	}
	parallelFor(len(dcss)*len(drops), func(cell int) {
		r, i := cell/len(drops), cell%len(drops)
		dcs, p := dcss[r], drops[i]
		ch := paperChannel(p)
		srTree := collective.Tree{N: dcs, BufferBytes: 128 << 20, Scheme: model.NewSRRTO(ch)}
		ecTree := collective.Tree{N: dcs, BufferBytes: 128 << 20, Scheme: model.NewMDS(ch)}
		sr := stats.Summarize(srTree.SampleN(n, o.Seed+int64(i))).P999
		ecv := stats.Summarize(ecTree.SampleN(n, o.Seed+10+int64(i))).P999
		res.Rows[r][2+i] = fmt.Sprintf("%.2f", sr/ecv)
	})
	return res, nil
}
