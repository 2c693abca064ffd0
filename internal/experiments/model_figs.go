package experiments

import (
	"fmt"
	"math/rand"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/collective"
	"sdrrdma/internal/ec"
	"sdrrdma/internal/model"
	"sdrrdma/internal/stats"
	"sdrrdma/internal/wan"
)

// paperChannel is the Fig 3/9/10 configuration: 400 Gbit/s, 3750 km
// (25 ms RTT), bitmap resolution one 4 KiB MTU per chunk, i.i.d.
// per-chunk drops.
func paperChannel(pdrop float64) wan.Params {
	return wan.Params{
		BandwidthBps: 400e9,
		DistanceKm:   3750,
		PDrop:        pdrop,
		MTUBytes:     4096,
		ChunkBytes:   4096,
	}
}

// fig2 reproduces the Lugano–Lausanne iperf3 UDP campaign: per-payload
// drop-rate distribution over 200 trials (§2.1, Fig 2). The campaign
// draws every payload from one generator, so it runs before the cells,
// which only read its percentiles.
func fig2(o Options) (sweep, error) {
	payloads := []int{1024, 2048, 4096, 8192}
	results := wan.RunISPCampaign(rand.New(rand.NewSource(o.Seed)), payloads, 200)
	return sweep{
		labels: labelsOf(payloads, func(p int) string { return sizeLabel(int64(p)) }),
		cell: func(_ clock.Clock, r, _ int) ([]string, error) {
			var pcs []string
			for _, q := range []float64{5, 25, 50, 75, 95, 100} {
				pcs = append(pcs, fmt.Sprintf("%.2e", stats.PercentileUnsorted(results[payloads[r]], q)))
			}
			return pcs, nil
		},
	}, nil
}

// meanSlowdown runs the stochastic model and normalizes by the
// lossless Write time.
func meanSlowdown(s model.Scheme, ch wan.Params, size int64, n int, seed int64) float64 {
	return stats.Mean(model.Sample(s, size, n, seed)) / model.LosslessTime(ch, size)
}

// srVsMDS is the mean slowdown of SR RTO and of MDS EC(32,8) on ch, each
// sampled from its own seed and rendered with format.
func srVsMDS(ch wan.Params, size int64, n int, srSeed, ecSeed int64, format string) []string {
	return []string{
		fmt.Sprintf(format, meanSlowdown(model.NewSRRTO(ch), ch, size, n, srSeed)),
		fmt.Sprintf(format, meanSlowdown(model.NewMDS(ch), ch, size, n, ecSeed)),
	}
}

// fig3a: mean slowdown vs Write size at P=1e-5, 25 ms RTT, 400 Gbit/s.
func fig3a(o Options) (sweep, error) {
	sizes := []int64{128 << 10, 2 << 20, 32 << 20, 128 << 20, 512 << 20, 2 << 30, 8 << 30, 32 << 30, 128 << 30, 2 << 40}
	return sweep{labels: labelsOf(sizes, sizeLabel), cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		return srVsMDS(paperChannel(1e-5), sizes[r], o.Samples, o.Seed, o.Seed+1, "%.2f"), nil
	}}, nil
}

// fig3b: mean slowdown vs one-way distance for an 8 GiB Write, P=1e-5.
func fig3b(o Options) (sweep, error) {
	kms := []float64{75, 750, 1500, 3000, 4500, 6000}
	channel := func(km float64) wan.Params {
		ch := paperChannel(1e-5)
		ch.DistanceKm = km
		return ch
	}
	var labels [][]string
	for _, km := range kms {
		labels = append(labels, []string{fmt.Sprintf("%.0f km", km), fmt.Sprintf("%.1f ms", channel(km).RTT()*1e3)})
	}
	return sweep{labels: labels, cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		return srVsMDS(channel(kms[r]), 8<<30, o.Samples, o.Seed, o.Seed+1, "%.3f"), nil
	}}, nil
}

// fig3c: mean slowdown vs drop rate for a 128 MiB Write at 3750 km.
func fig3c(o Options) (sweep, error) {
	drops := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2}
	return sweep{labels: labelsOf(drops, pLabel), cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		return srVsMDS(paperChannel(drops[r]), 128<<20, o.Samples, o.Seed, o.Seed+1, "%.2f"), nil
	}}, nil
}

// fig9: EC-over-SR mean speedup heatmap, message size × drop rate; one
// cell per heatmap square.
func fig9(o Options) (sweep, error) {
	drops := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
	sizes := []int64{8 << 30, 1 << 30, 128 << 20, 16 << 20, 2 << 20, 256 << 10, 32 << 10}
	return sweep{labels: labelsOf(sizes, sizeLabel), cols: len(drops), cell: func(_ clock.Clock, r, c int) ([]string, error) {
		ch := paperChannel(drops[c])
		sr := stats.Mean(model.Sample(model.NewSRRTO(ch), sizes[r], o.Samples, o.Seed+int64(c)))
		ecT := stats.Mean(model.Sample(model.NewMDS(ch), sizes[r], o.Samples, o.Seed+100+int64(c)))
		return []string{fmt.Sprintf("%.2f", sr/ecT)}, nil
	}}, nil
}

// fig10a: mean and p99.9 completion vs Write size at P=1e-5; one cell
// per size and scheme.
func fig10a(o Options) (sweep, error) {
	ch := paperChannel(1e-5)
	schemes := []model.Scheme{model.NewSRRTO(ch), model.NewSRNACK(ch), model.NewMDS(ch)}
	sizes := []int64{8 << 20, 32 << 20, 128 << 20, 512 << 20, 2 << 30, 8 << 30}
	return sweep{labels: labelsOf(sizes, sizeLabel), cols: len(schemes), cell: func(_ clock.Clock, r, c int) ([]string, error) {
		sum := stats.Summarize(model.Sample(schemes[c], sizes[r], o.TailSamples, o.Seed+int64(c)))
		return []string{fmt.Sprintf("%.2f", sum.Mean*1e3), fmt.Sprintf("%.2f", sum.P999*1e3)}, nil
	}}, nil
}

// fig10b: EC behaviour across drop rates for a 128 MiB Write —
// completion time and fallback probability (parity becomes
// ineffective at very high drop rates).
func fig10b(o Options) (sweep, error) {
	const size = 128 << 20
	drops := []float64{1e-6, 1e-4, 1e-3, 1e-2, 3e-2, 1e-1}
	return sweep{labels: labelsOf(drops, pLabel), cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		ch := paperChannel(drops[r])
		e := model.NewMDS(ch)
		sum := stats.Summarize(model.Sample(e, size, o.TailSamples, o.Seed))
		return []string{
			fmt.Sprintf("%.2f", sum.Mean*1e3),
			fmt.Sprintf("%.2f", sum.P999*1e3),
			fmt.Sprintf("%.3g", e.FallbackProb(size)),
			fmt.Sprintf("%.2f", sum.Mean/model.LosslessTime(ch, size)),
		}, nil
	}}, nil
}

// fig10c: SR RTO vs SR NACK for 128 MiB across drop rates — the
// RTT-scale penalty per chunk drop that NACK cannot remove.
func fig10c(o Options) (sweep, error) {
	const size = 128 << 20
	drops := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2}
	return sweep{labels: labelsOf(drops, pLabel), cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		ch := paperChannel(drops[r])
		rto := stats.Summarize(model.Sample(model.NewSRRTO(ch), size, o.TailSamples, o.Seed))
		nack := stats.Summarize(model.Sample(model.NewSRNACK(ch), size, o.TailSamples, o.Seed+1))
		return []string{
			fmt.Sprintf("%.2f", rto.Mean*1e3), fmt.Sprintf("%.2f", rto.P999*1e3),
			fmt.Sprintf("%.2f", nack.Mean*1e3), fmt.Sprintf("%.2f", nack.P999*1e3),
			fmt.Sprintf("%.2fx", rto.Mean/nack.Mean),
		}, nil
	}}, nil
}

// fig10d: MDS data:parity splits for 128 MiB across drop rates; one
// cell per drop rate and split.
func fig10d(o Options) (sweep, error) {
	splits := []struct{ k, m int }{{64, 8}, {32, 8}, {16, 8}, {8, 8}}
	drops := []float64{1e-5, 1e-3, 1e-2, 3e-2, 1e-1}
	return sweep{labels: labelsOf(drops, pLabel), cols: len(splits), cell: func(_ clock.Clock, r, c int) ([]string, error) {
		e := model.EC{Ch: paperChannel(drops[r]), K: splits[c].k, M: splits[c].m, Scheme: "mds"}
		return []string{fmt.Sprintf("%.2f", stats.Mean(model.Sample(e, 128<<20, o.Samples, o.Seed+int64(c)))*1e3)}, nil
	}}, nil
}

// fig11 combines the encoding-throughput comparison (real CPU
// measurement of this repo's codecs, stand-ins for ISA-L and the
// AVX-512 XOR kernel; the note names the gf256 kernel body the host
// ran) with the fallback-onset analysis.
func fig11(o Options) (sweep, error) {
	const (
		chunk = 64 << 10
		k, m  = 32, 8
		L     = 64 // 128 MiB / (32 × 64 KiB)
	)
	rs, err := ec.NewRS(k, m)
	if err != nil {
		return sweep{}, err
	}
	xor, err := ec.NewXOR(k, m)
	if err != nil {
		return sweep{}, err
	}
	probs := []func(int, int, float64) float64{ec.MDSSuccessProb, ec.XORSuccessProb}
	var gbps []float64 // both codes' rates, measured in the first row's cell: wall cells run in row order
	return sweep{labels: [][]string{{"MDS (RS)"}, {"XOR"}}, cell: func(_ clock.Clock, r, _ int) ([]string, error) {
		if r == 0 {
			if gbps, err = measureEncodeGbps([]ec.Code{rs, xor}, chunk, o.DurationSec); err != nil {
				return nil, err
			}
		}
		fallback := func(p float64) float64 {
			s := probs[r](k, m, p)
			pow := 1.0
			for i := 0; i < L; i++ {
				pow *= s
			}
			return 1 - pow
		}
		return []string{
			fmt.Sprintf("%.1f", gbps[r]),
			fmt.Sprintf("%.1f", 400.0/gbps[r]),
			fmt.Sprintf("%.3g", fallback(1e-3)),
			fmt.Sprintf("%.3g", fallback(1e-2)),
		}, nil
	}}, nil
}

// fig12: distance × bandwidth grid for a 128 MiB Write at P=1e-5,
// times normalized by the lossless Write (the paper's heatmap); one
// cell per distance and bandwidth.
func fig12(o Options) (sweep, error) {
	distances := []float64{75, 750, 3000, 6000}
	bws := []float64{100e9, 400e9, 800e9, 1600e9}
	km := func(d float64) string { return fmt.Sprintf("%.0f km", d) }
	return sweep{labels: labelsOf(distances, km), cols: len(bws), cell: func(_ clock.Clock, r, c int) ([]string, error) {
		ch := paperChannel(1e-5)
		ch.DistanceKm = distances[r]
		ch.BandwidthBps = bws[c]
		return srVsMDS(ch, 128<<20, o.Samples, o.Seed+int64(c), o.Seed+50+int64(c), "%.2f"), nil
	}}, nil
}

// fig13: p99.9 ring-Allreduce speedup of MDS EC over SR RTO. Left
// panel: 128 MiB buffer, varying datacenter count; right panel: 4
// datacenters, varying buffer size. One cell per row and drop rate,
// seeded from its configuration, so the row both panels share ("4 DCs,
// 128 MiB") prints the same values in each.
func fig13(o Options) (sweep, error) {
	drops := []float64{1e-4, 1e-3, 1e-2}
	type rowCfg struct {
		n   int
		buf int64
	}
	var rows []rowCfg
	for _, n := range []int{2, 4, 8} {
		rows = append(rows, rowCfg{n, 128 << 20})
	}
	for _, buf := range []int64{32 << 20, 128 << 20, 512 << 20} {
		rows = append(rows, rowCfg{4, buf})
	}
	label := func(rc rowCfg) string { return fmt.Sprintf("%d DCs, %s", rc.n, sizeLabel(rc.buf)) }
	nsamp := max(o.TailSamples/4, 500)
	return sweep{labels: labelsOf(rows, label), cols: len(drops), cell: func(_ clock.Clock, r, c int) ([]string, error) {
		rc, ch := rows[r], paperChannel(drops[c])
		seed := o.Seed + int64(rc.n)*1_000_000 + (rc.buf>>20)*10 + 2*int64(c)
		sr := stats.Summarize(collective.Ring{N: rc.n, BufferBytes: rc.buf, Scheme: model.NewSRRTO(ch)}.SampleN(nsamp, seed)).P999
		ecv := stats.Summarize(collective.Ring{N: rc.n, BufferBytes: rc.buf, Scheme: model.NewMDS(ch)}.SampleN(nsamp, seed+1)).P999
		return []string{fmt.Sprintf("%.2f", sr/ecv)}, nil
	}}, nil
}
