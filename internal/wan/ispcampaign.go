package wan

import (
	"math"
	"math/rand"
)

// RunISPCampaign reproduces the Figure 2 measurement methodology:
// iperf3 UDP flows between two datacenter sites over a public-ISP
// optical link, trials trials of 15 seconds per payload size, collected
// over days. It returns the per-size drop-rate samples. The paper
// observed (a) up to three orders of magnitude spread in drop rate
// across trials at fixed payload size and (b) drop rates growing with
// payload size — both attributed to switch-buffer congestion on the ISP
// side.
//
// Substitution (no ISP link available): each trial samples a
// congestion level from a heavy-tailed log-normal process — the
// standard model for cross-traffic-induced loss on shared links — and
// the per-frame drop probability scales with it. A UDP payload is lost
// iff any of its ceil(payload/frameMTU) Ethernet frames is lost, and
// larger payloads additionally suffer a burst penalty because their
// back-to-back frame trains are clipped together by shallow ISP
// buffers. The calibration below reproduces Fig 2's envelope:
// 1 KiB ∈ [1e-4, 1e-2], 8 KiB ∈ [1e-3, >1e-1].
func RunISPCampaign(rng *rand.Rand, payloadSizes []int, trials int) map[int][]float64 {
	out := make(map[int][]float64, len(payloadSizes))
	for _, sz := range payloadSizes {
		samples := make([]float64, trials)
		for i := range samples {
			samples[i] = runTrial(rng, sz)
		}
		out[sz] = samples
	}
	return out
}

// The Fig 2 calibration.
const (
	// frameMTUBytes is the on-wire Ethernet MTU.
	frameMTUBytes = 1500
	// medianFrameLoss is the median per-frame drop probability across
	// trials (congestion level 1).
	medianFrameLoss = 7e-4
	// sigmaLog is the log-stddev of the per-trial congestion level;
	// 1.15 gives the paper's ±2-orders-of-magnitude trial spread.
	sigmaLog = 1.15
	// burstExponent captures the extra penalty of longer frame trains:
	// effective per-frame loss = level·median·frames^burstExponent.
	burstExponent = 0.45
	// packetsPerTrial is the number of UDP payloads per 15 s trial.
	packetsPerTrial = 100000
)

// framesPerPayload returns the number of Ethernet frames a UDP payload
// of the given size occupies.
func framesPerPayload(payloadBytes int) int {
	f := (payloadBytes + frameMTUBytes - 1) / frameMTUBytes
	if f < 1 {
		f = 1
	}
	return f
}

// trialDropProb samples one trial's payload drop probability for the
// given payload size.
func trialDropProb(rng *rand.Rand, payloadBytes int) float64 {
	level := math.Exp(rng.NormFloat64() * sigmaLog) // log-normal, median 1
	frames := float64(framesPerPayload(payloadBytes))
	pFrame := medianFrameLoss * level * math.Pow(frames, burstExponent)
	if pFrame > 1 {
		pFrame = 1
	}
	return 1 - math.Pow(1-pFrame, frames)
}

// runTrial simulates one 15-second iperf3 trial and returns the
// measured drop fraction (with binomial measurement noise, like the
// real counters).
func runTrial(rng *rand.Rand, payloadBytes int) float64 {
	p := trialDropProb(rng, payloadBytes)
	// Binomial sampling via normal approximation for large counts,
	// exact for small ones.
	n := packetsPerTrial
	mean := p * float64(n)
	if mean > 50 && float64(n)-mean > 50 {
		drops := mean + rng.NormFloat64()*math.Sqrt(mean*(1-p))
		if drops < 0 {
			drops = 0
		}
		return drops / float64(n)
	}
	drops := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			drops++
		}
	}
	return float64(drops) / float64(n)
}
