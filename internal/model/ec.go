package model

import (
	"fmt"
	"math"
	"math/rand"

	"sdrrdma/internal/ec"
	"sdrrdma/internal/wan"
)

// EC models the erasure-coding reliability scheme of §4.1.2/§4.2.3.
//
// A message of M chunks is split into L = ⌈M/k⌉ data submessages of k
// chunks; each is encoded with m parity chunks (parity ratio R = k/m),
// so (M + ⌈M/R⌉) chunks enter the channel. The receiver recovers
// in-place if every submessage decodes; otherwise it NACKs the failed
// submessages at the fallback timeout FTO and the sender repairs them
// with Selective Repeat. Encoding is fully overlapped with injection
// (§4.2.3's assumption).
type EC struct {
	Ch wan.Params
	// K and M are the data and parity chunks per submessage.
	K, M int
	// Scheme selects the code: "mds" (Reed–Solomon-class, any m losses)
	// or "xor" (modulo-group code, one loss per group).
	Scheme string
}

// The fallback constants every EC shares. ecBeta is the FTO slack
// coefficient β in FTO = (M + ⌈M/R⌉)·T_INJ + β·RTT (§4.2.3): the paper
// halves the SR buffering coefficient, β = 0.5·α = 1 for α = 2.
// ecFallbackRTOFactor parameterizes the SR that repairs failed
// submessages (the SR RTO scenario).
const (
	ecBeta              = 1
	ecFallbackRTOFactor = 3
)

// NewMDS returns the paper's balanced MDS EC(32, 8) configuration over
// the channel (§5.2.1: tolerates drop rates above 1e-2 with ≤20%
// bandwidth inflation).
func NewMDS(chp wan.Params) EC {
	return EC{Ch: chp.WithDefaults(), K: 32, M: 8, Scheme: "mds"}
}

// NewXOR returns the XOR-coded variant with the same (32, 8) split.
func NewXOR(chp wan.Params) EC {
	return EC{Ch: chp.WithDefaults(), K: 32, M: 8, Scheme: "xor"}
}

// Name implements Scheme.
func (e EC) Name() string {
	tag := "MDS"
	if e.Scheme == "xor" {
		tag = "XOR"
	}
	return fmt.Sprintf("%s EC(%d,%d)", tag, e.K, e.M)
}

// submessageSuccessProb returns P_EC(k, m): the probability one data
// submessage is recoverable (Appendix B).
func (e EC) submessageSuccessProb() float64 {
	if e.Scheme == "xor" {
		return ec.XORSuccessProb(e.K, e.M, e.Ch.PDrop)
	}
	return ec.MDSSuccessProb(e.K, e.M, e.Ch.PDrop)
}

// submessages returns L = ⌈M_chunks/k⌉ for a message of msgBytes.
func (e EC) submessages(msgBytes int64) int64 {
	m := int64(e.Ch.ChunksIn(msgBytes))
	return (m + int64(e.K) - 1) / int64(e.K)
}

// FallbackProb returns P_fallback = 1 − P_EC^L, the probability that
// at least one data submessage fails to decode (§4.2.3).
func (e EC) FallbackProb(msgBytes int64) float64 {
	l := e.submessages(msgBytes)
	pOK := e.submessageSuccessProb()
	return 1 - math.Pow(pOK, float64(l))
}

// wireChunks returns the total chunks injected: data + parity.
func (e EC) wireChunks(msgBytes int64) int64 {
	m := int64(e.Ch.ChunksIn(msgBytes))
	return m + e.submessages(msgBytes)*int64(e.M)
}

// injectionTime returns the time to push data + parity into the
// channel.
func (e EC) injectionTime(msgBytes int64) float64 {
	return float64(e.wireChunks(msgBytes)) * e.Ch.ChunkInjectionTime()
}

// fallbackSR returns the SR instance used to repair failed
// submessages.
func (e EC) fallbackSR() SR {
	return SR{Ch: e.Ch, RTOFactor: ecFallbackRTOFactor}
}

// SampleCompletion implements Scheme: one exact stochastic draw of the
// EC Write completion time.
//
// Success path: all L submessages decode; completion =
// injection + RTT (first-chunk propagation + positive ACK return).
// Failure path: the receiver NACKs at FTO; completion =
// injection + (1+β)·RTT + T_SR(K_fail·k) where the SR term includes
// its own final-ACK RTT — in expectation this matches the paper's
// three-term lower bound with T_SR(0) = RTT.
func (e EC) SampleCompletion(rng *rand.Rand, msgBytes int64) float64 {
	l := e.submessages(msgBytes)
	pFail := 1 - e.submessageSuccessProb()
	tInj := e.injectionTime(msgBytes)
	failed := binomial(rng, l, pFail)
	if failed == 0 {
		return tInj + e.Ch.RTT()
	}
	srTime := e.fallbackSR().sampleCompletionChunks(rng, failed*int64(e.K))
	return tInj + ecBeta*e.Ch.RTT() + srTime
}
