package protosim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Sample must return bit-identical output regardless of how many
// workers the campaign fans out over: each sample draws from its own
// (seed, i)-derived rng, so work distribution cannot leak into the
// result.
func TestSampleDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := Config{Ch: desChannel(1e-3), Scheme: "sr-nack", AckLossProb: 0.05}
	const size = 16 << 20
	const n = 64

	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	serial, err := Sample(cfg, size, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	parallel, err := Sample(cfg, size, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("sample %d: serial %g != parallel %g", i, serial[i], parallel[i])
		}
	}
}

// Every scheme's reused-runner output must be bit-identical to a fresh
// simulator fed the same per-sample seed: Reset/reuse may not leak
// state between samples.
func TestRunnerReuseMatchesFreshSimulate(t *testing.T) {
	const size = 16 << 20
	const n = 16
	for _, scheme := range []string{"sr", "sr-nack", "gbn", "ec"} {
		cfg := Config{Ch: desChannel(1e-2), Scheme: scheme, AckLossProb: 0.02}
		got, err := Sample(cfg, size, n, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			want, err := simulate(cfg, rand.New(rand.NewSource(sampleSeed(7, i))), size)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("%s sample %d: reused runner %g != fresh simulator %g",
					scheme, i, got[i], want)
			}
		}
	}
}

// Calling Sample twice with one seed must reproduce exactly (the
// engine slab, bitmaps and pools are recycled in between).
func TestSampleRepeatable(t *testing.T) {
	cfg := Config{Ch: desChannel(1e-3), Scheme: "ec"}
	a, err := Sample(cfg, 32<<20, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(cfg, 32<<20, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d: %g != %g across repeated campaigns", i, a[i], b[i])
		}
	}
}

// A completion at virtual time 0 must be reported as a completion, not
// as "never finished": with zero propagation (1e-323 km underflows to
// a 0 s RTT) and infinite bandwidth, every event fires at t=0 and the
// transfer legitimately completes at exactly 0 — the old doneAt==0
// sentinel misread this as "never finished"; the explicit done flag
// must not.
func TestZeroTimeCompletionNotSentinel(t *testing.T) {
	for _, scheme := range []string{"sr", "sr-nack", "ec"} {
		ch := desChannel(0)
		ch.DistanceKm = 1e-323
		ch.BandwidthBps = math.Inf(1) // zero injection time
		cfg := Config{Ch: ch, Scheme: scheme}
		got, err := simulate(cfg, rand.New(rand.NewSource(1)), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Fatalf("%s: zero-latency completion = %g, want exactly 0", scheme, got)
		}
	}
	// GBN is excluded: with RTT = 0 its RTO is 0, so the window timer
	// always expires before the first chunk finishes serializing and
	// the protocol diverges (a real property of Go-Back-N with
	// RTO < T_inj, shared with the pre-rewrite simulator) — a
	// zero-time completion is unreachable for it by construction. Its
	// done-flag path is the same code as the ACK path exercised by
	// every other GBN test.
}
