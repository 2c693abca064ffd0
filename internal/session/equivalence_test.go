package session_test

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/session"
)

// runSchemeTransfer moves one 96 KiB message (a partial tail chunk) over
// s with the given scheme and returns everything its simulated schedule
// determines: elapsed virtual time, both QPs' counters, retransmits,
// NACKs, ladder switches and a hash of the received bytes.
func runSchemeTransfer(t *testing.T, vc *clock.Virtual, s *reliability.Session, scheme string) string {
	t.Helper()
	const size = 96<<10 - 321
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*13 + i>>8)
	}
	tr, err := s.NewTransfer(scheme, reliability.AdaptorConfig{SegmentChunks: 4, Window: 3}, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := vc.Elapsed()
	out := tr.Drive("equiv", data)
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	// The engine keeps time in float64 seconds, so the same interval
	// measured from a later origin (a re-lease) can convert to a
	// nanosecond more or less; a schedule that really differs moves by
	// packet times, microseconds here.
	dt := (vc.Elapsed() - start).Round(time.Microsecond)
	// Let retransmission tails deliver, so the counters are final and
	// the next lease of the deployment starts from an empty wire.
	clock.Join(vc, func() { vc.Sleep(50 * time.Millisecond) })
	sum := fnv.New64a()
	sum.Write(out.Buf)
	switches := 0
	if ad := tr.Adaptor(); ad != nil {
		switches = len(ad.Switches())
	}
	return fmt.Sprintf("dt=%v a=%+v b=%+v retx=%d nacks=%d switches=%d fnv=%#x", dt,
		s.Pair.A.QP.Stats(), s.Pair.B.QP.Stats(),
		s.A.Retransmits.Load(), s.B.NacksSent.Load(), switches, sum.Sum64())
}

// There is one way to build a deployment, so a cold reliability.NewSession,
// the first lease of a pooled deployment and a re-lease of it must be
// the same simulation for every scheme: same elapsed virtual time, same
// counters on both sides, same received bytes over the same seeded lossy
// link.
func TestColdBuildFirstLeaseAndReLeaseEquivalent(t *testing.T) {
	for _, scheme := range []string{"sr", "sr-nack", "ec", "adaptive"} {
		t.Run(scheme, func(t *testing.T) {
			relCfg, err := poolRelCfg().ForScheme(scheme)
			if err != nil {
				t.Fatal(err)
			}
			fabFor := func(vc *clock.Virtual, seed int64) fabric.Config {
				return fabric.Config{Latency: time.Millisecond, BandwidthBps: 2e9, DropProb: 0.05, Seed: seed, Clock: vc}
			}

			coldClk := clock.NewVirtual()
			cold, err := reliability.NewSession(poolCoreCfg(coldClk), relCfg,
				fabFor(coldClk, 42), fabFor(coldClk, 1042), time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			want := runSchemeTransfer(t, coldClk, cold, scheme)
			cold.Close()

			vc := clock.NewVirtual()
			pool, err := session.NewPool(session.Config{Core: poolCoreCfg(vc)})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			for lease := 1; lease <= 3; lease++ {
				s, err := pool.LeaseLinked(relCfg, fabFor(vc, 42), fabFor(vc, 1042), time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				got := runSchemeTransfer(t, vc, s, scheme)
				s.Close()
				if got != want {
					t.Fatalf("lease %d diverged from the cold build:\n  got  %s\n  want %s", lease, got, want)
				}
			}
			if built, leased := pool.Stats(); built != 1 || leased != 0 {
				t.Fatalf("pool built=%d leased=%d, want 1/0", built, leased)
			}
		})
	}
}
