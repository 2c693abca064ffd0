package session_test

import (
	"bytes"
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
func runSchemeTransfer(t *testing.T, vc *clock.Virtual, s *reliability.Session, scheme string, relCfg reliability.Config) string {
	t.Helper()
	const size = 96<<10 - 321
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*13 + i>>8)
	}
	recvBuf := make([]byte, size)
	ctxB := s.Pair.B.Ctx
	mr := ctxB.RegMR(recvBuf)
	acfg := reliability.AdaptorConfig{SegmentChunks: 4, Window: 3}.WithDefaults()
	ad, err := reliability.NewAdaptor(acfg)
	if err != nil {
		t.Fatal(err)
	}
	chunk := ctxB.Config().ChunkBytes
	scratch := ctxB.RegMR(make([]byte, max(relCfg.ECScratchBytes(chunk, size), reliability.AdaptiveScratchBytes(acfg, chunk, size))))
	start := vc.Elapsed()
	var sendErr, recvErr error
	clock.Join(vc,
		func() {
			switch scheme {
			case "ec":
				sendErr = s.A.WriteEC(data)
			case "adaptive":
				sendErr = s.A.WriteAdaptive(acfg, data)
			default:
				sendErr = s.A.WriteSR(data)
			}
		},
		func() {
			switch scheme {
			case "ec":
				recvErr = s.B.ReceiveEC(mr, 0, size, scratch)
			case "adaptive":
				recvErr = s.B.ReceiveAdaptive(ad, mr, 0, size, scratch)
			default:
				recvErr = s.B.ReceiveSR(mr, 0, size)
			}
		})
	if sendErr != nil || recvErr != nil {
		t.Fatalf("%s transfer failed: send=%v recv=%v", scheme, sendErr, recvErr)
	}
	if !bytes.Equal(recvBuf, data) {
		t.Fatalf("%s: received data corrupted", scheme)
	}
	// The engine keeps time in float64 seconds, so the same interval
	// measured from a later origin (a re-lease) can convert to a
	// nanosecond more or less; a schedule that really differs moves by
	// packet times, microseconds here.
	dt := (vc.Elapsed() - start).Round(time.Microsecond)
	// Let retransmission tails deliver and the background final-ACK
	// linger run out, so the counters are final and the next lease of
	// the deployment starts from an empty wire.
	clock.Join(vc, func() { vc.Sleep(50 * time.Millisecond) })
	sum := fnv.New64a()
	sum.Write(recvBuf)
	return fmt.Sprintf("dt=%v a=%+v b=%+v retx=%d nacks=%d switches=%d fnv=%#x", dt,
		s.Pair.A.QP.Stats(), s.Pair.B.QP.Stats(),
		s.A.Retransmits.Load(), s.B.NacksSent.Load(), len(ad.Switches()), sum.Sum64())
}

// There is one way to build a deployment, so a cold reliability.NewSession,
// the first lease of a pooled deployment and a re-lease of it must be
// the same simulation for every scheme: same elapsed virtual time, same
// counters on both sides, same received bytes over the same seeded lossy
// link.
func TestColdBuildFirstLeaseAndReLeaseEquivalent(t *testing.T) {
	for _, scheme := range []string{"sr", "sr-nack", "ec", "adaptive"} {
		t.Run(scheme, func(t *testing.T) {
			relCfg := poolRelCfg()
			relCfg.NACK = scheme == "sr-nack"
			// A coded sender has no RTO: keep the final-ACK linger above
			// it so control loss cannot swallow the whole linger.
			relCfg.Linger = 8 * time.Millisecond
			fabFor := func(vc *clock.Virtual, seed int64) fabric.Config {
				return fabric.Config{Latency: time.Millisecond, BandwidthBps: 2e9, DropProb: 0.05, Seed: seed, Clock: vc}
			}

			coldClk := clock.NewVirtual()
			cold, err := reliability.NewSession(poolCoreCfg(coldClk), relCfg,
				fabFor(coldClk, 42), fabFor(coldClk, 1042), time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			want := runSchemeTransfer(t, coldClk, cold, scheme, relCfg)
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
				got := runSchemeTransfer(t, vc, s, scheme, relCfg)
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
