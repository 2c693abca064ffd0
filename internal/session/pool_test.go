package session_test

import (
	"fmt"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/session"
	"sdrrdma/internal/telemetry"
)

func poolCoreCfg(clk clock.Clock) core.Config {
	return core.Config{
		MTU: 1024, ChunkBytes: 4096, MaxMsgBytes: 1 << 20,
		MsgIDBits: 10, PktOffsetBits: 18, UserImmBits: 4,
		Generations: 2, Channels: 2, CQDepth: 1 << 10,
		Clock: clk,
	}
}

func poolRelCfg() reliability.Config {
	return reliability.Config{
		RTT: 2 * time.Millisecond, Alpha: 2, NACK: true,
		PollInterval: 250 * time.Microsecond,
		AckInterval:  500 * time.Microsecond,
		K:            4, M: 2, Code: "mds",
	}
}

// driveSR moves data A→B over s through the shared verified-transfer
// driver, on the static SR rung (NACK mode per the session's config).
func driveSR(s *reliability.Session, data []byte) error {
	tr, err := s.NewTransfer("sr", reliability.AdaptorConfig{}, len(data), 1)
	if err != nil {
		return err
	}
	return tr.Drive("lease", data).Err()
}

// runLeaseTransfer performs one lossy SR transfer over a leased session
// on vc and returns a trace of its protocol-visible behaviour: elapsed
// virtual time and both QPs' counters. Identical traces mean identical
// packet-level executions.
func runLeaseTransfer(t *testing.T, vc *clock.Virtual, s *reliability.Session, size int) string {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*13 + i>>8)
	}
	start := vc.Elapsed()
	if err := driveSR(s, data); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("dt=%v a=%+v b=%+v", vc.Elapsed()-start,
		s.Pair.A.QP.Stats(), s.Pair.B.QP.Stats())
}

// A lease on a reset deployment must behave byte-identically to the
// cold build it reuses: same per-transfer virtual duration, same packet
// counters, over the same seeded lossy link. The first lease IS the
// cold build, so comparing lease 1 against leases 2 and 3 pins the
// reset-equals-fresh property end to end.
func TestLeaseAfterResetByteIdentical(t *testing.T) {
	vc := clock.NewVirtual()
	pool, err := session.NewPool(session.Config{Core: poolCoreCfg(vc)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	fabCfg := fabric.Config{Latency: time.Millisecond, DropProb: 0.05, Seed: 42, Clock: vc}
	var traces []string
	for lease := 0; lease < 3; lease++ {
		s, err := pool.LeaseLinked(poolRelCfg(), fabCfg, fabCfg, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, runLeaseTransfer(t, vc, s, 64<<10))
		// Quiesce before releasing: let the tail of in-flight
		// retransmissions deliver, so each lease starts from identical
		// (empty) wire state. Traffic still in flight at release is covered by
		// TestStaleTrafficAbsorbedAcrossLeases instead.
		clock.Join(vc, func() { vc.Sleep(50 * time.Millisecond) })
		s.Close()
	}
	for i, tr := range traces[1:] {
		if tr != traces[0] {
			t.Fatalf("lease %d diverged from cold build:\n%s\n%s", i+2, traces[0], tr)
		}
	}
	built, leased := pool.Stats()
	if built != 1 || leased != 0 {
		t.Fatalf("pool built=%d leased=%d after 3 sequential leases, want 1/0", built, leased)
	}
}

// Releasing with traffic still in flight must be harmless: the
// previous lease's straggler retransmissions land in the reset QP and
// are absorbed by the stale-traffic defences (NULL-retired slots,
// monotonic sequence numbers) without corrupting the next lease's
// transfer. This is the invariant that makes leasing safe at all.
func TestStaleTrafficAbsorbedAcrossLeases(t *testing.T) {
	vc := clock.NewVirtual()
	pool, err := session.NewPool(session.Config{Core: poolCoreCfg(vc)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	fabCfg := fabric.Config{Latency: time.Millisecond, DropProb: 0.05, Seed: 42, Clock: vc}
	var absorbed uint64
	for lease := 0; lease < 3; lease++ {
		s, err := pool.LeaseLinked(poolRelCfg(), fabCfg, fabCfg, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		// No quiesce: Close releases the deployment with lease N's
		// retransmission tail still on the wire; it delivers during
		// lease N+1 and must be discarded, not applied.
		runLeaseTransfer(t, vc, s, 64<<10)
		absorbed += s.Pair.B.QP.Stats().LateDiscarded
		s.Close()
	}
	if absorbed == 0 {
		t.Fatal("no stale packets were absorbed — the scenario never exercised the cross-lease defence")
	}
}

// Session-scoped MR registrations (staging buffers and the like) must
// not accumulate across leases: the deployment's MR table must return
// to its post-build size on every release.
func TestLeaseMRsDeregisteredOnRelease(t *testing.T) {
	vc := clock.NewVirtual()
	pool, err := session.NewPool(session.Config{Core: poolCoreCfg(vc)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	fabCfg := fabric.Config{Latency: time.Millisecond, Clock: vc}

	s, err := pool.LeaseLinked(poolRelCfg(), fabCfg, fabCfg, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	baseA, baseB := s.Pair.A.Dev.NumMRs(), s.Pair.B.Dev.NumMRs()
	s.Pair.A.Ctx.RegMR(make([]byte, 4096))
	s.Pair.B.Ctx.RegMR(make([]byte, 4096))
	s.Pair.B.Ctx.RegMR(make([]byte, 4096))
	s.Close()

	s2, err := pool.LeaseLinked(poolRelCfg(), fabCfg, fabCfg, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if a, b := s2.Pair.A.Dev.NumMRs(), s2.Pair.B.Dev.NumMRs(); a != baseA || b != baseB {
		t.Fatalf("MRs leaked across release: A %d→%d, B %d→%d", baseA, a, baseB, b)
	}
}

// Releasing the same lease twice is a caller bug the pool must catch
// loudly, not absorb into a corrupted free list.
func TestDoubleReleasePanics(t *testing.T) {
	vc := clock.NewVirtual()
	pool, err := session.NewPool(session.Config{Core: poolCoreCfg(vc)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	d, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	d.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	d.Release()
}

// Close with a lease still outstanding is a leak: the pool must report
// it, refuse further Acquires, and still tear the straggler down when
// it is finally released.
func TestPoolCloseDetectsLeak(t *testing.T) {
	vc := clock.NewVirtual()
	pool, err := session.NewPool(session.Config{Core: poolCoreCfg(vc)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err == nil {
		t.Fatal("pool.Close with an outstanding lease reported no leak")
	}
	if _, err := pool.Acquire(); err == nil {
		t.Fatal("Acquire succeeded on a closed pool")
	}
	d.Release() // tears down, must not panic or re-enter the free list
	if built, leased := pool.Stats(); leased != 0 || built != 1 {
		t.Fatalf("after late release: built=%d leased=%d, want 1/0", built, leased)
	}
}

// NewPool must reject a config without an explicit clock: pooled
// deployments outlive individual flows, so "default to a fresh real
// clock per deployment" would silently split the notify domain.
func TestPoolRequiresClock(t *testing.T) {
	if _, err := session.NewPool(session.Config{Core: core.Config{}}); err == nil {
		t.Fatal("pool accepted a config without a clock")
	}
}

// Concurrent lease/transfer/release churn from many goroutines on the
// real clock: the pool's bookkeeping and the deployments' reset path
// must be race-clean (this is the test `make race` leans on).
func TestConcurrentLeaseChurnRaces(t *testing.T) {
	clk := clock.NewReal()
	cfg := poolCoreCfg(clk)
	pool, err := session.NewPool(session.Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rel := poolRelCfg()
	rel.RTT = 2 * time.Millisecond

	const workers, leasesPerWorker = 8, 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for l := 0; l < leasesPerWorker; l++ {
				fabCfg := fabric.Config{Clock: clk}
				s, err := pool.LeaseLinked(rel, fabCfg, fabCfg, 0)
				if err != nil {
					errs <- err
					return
				}
				err = driveSR(s, make([]byte, 16<<10))
				s.Close()
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if _, leased := pool.Stats(); leased != 0 {
		t.Fatalf("%d deployments still leased after churn", leased)
	}
}

// Closing a session twice must be a no-op the second time: an abort
// path and a deferred Close racing each other must not double-release
// the pooled deployment (the double-free the strict Deployment.Release
// panic would otherwise turn into a crash).
func TestSessionCloseIdempotent(t *testing.T) {
	vc := clock.NewVirtual()
	pool, err := session.NewPool(session.Config{Core: poolCoreCfg(vc)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	fab := fabric.Config{Latency: time.Millisecond, Clock: vc}
	s, err := pool.LeaseLinkedOn(vc, poolRelCfg(), fab, fab, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	runLeaseTransfer(t, vc, s, 64<<10)
	s.Close()
	s.Close() // must absorb, not panic or corrupt the free list
	if built, leased := pool.Stats(); built != 1 || leased != 0 || pool.Quarantined.Load() != 0 {
		t.Fatalf("after double close: built=%d leased=%d quarantined=%d, want 1/0/0",
			built, leased, pool.Quarantined.Load())
	}
	// The deployment returned exactly once: the next lease reuses it.
	s2, err := pool.LeaseLinkedOn(vc, poolRelCfg(), fab, fab, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	runLeaseTransfer(t, vc, s2, 64<<10)
	s2.Close()
	if built, _ := pool.Stats(); built != 1 {
		t.Fatalf("built %d deployments, want 1 (double close must not lose the lease)", built)
	}
}

// An aborted lease is quarantined, never silently returned: the pool
// retires it from circulation, counts it, and the next lease pays a
// cold build that runs clean — the poison-free reuse invariant.
func TestQuarantineRetiresLease(t *testing.T) {
	vc := clock.NewVirtual()
	pool, err := session.NewPool(session.Config{Core: poolCoreCfg(vc)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	fab := fabric.Config{Latency: time.Millisecond, Clock: vc}
	s, err := pool.LeaseLinkedOn(vc, poolRelCfg(), fab, fab, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cause := fmt.Errorf("test: injected failure")
	var sendErr error
	data := make([]byte, 256<<10)
	clock.Join(vc,
		func() { sendErr = s.A.WriteSR(data) },
		func() { vc.Sleep(500 * time.Microsecond); s.Abort(cause) },
	)
	if sendErr == nil {
		t.Fatal("aborted write returned nil")
	}
	s.Quarantine()
	s.Close() // mutually exclusive with Quarantine: must be a no-op
	if built, leased := pool.Stats(); built != 1 || leased != 0 || pool.Quarantined.Load() != 1 {
		t.Fatalf("after quarantine: built=%d leased=%d quarantined=%d, want 1/0/1",
			built, leased, pool.Quarantined.Load())
	}
	// The quarantined deployment must not be re-leased: the next
	// Acquire cold-builds, and the fresh lease runs clean.
	s2, err := pool.LeaseLinkedOn(vc, poolRelCfg(), fab, fab, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	runLeaseTransfer(t, vc, s2, 64<<10)
	s2.Close()
	if built, leased := pool.Stats(); built != 2 || leased != 0 {
		t.Fatalf("after follow-up: built=%d leased=%d, want 2/0 (cold build, returned)", built, leased)
	}
}

// Quarantining a deployment that is not leased is the same caller bug
// as a double release — it must panic loudly.
func TestQuarantineNotLeasedPanics(t *testing.T) {
	vc := clock.NewVirtual()
	pool, err := session.NewPool(session.Config{Core: poolCoreCfg(vc)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	d, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	d.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("quarantine of an un-leased deployment did not panic")
		}
	}()
	d.Quarantine()
}

// The reliability endpoints are part of the pooled deployment and are
// rebound, not rebuilt, per lease. What the previous lease left in them
// must not show: a re-leased endpoint starts with zero counters and no
// abort cause, never answers a late packet of the previous lease with
// that lease's final ACK (its re-ACK ring starts empty), and the
// counters a flight recorder registered stay that recorder's.
func TestReleasedEndpointCarriesNothingOver(t *testing.T) {
	vc := clock.NewVirtual()
	pool, err := session.NewPool(session.Config{Core: poolCoreCfg(vc)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	lossy := fabric.Config{Latency: time.Millisecond, DropProb: 0.05, Seed: 42, Clock: vc}
	s1, err := pool.LeaseLinked(poolRelCfg(), lossy, lossy, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder("lease1")
	s1.SetTelemetry(rec, "l1/A", "l1/B")
	// No quiesce: lease 1's retransmission tail is still on the wire at
	// Close, which retires its receive into the re-ACK ring.
	runLeaseTransfer(t, vc, s1, 64<<10)
	epA, epB := s1.A, s1.B
	retx1 := epA.Retransmits
	if retx1.Load() == 0 {
		t.Fatal("lease 1 never retransmitted — the scenario has nothing to carry over")
	}
	want := retx1.Load()
	s1.Abort(fmt.Errorf("lease 1 is over"))
	s1.Close()

	clean := fabric.Config{Latency: time.Millisecond, Clock: vc}
	s2, err := pool.LeaseLinked(poolRelCfg(), clean, clean, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.A != epA || s2.B != epB {
		t.Fatal("lease 2 did not get the deployment's retained endpoints")
	}
	for _, e := range []*reliability.Endpoint{s2.A, s2.B} {
		if r, n, l := e.Retransmits.Load(), e.NacksSent.Load(), e.LateReAcks.Load(); r|n|l != 0 {
			t.Fatalf("re-leased endpoint starts with counters %d/%d/%d", r, n, l)
		}
	}
	if s2.A.Retransmits == retx1 || retx1.Load() != want {
		t.Fatalf("lease 1's recorder lost its counter: shared=%v value %d, want %d",
			s2.A.Retransmits == retx1, retx1.Load(), want)
	}
	// Let lease 1's stragglers deliver into lease 2's reset QP.
	clock.Join(vc, func() { vc.Sleep(50 * time.Millisecond) })
	if s2.Pair.B.QP.Stats().LateDiscarded == 0 {
		t.Fatal("no stale packet arrived — the re-ACK ring was never consulted")
	}
	if n := s2.B.LateReAcks.Load(); n != 0 {
		t.Fatalf("re-leased endpoint answered %d late packets with the previous lease's final ACK", n)
	}
	// The abort did not stick either: the lease transfers normally.
	runLeaseTransfer(t, vc, s2, 64<<10)
}
