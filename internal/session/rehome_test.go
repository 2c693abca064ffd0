package session_test

import (
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/reliability"
	"sdrrdma/internal/session"
)

// A lease re-homed onto a foreign clock must behave byte-identically
// to a cold build on that clock — the property that lets one pool
// serve every lane of a sweep.
func TestLeaseLinkedOnRehomesAcrossClocks(t *testing.T) {
	fabFor := func(vc *clock.Virtual) fabric.Config {
		return fabric.Config{Latency: time.Millisecond, DropProb: 0.05, Seed: 42, Clock: vc}
	}

	// Reference: a cold build on its own virtual clock.
	refClk := clock.NewVirtual()
	refSess, err := reliability.NewSession(poolCoreCfg(refClk), poolRelCfg(),
		fabFor(refClk), fabFor(refClk), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ref := runLeaseTransfer(t, refClk, refSess, 64<<10)
	refSess.Close()

	// Pool built on a template clock that never runs; every lease
	// re-homes onto a fresh lane-style engine.
	pool, err := session.NewPool(session.Config{Core: poolCoreCfg(clock.NewVirtual())})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for lane := 0; lane < 3; lane++ {
		vc := clock.NewVirtual()
		s, err := pool.LeaseLinkedOn(vc, poolRelCfg(), fabFor(vc), fabFor(vc), time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		got := runLeaseTransfer(t, vc, s, 64<<10)
		// Quiesce in-flight tails before releasing (see
		// TestLeaseAfterResetByteIdentical).
		clock.Join(vc, func() { vc.Sleep(50 * time.Millisecond) })
		s.Close()
		if got != ref {
			t.Fatalf("re-homed lease %d diverged from cold build:\n  got  %s\n  want %s", lane, got, ref)
		}
	}
	if built, leased := pool.Stats(); built != 1 || leased != 0 {
		t.Fatalf("pool built=%d leased=%d, want 1/0 (one deployment re-homed three times)", built, leased)
	}
}

// The leased-rebind path pools everything but the Session value itself
// — fabric link and OOB envelopes, reliability endpoints, the bound
// connect closures: steady-state churn measures 1 allocation per
// session and must stay within 2 of it.
func TestLeasedEnvelopePoolingAllocBound(t *testing.T) {
	clk := clock.NewReal()
	pool, err := session.NewPool(session.Config{Core: churnCoreCfg(clk)})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rel := poolRelCfg()
	fabCfg := fabric.Config{Clock: clk}
	// First lease cold-builds deployment + envelopes; measure after.
	s, err := pool.LeaseLinked(rel, fabCfg, fabCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	allocs := testing.AllocsPerRun(100, func() {
		s, err := pool.LeaseLinked(rel, fabCfg, fabCfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	})
	t.Logf("leased rebind: %.0f allocs/session", allocs)
	if allocs > 3 {
		t.Fatalf("leased rebind allocates %.0f/session, want <= 3 (envelopes and endpoints must be pooled)", allocs)
	}
}
