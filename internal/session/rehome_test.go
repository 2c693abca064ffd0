package session_test

import (
	"errors"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
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

// A deployment's delivery mode — poller goroutines or inline serial
// sinks, device locks or none — is fixed by the kind of the clock it was
// built on. Leasing it onto a clock of the other kind must be refused
// outright, not half-applied: on a real-built deployment re-homed to a
// virtual clock, pollers the scheduler cannot see would process
// completions and same-seed runs diverge. The refused lease goes back
// on the free list and the pool keeps serving its own kind.
func TestLeaseLinkedOnRefusesCrossKindRehome(t *testing.T) {
	lossless := func(clk clock.Clock) fabric.Config {
		return fabric.Config{Latency: time.Millisecond, Clock: clk}
	}
	for _, tc := range []struct {
		name            string
		template, other clock.Clock
	}{
		{"real pool, virtual lease", clock.NewReal(), clock.NewVirtual()},
		{"virtual pool, real lease", clock.NewVirtual(), clock.NewReal()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := session.NewPool(session.Config{Core: poolCoreCfg(tc.template)})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			s, err := pool.LeaseLinkedOn(tc.other, poolRelCfg(), lossless(tc.other), lossless(tc.other), time.Millisecond)
			if !errors.Is(err, core.ErrClockKind) {
				if s != nil {
					s.Close()
				}
				t.Fatalf("cross-kind lease returned err = %v, want core.ErrClockKind", err)
			}
			if built, leased := pool.Stats(); built != 1 || leased != 0 {
				t.Fatalf("after the refused lease: built=%d leased=%d, want 1/0 (deployment back on the free list)", built, leased)
			}

			// The same deployment still serves a lease of its own kind.
			clk := tc.template
			s, err = pool.LeaseLinked(poolRelCfg(), lossless(clk), lossless(clk), time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			err = driveSR(s, make([]byte, 16<<10))
			s.Close()
			if err != nil {
				t.Fatalf("same-kind lease after the refusal: %v", err)
			}
			if built, leased := pool.Stats(); built != 1 || leased != 0 {
				t.Fatalf("after the same-kind lease: built=%d leased=%d, want 1/0 (no second build)", built, leased)
			}
		})
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
