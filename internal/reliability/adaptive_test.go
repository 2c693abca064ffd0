package reliability

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
)

func testAdaptorCfg() AdaptorConfig {
	return AdaptorConfig{}.WithDefaults()
}

func TestAdaptorConfigValidate(t *testing.T) {
	if err := testAdaptorCfg().validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []AdaptorConfig{
		{SegmentChunks: -1},
		{Window: -3},
		{EnterLoss: 0.01, ExitLoss: 0.02}, // inverted hysteresis
		{CongestionMarkFrac: 1.5},
		{MinDwell: -1},
	}
	for i, c := range bad {
		cfg := c.WithDefaults()
		// WithDefaults only fills zeros, so the bad fields survive.
		if c.SegmentChunks < 0 {
			cfg.SegmentChunks = c.SegmentChunks
		}
		if c.Window < 0 {
			cfg.Window = c.Window
		}
		if c.MinDwell < 0 {
			cfg.MinDwell = c.MinDwell
		}
		if err := cfg.validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Ladder EC rung with K != SegmentChunks must be rejected: each
	// segment is exactly one submessage.
	c := testAdaptorCfg()
	c.Ladder = []Mode{{Scheme: SchemeSR}, {Scheme: SchemeEC, K: 8, M: 2}}
	if err := c.validate(); err == nil {
		t.Error("ladder with K != SegmentChunks accepted")
	}
}

// statsFor builds segStats producing the given loss signal and mark
// fraction under 1000 arrived packets.
func statsFor(seg int, m Mode, loss, marks float64) segStats {
	return segStats{
		Seg: seg, Mode: m,
		Arrived: 1000, Dups: uint64(1000 * loss), Marked: uint64(1000 * marks),
		DataChunks: 0,
	}
}

func TestAdaptorEscalatesOnLoss(t *testing.T) {
	ad, err := NewAdaptor(testAdaptorCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ad.mode().Scheme != SchemeSR {
		t.Fatalf("fresh adaptor not at ladder[0]: %v", ad.mode())
	}
	for seg := 0; ad.rung() == 0 && seg < 10; seg++ {
		ad.observe(statsFor(seg, ad.mode(), 0.10, 0))
	}
	if ad.rung() != 1 {
		t.Fatalf("rung %d after sustained loss, want 1", ad.rung())
	}
}

func TestAdaptorHysteresisHoldsBetweenThresholds(t *testing.T) {
	ad, err := NewAdaptor(testAdaptorCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Drive to rung 1, then feed a signal between Exit and Enter: the
	// adaptor must hold, not thrash back.
	for seg := 0; ad.rung() == 0; seg++ {
		ad.observe(statsFor(seg, ad.mode(), 0.10, 0))
	}
	mid := (ad.cfg.EnterLoss + ad.cfg.ExitLoss) / 2
	for seg := 100; seg < 110; seg++ {
		ad.observe(statsFor(seg, ad.mode(), mid, 0))
	}
	if ad.rung() != 1 {
		t.Fatalf("rung %d under mid-band signal, want steady 1", ad.rung())
	}
	// Clean signal de-escalates back.
	for seg := 200; ad.rung() > 0 && seg < 210; seg++ {
		ad.observe(statsFor(seg, ad.mode(), 0, 0))
	}
	if ad.rung() != 0 {
		t.Fatalf("rung %d after clean signal, want 0", ad.rung())
	}
}

func TestAdaptorDwellFloor(t *testing.T) {
	cfg := testAdaptorCfg()
	cfg.MinDwell = 3
	ad, err := NewAdaptor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Alternating extreme signals: without the floor this would switch
	// every observation; with MinDwell=3 at most every 3rd.
	for seg := 0; seg < 30; seg++ {
		loss := 0.0
		if seg%2 == 0 {
			loss = 0.2
		}
		ad.observe(statsFor(seg, ad.mode(), loss, 0))
	}
	if n := len(ad.Switches()); n > 10 {
		t.Fatalf("%d switches over 30 observations with dwell 3", n)
	}
	for i := 1; i < len(ad.Switches()); i++ {
		if gap := ad.Switches()[i].AfterSeg - ad.Switches()[i-1].AfterSeg; gap < cfg.MinDwell {
			t.Fatalf("switch gap %d below dwell floor %d", gap, cfg.MinDwell)
		}
	}
}

func TestAdaptorCongestionDeescalates(t *testing.T) {
	ad, err := NewAdaptor(testAdaptorCfg())
	if err != nil {
		t.Fatal(err)
	}
	for seg := 0; ad.rung() == 0; seg++ {
		ad.observe(statsFor(seg, ad.mode(), 0.10, 0))
	}
	// Heavy loss WITH marks: congestion — the adaptor must shed parity
	// (de-escalate), not pile it on.
	for seg := 100; ad.rung() > 0 && seg < 110; seg++ {
		ad.observe(statsFor(seg, ad.mode(), 0.10, 0.5))
	}
	if ad.rung() != 0 {
		t.Fatalf("rung %d under marked congestion, want 0", ad.rung())
	}
}

func TestAdaptiveLossless(t *testing.T) {
	s, _ := newVirtualSession(t, testRelCfg(), 0, 21)
	ad := runTransfer(t, s, 512<<10, 3, "adaptive").Adaptor()
	if n := len(ad.Switches()); n != 0 {
		t.Fatalf("%d switches on a lossless link", n)
	}
}

func TestAdaptiveUnderLoss(t *testing.T) {
	s, _ := newVirtualSession(t, testRelCfg(), 0.05, 22)
	ad := runTransfer(t, s, 1<<20, 4, "adaptive").Adaptor()
	if ad.rung() == 0 && len(ad.Switches()) == 0 {
		t.Log("note: 5% loss produced no escalation (signal below threshold)")
	}
}

func TestAdaptiveHeavyLossEscalates(t *testing.T) {
	s, _ := newVirtualSession(t, testRelCfg(), 0.15, 23)
	ad := runTransfer(t, s, 1<<20, 5, "adaptive").Adaptor()
	if len(ad.Switches()) == 0 {
		t.Fatal("15% loss never escalated the ladder")
	}
	if ad.Switches()[0].To.Scheme != SchemeEC {
		t.Fatalf("first escalation to %v, want EC", ad.Switches()[0].To)
	}
}

func TestAdaptiveTinyMessage(t *testing.T) {
	// Smaller than one segment: degenerate single-segment transfer.
	s, _ := newVirtualSession(t, testRelCfg(), 0.02, 24)
	runTransfer(t, s, 10_000, 6, "adaptive")
}

func TestAdaptivePartialTailSegment(t *testing.T) {
	cfgA := testAdaptorCfg()
	s, _ := newVirtualSession(t, testRelCfg(), 0.08, 25)
	// 2.5 segments plus a partial tail chunk.
	size := cfgA.SegmentChunks*4096*5/2 + 777
	runTransfer(t, s, size, 7, "adaptive")
}

func TestAdaptiveSequentialTransfers(t *testing.T) {
	// The adaptor persists across transfers on one session: state from
	// transfer 1 carries into transfer 2's first posting decisions.
	s, _ := newVirtualSession(t, testRelCfg(), 0.12, 26)
	const size = 512 << 10
	tr := newTransfer(t, s, "adaptive", size)
	for round := 0; round < 3; round++ {
		driveMsg(t, tr, pattern(size, byte(round+40)))
	}
}

// adaptiveFingerprint runs one lossy adaptive transfer on a fresh
// virtual world and condenses everything observable — received bytes,
// the switch trajectory, and the virtual completion time — into a
// comparable string.
func adaptiveFingerprint(t *testing.T, seed int64) string {
	t.Helper()
	vc := clock.NewVirtual()
	relCfg := testRelCfg()
	lat := 2 * time.Millisecond
	s, err := NewSession(testCoreCfg(vc), relCfg,
		fabric.Config{Latency: lat, DropProb: 0.12, Seed: seed},
		fabric.Config{Latency: lat, DropProb: 0.12, Seed: seed + 1000},
		lat)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const size = 1 << 20
	tr := newTransfer(t, s, "adaptive", size)
	sum := byte(0)
	for _, b := range driveMsg(t, tr, pattern(size, 9)).Buf {
		sum ^= b
	}
	return fmt.Sprintf("xor=%02x t=%v switches=%v", sum, vc.Now().UnixNano(), tr.Adaptor().Switches())
}

// TestAdaptiveSwitchoverDeterministic pins the adaptive trajectory
// across GOMAXPROCS ∈ {1,4,8}: the switch sequence, the received
// bytes, and the virtual completion instant must not depend on how
// many OS threads the runtime schedules goroutines onto.
func TestAdaptiveSwitchoverDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want string
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		got := adaptiveFingerprint(t, 77)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("GOMAXPROCS=%d diverged:\n  got  %s\n  want %s", procs, got, want)
		}
	}
}
