package reliability

import (
	"slices"
	"strings"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
)

// Every scheme name moves three verified messages over a lossy virtual
// link through one Transfer, and the value holds exactly what the name
// calls for: no scratch and no Adaptor for the SR pair, geometry-sized
// scratch per rotation slot for the coded schemes, one Adaptor for the
// life of the adaptive binding.
func TestTransferSchemes(t *testing.T) {
	const size, slots = 150_000, 3
	acfg := testAdaptorCfg()
	for _, tc := range []struct {
		scheme  string
		nack    bool
		scratch func(c Config) int
	}{
		{"sr", false, nil},
		{"sr-nack", true, nil},
		{"ec", false, func(c Config) int { return c.ECScratchBytes(4096, size) }},
		{"adaptive", false, func(Config) int { return AdaptiveScratchBytes(acfg, 4096, size) }},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			relCfg, err := testRelCfg().ForScheme(tc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			if relCfg.NACK != tc.nack {
				t.Fatalf("ForScheme(%q).NACK = %v, want %v", tc.scheme, relCfg.NACK, tc.nack)
			}
			s, _ := newVirtualSession(t, relCfg, 0.05, 31)
			tr, err := s.NewTransfer(tc.scheme, acfg, size, slots)
			if err != nil {
				t.Fatal(err)
			}
			if tc.scratch == nil {
				if len(tr.scratch) != 0 {
					t.Fatalf("%d scratch regions for an SR scheme, want none", len(tr.scratch))
				}
			} else {
				if len(tr.scratch) != slots {
					t.Fatalf("%d scratch regions, want %d", len(tr.scratch), slots)
				}
				seen := map[uint32]bool{}
				for _, mr := range tr.scratch {
					if got, want := mr.Span(), uint64(tc.scratch(s.B.Cfg)); got != want {
						t.Fatalf("scratch region spans %d B, geometry says %d", got, want)
					}
					if seen[mr.Key()] {
						t.Fatal("two rotation slots share one scratch region")
					}
					seen[mr.Key()] = true
				}
			}
			ad := tr.Adaptor()
			if (ad != nil) != (tc.scheme == "adaptive") {
				t.Fatalf("Adaptor() = %v for scheme %s", ad, tc.scheme)
			}
			for i := 0; i < 3; i++ {
				out := tr.Drive("test", pattern(size, byte(i)))
				if err := out.Err(); err != nil {
					t.Fatalf("message %d: %v", i, err)
				}
				if !out.BytesOK() || out.SendDone <= 0 || out.RecvDone <= 0 {
					t.Fatalf("message %d: bytesOK=%v send=%v recv=%v", i, out.BytesOK(), out.SendDone, out.RecvDone)
				}
				if tr.Adaptor() != ad {
					t.Fatal("the Adaptor changed between messages of one Transfer")
				}
			}
		})
	}
}

// A misspelt scheme is an error at both places a name enters, never a
// silent SR.
func TestUnknownSchemeRejected(t *testing.T) {
	if _, err := testRelCfg().ForScheme("ecc"); err == nil {
		t.Error(`ForScheme("ecc") accepted`)
	}
	s, _ := newVirtualSession(t, testRelCfg(), 0, 32)
	if tr, err := s.NewTransfer("ecc", AdaptorConfig{}, 4096, 1); err == nil {
		t.Errorf(`NewTransfer("ecc") = %v, want an error`, tr)
	}
	if _, err := s.NewTransfer("adaptive", AdaptorConfig{Window: -1}, 4096, 1); err == nil {
		t.Error("NewTransfer accepted an invalid adaptor config")
	}
}

// A session that could not make progress is refused when it is built.
// An RTT under 8 ns derives a poll cadence of 0, whose timer re-armed at
// the same instant forever; an MTU below minCtrlMTU panicked encoding
// the first ACK. At exactly minCtrlMTU every scheme moves its bytes.
func TestSessionRejectsStallingConfig(t *testing.T) {
	build := func(mtu int, rel Config) error {
		cc := testCoreCfg(clock.NewVirtual())
		cc.MTU, cc.ChunkBytes = mtu, 4*mtu
		s, err := NewSession(cc, rel, fabric.Config{}, fabric.Config{}, 0)
		if err == nil {
			s.Close()
		}
		return err
	}
	for _, c := range []struct {
		rel  Config
		want string
	}{
		{Config{RTT: time.Nanosecond}, "PollInterval 0s <= 0"},
		{Config{RTT: 7 * time.Nanosecond}, "PollInterval 0s <= 0"},
		{Config{RTT: time.Millisecond, AckInterval: -time.Microsecond}, "AckInterval -1µs <= 0"},
	} {
		if err := build(1024, c.rel); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RTT %v: NewSession = %v, want an error containing %q", c.rel.RTT, err, c.want)
		}
	}
	if err := build(minCtrlMTU-1, testRelCfg()); err == nil || !strings.Contains(err.Error(), "below the 22 B minimum") {
		t.Errorf("MTU %d: NewSession = %v, want the minimum named", minCtrlMTU-1, err)
	}
	for _, scheme := range []string{"sr", "sr-nack", "ec", "adaptive"} {
		rel, err := testRelCfg().ForScheme(scheme)
		if err != nil {
			t.Fatal(err)
		}
		cc := testCoreCfg(clock.NewVirtual())
		cc.MTU, cc.ChunkBytes = minCtrlMTU, 4*minCtrlMTU
		s, err := NewSession(cc, rel,
			fabric.Config{DropProb: 0.02, Seed: 5}, fabric.Config{DropProb: 0.02, Seed: 1005}, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := s.NewTransfer(scheme, AdaptorConfig{}, 64*minCtrlMTU, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Drive("tiny-mtu", pattern(64*minCtrlMTU, 3)).Err(); err != nil {
			t.Errorf("MTU %d, %s: %v", minCtrlMTU, scheme, err)
		}
		s.Close()
	}
}

// A returned receive has handed its buffer back. The receiver clears
// it the moment Receive returns, while its first two final ACKs are
// lost, so the sender — every scheme keeps repairing until its own ACK
// arrives — is still retransmitting into the message. Those late
// packets are absorbed by the NULL key: the buffer stays clear, and no
// packet is written into a complete message after the return.
func TestReceiveReturnHandsBufferBack(t *testing.T) {
	for _, scheme := range []string{"sr", "sr-nack", "ec", "adaptive"} {
		relCfg, err := testRelCfg().ForScheme(scheme)
		if err != nil {
			t.Fatal(err)
		}
		s, vc := newVirtualSession(t, relCfg, 0.05, 41)
		const size = 150_000
		finalChunks := (size + 4095) / 4096
		if scheme == "adaptive" {
			finalChunks = testAdaptorCfg().SegmentChunks
		}
		dropCompletionAcks(s, finalChunks, 2)
		send, recv, out := newTransfer(t, s, scheme, size).Actors("handback", pattern(size, 9))
		var doneWrites, late uint64
		intact := false
		fn := recv.Fn
		recv.Fn = func() {
			fn()
			intact = out.BytesOK()
			clear(out.Buf)
			doneWrites, late = s.Pair.B.QP.Stats().DoneWrites, s.Pair.B.QP.Stats().LateDiscarded
		}
		clock.JoinNamed(vc, send, recv)
		if out.SendErr != nil || out.RecvErr != nil || !intact {
			t.Fatalf("%s: %v, intact %v", scheme, out.Err(), intact)
		}
		// Drain: every retransmission in flight lands.
		clock.Join(vc, func() { vc.Sleep(10 * relCfg.WithDefaults().rto()) })
		st := s.Pair.B.QP.Stats()
		if st.LateDiscarded == late {
			t.Errorf("%s: no packet arrived after the receive returned: the scenario does not exercise the hand-back", scheme)
		}
		if i := slices.IndexFunc(out.Buf, func(b byte) bool { return b != 0 }); i >= 0 {
			t.Errorf("%s: byte %d written after the receive returned", scheme, i)
		}
		if st.DoneWrites != doneWrites {
			t.Errorf("%s: %d packets written into complete messages after the receive returned", scheme, st.DoneWrites-doneWrites)
		}
	}
}
