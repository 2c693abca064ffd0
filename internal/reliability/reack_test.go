package reliability

import (
	"errors"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/nicsim"
)

// newReackSession builds the lossless 2 ms-RTT virtual session both
// re-ACK scenarios run on. Its linger is short — about four final ACKs —
// so a pinned control-path burst can swallow it whole.
func newReackSession(t *testing.T) (*Session, *clock.Virtual, core.Config, Config) {
	t.Helper()
	clk := clock.NewVirtual()
	coreCfg := core.Config{
		MTU: 1024, ChunkBytes: 4096, MaxMsgBytes: 1 << 20,
		Generations: 2, Channels: 2, CQDepth: 1 << 12,
		Clock: clk,
	}
	relCfg := Config{
		RTT:           2 * time.Millisecond,
		PollInterval:  250 * time.Microsecond,
		AckInterval:   500 * time.Microsecond,
		Linger:        2 * time.Millisecond,
		GlobalTimeout: 120 * time.Millisecond,
		K:             4, M: 2,
	}
	fabCfg := fabric.Config{Latency: time.Millisecond, Clock: clk}
	s, err := NewSession(coreCfg, relCfg, fabCfg, fabCfg, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, clk, coreCfg, relCfg
}

// runSwallowedLinger reproduces the PR-4 netem pathology in isolation:
// a loss burst on the control path swallows every final ACK of the
// receiver's linger window (the interceptor drops the first
// `burst` completion ACKs), the receiver retires the slot, and the
// sender keeps RTO-retransmitting into it. With the late re-ACK the
// sender completes once the burst clears; without it (the test unhooks
// the receiver QP's late sink) it is stranded until GlobalTimeout — the
// regression this test pins.
func runSwallowedLinger(t *testing.T, noReAck bool, burst int) (sendErr error) {
	t.Helper()
	s, _, coreCfg, _ := newReackSession(t)
	if noReAck {
		s.Pair.B.QP.SetLateSink(nil)
	}

	const size = 16 * 4096 // 16 chunks
	nchunks := size / coreCfg.ChunkBytes
	// Drop the first `burst` completion ACKs (cumulative count == all
	// chunks) on the receiver→sender control path: a Gilbert–Elliott
	// bad-state episode pinned, deterministically, to exactly the ACKs
	// whose loss used to strand the sender.
	dropped := 0
	s.Pair.Link.BA.SetInterceptor(func(pkt *nicsim.Packet) fabric.Verdict {
		if pkt.Opcode != nicsim.OpSend {
			return fabric.Pass
		}
		m, err := decodeCtrl(pkt.Payload)
		if err != nil || m.typ != msgSRAck || int(m.cumAck) < nchunks {
			return fabric.Pass
		}
		if dropped < burst {
			dropped++
			return fabric.Drop
		}
		return fabric.Pass
	})

	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*13 + i>>8)
	}
	out := newTransfer(t, s, "sr", size).Drive("linger", data)
	if out.RecvErr != nil {
		t.Fatalf("receiver failed: %v", out.RecvErr)
	}
	if dropped < 4 {
		t.Fatalf("interceptor ate %d completion ACKs — burst never covered the linger window", dropped)
	}
	if !out.BytesOK() {
		t.Fatal("received data corrupted")
	}
	return out.SendErr
}

// Without the re-ACK, the swallowed linger strands the sender until
// its global timeout — the stall netem.NewFlow used to paper over with
// a denser, longer linger.
func TestSwallowedLingerStrandsSenderWithoutReAck(t *testing.T) {
	err := runSwallowedLinger(t, true, 1<<30) // burst outlives everything
	if !errors.Is(err, errGlobalTimeout) {
		t.Fatalf("sender error = %v, want ErrGlobalTimeout (the pre-fix stall)", err)
	}
}

// With the re-ACK (the default), the sender's first retransmission
// after the burst clears pulls a fresh final ACK out of the retired
// slot and the write completes.
func TestLateReAckRescuesSwallowedLinger(t *testing.T) {
	if err := runSwallowedLinger(t, false, 8); err != nil {
		t.Fatalf("sender failed despite late re-ACK: %v", err)
	}
}

// A late data packet arriving in a retired EC slot must pull the
// positive ACK back out of the re-ACK table. EC has no sender-side
// RTO (fallback is NACK-driven), so the late packet is staged with a
// fabric Hold: one chunk's packets are parked on the wire, parity
// recovery completes the receive and retires every slot, and
// releasing the held packets afterwards must re-emit msgECAck.
func TestLateDataIntoRetiredECSlotReAcks(t *testing.T) {
	s, clk, coreCfg, relCfg := newReackSession(t)

	const size = 16 * 4096
	// Hold the four MTU packets of the first data chunk; parity (m=2)
	// recovers the chunk, so the receive completes without them.
	pktsPerChunk := coreCfg.ChunkBytes / coreCfg.MTU
	held := 0
	s.Pair.Link.AB.SetInterceptor(func(pkt *nicsim.Packet) fabric.Verdict {
		if pkt.Opcode == nicsim.OpWriteImm && held < pktsPerChunk {
			held++
			return fabric.Hold
		}
		return fabric.Pass
	})
	var ecAcks int
	s.Pair.Link.BA.SetInterceptor(func(pkt *nicsim.Packet) fabric.Verdict {
		if pkt.Opcode == nicsim.OpSend {
			if m, err := decodeCtrl(pkt.Payload); err == nil && m.typ == msgECAck {
				ecAcks++
			}
		}
		return fabric.Pass
	})

	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	// Err covers both sides and the parity-recovered bytes.
	driveMsg(t, newTransfer(t, s, "ec", size), data)
	if held != pktsPerChunk {
		t.Fatalf("held %d packets, want %d", held, pktsPerChunk)
	}
	// The receive returned at its completion instant; the final-ACK
	// linger runs in the background (retire.go). Sleep out the linger
	// on the virtual clock so the retire timers fire and the slots
	// actually retire into the re-ACK table.
	clock.Join(clk, func() { clk.Sleep(relCfg.Linger + 2*relCfg.AckInterval) })
	// Every slot is retired now. The held packets arrive late; the
	// first must trigger a fresh positive ACK from the re-ACK table.
	before := ecAcks
	if n := s.Pair.Link.AB.ReleaseHeld(); n != pktsPerChunk {
		t.Fatalf("released %d packets, want %d", n, pktsPerChunk)
	}
	if ecAcks <= before {
		t.Fatalf("late data into retired EC slot produced no re-ACK (%d before, %d after)", before, ecAcks)
	}
}
