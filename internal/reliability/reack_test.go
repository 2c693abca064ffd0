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

// newReackSession builds the lossless 2 ms-RTT virtual session the
// re-ACK scenarios run on.
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

// dropCompletionAcks makes the receiver→sender control path drop the
// first n completion ACKs of a message of nchunks chunks — an SR ACK
// covering every chunk, or any EC positive ACK — and returns the count
// it dropped: a loss burst pinned, deterministically, to exactly the
// ACKs whose loss strands a sender. Only the receiver's final ACK and
// its re-ACKs complete a message, so the burst swallows those.
func dropCompletionAcks(s *Session, nchunks, n int) *int {
	dropped := new(int)
	s.Pair.Link.BA.SetInterceptor(func(pkt *nicsim.Packet) fabric.Verdict {
		if pkt.Opcode != nicsim.OpSend {
			return fabric.Pass
		}
		m, err := decodeCtrl(pkt.Payload)
		final := err == nil && (m.typ == msgECAck || m.typ == msgSRAck && int(m.cumAck) >= nchunks)
		if final && *dropped < n {
			*dropped++
			return fabric.Drop
		}
		return fabric.Pass
	})
	return dropped
}

// runLostFinalAck loses the receiver's final ACK and the next burst-1
// re-ACKs of one scheme transfer. The receiver sends its final ACK
// once and retires its slots at completion, so only the sender's
// retransmissions — the SR RTO sweep, the coded segment's probe —
// landing in the retired slots can pull the ACK again (reack.go).
// Without the re-ACK (the test unhooks the receiver QP's late sink)
// the sender is stranded until GlobalTimeout.
func runLostFinalAck(t *testing.T, scheme string, noReAck bool, burst int) (sendErr error) {
	t.Helper()
	s, _, coreCfg, _ := newReackSession(t)
	if noReAck {
		s.Pair.B.QP.SetLateSink(nil)
	}
	const size = 16 * 4096 // 16 chunks
	dropped := dropCompletionAcks(s, size/coreCfg.ChunkBytes, burst)
	out := newTransfer(t, s, scheme, size).Drive("lost-ack", pattern(size, 3))
	if out.RecvErr != nil {
		t.Fatalf("%s: receiver failed: %v", scheme, out.RecvErr)
	}
	if *dropped == 0 {
		t.Fatalf("%s: no final ACK was lost", scheme)
	}
	if !out.BytesOK() {
		t.Fatalf("%s: received data corrupted", scheme)
	}
	if !noReAck && s.B.LateReAcks.Load() < uint64(*dropped) {
		t.Fatalf("%s: %d completion ACKs lost but only %d re-ACKs sent", scheme, *dropped, s.B.LateReAcks.Load())
	}
	return out.SendErr
}

// Without the re-ACK, a lost final ACK strands the sender until its
// global timeout: nothing else ever re-sends it.
func TestLostFinalAckStrandsSenderWithoutReAck(t *testing.T) {
	for _, scheme := range []string{"sr", "ec"} {
		if err := runLostFinalAck(t, scheme, true, 1<<30); !errors.Is(err, errGlobalTimeout) {
			t.Fatalf("%s: sender error = %v, want ErrGlobalTimeout", scheme, err)
		}
	}
}

// With the re-ACK (the default), each retransmission after the burst
// pulls a fresh final ACK out of the retired slots and the write
// completes — for the coded scheme too, whose sender has no per-chunk
// RTO and retransmits only by its probe. The burst outlasts the answers
// to the coded message's own trailing parity (8 packets land after the
// data completed it), so only the probe can end it.
func TestLateReAckRescuesLostFinalAck(t *testing.T) {
	for _, scheme := range []string{"sr", "ec"} {
		if err := runLostFinalAck(t, scheme, false, 12); err != nil {
			t.Fatalf("%s: sender failed despite late re-ACK: %v", scheme, err)
		}
	}
}

// An adaptive message of more segments than the receiver's posting
// window loses the oldest segment's final ACK while the window is full.
// The sender keeps starting later segments, and their ACKs prove the
// oldest one's chunks lost; its repairs land in retired slots, and the
// re-ACK table — which still holds the segment, because the sender
// starts no segment reackOps past its oldest incomplete one — answers.
func TestAdaptiveFullWindowLostOldestFinalAck(t *testing.T) {
	s, _, coreCfg, _ := newReackSession(t)
	acfg := testAdaptorCfg()
	size := 8 * acfg.SegmentChunks * coreCfg.ChunkBytes // 8 segments, window 6
	if size/(acfg.SegmentChunks*coreCfg.ChunkBytes) <= acfg.Window {
		t.Fatal("the message does not fill the posting window")
	}
	// Segments complete in order, so the first completion ACK is the
	// oldest segment's.
	dropped := dropCompletionAcks(s, acfg.SegmentChunks, 1)
	driveMsg(t, newTransfer(t, s, "adaptive", size), pattern(size, 5))
	if *dropped != 1 {
		t.Fatalf("dropped %d final ACKs, want 1", *dropped)
	}
	if s.B.LateReAcks.Load() == 0 {
		t.Fatal("the sender completed without a re-ACK")
	}
}

// A late data packet arriving in a retired EC slot must pull the
// positive ACK back out of the re-ACK table. The late packet is staged
// with a fabric Hold: one chunk's packets are parked on the wire,
// parity recovery completes the receive and retires every slot, and
// releasing the held packets afterwards must re-emit msgECAck.
func TestLateDataIntoRetiredECSlotReAcks(t *testing.T) {
	s, _, coreCfg, _ := newReackSession(t)

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
	// The receive retired every slot at its completion instant. The
	// held packets arrive late; the first must trigger a fresh positive
	// ACK from the re-ACK table.
	before := ecAcks
	if n := s.Pair.Link.AB.ReleaseHeld(); n != pktsPerChunk {
		t.Fatalf("released %d packets, want %d", n, pktsPerChunk)
	}
	if ecAcks <= before {
		t.Fatalf("late data into retired EC slot produced no re-ACK (%d before, %d after)", before, ecAcks)
	}
}

// A coded submessage retires as soon as parity decodes it, before the
// segment completes: the decode writes its missing chunks in place, so
// on a real clock a late copy of one must not land concurrently. Here
// submessage 0's first chunk is held on the wire, so parity decodes
// submessage 0, while three of submessage 1's four data chunks are
// lost, so the segment waits for the NACK repair. The held packets are
// released in between and must land on the NULL key, not in the MR.
func TestECDecodeRetiresSubmessageFirst(t *testing.T) {
	s, clk, coreCfg, _ := newReackSession(t)
	const size = 8 * 4096 // two (4,2) submessages
	p := coreCfg.ChunkBytes / coreCfg.MTU
	n := 0 // data and parity packets of the first injection, in wire order
	s.Pair.Link.AB.SetInterceptor(func(pkt *nicsim.Packet) fabric.Verdict {
		if pkt.Opcode != nicsim.OpWriteImm {
			return fabric.Pass
		}
		n++
		switch {
		case n <= p: // submessage 0, chunk 0
			return fabric.Hold
		case n > 6*p && n <= 9*p: // submessage 1, chunks 4–6 (after 4 data + 2 parity chunks)
			return fabric.Drop
		}
		return fabric.Pass
	})
	send, recv, out := newTransfer(t, s, "ec", size).Actors("decode", pattern(size, 11))
	released := 0
	clock.JoinNamed(clk, send, recv, clock.NamedFunc{Name: "release", Fn: func() {
		// Data lands from 2 ms (a CTS one way, then the data); the
		// repair of submessage 1 from 5 ms (its NACK goes out at 3 ms).
		clk.Sleep(3500 * time.Microsecond)
		released = s.Pair.Link.AB.ReleaseHeld()
	}})
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if released != p {
		t.Fatalf("released %d packets, want %d", released, p)
	}
	if late := s.Pair.B.QP.Stats().LateDiscarded; late != uint64(p) {
		t.Fatalf("%d late packets absorbed, want the %d released into the decoded submessage", late, p)
	}
	if s.A.Retransmits.Load() == 0 {
		t.Fatal("submessage 1 was never repaired: the segment did not outlive the decode")
	}
}
