package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/nicsim"
)

// smallCfg is a test configuration with 1 KiB MTU, 4 KiB chunks
// (4 packets per chunk) and small slots for fast wraparound tests.
func smallCfg() Config {
	return Config{
		MTU:           1024,
		ChunkBytes:    4096,
		MaxMsgBytes:   1 << 20,
		MsgIDBits:     10,
		PktOffsetBits: 18,
		UserImmBits:   4,
		Generations:   4,
		Channels:      4,
	}
}

func newTestPair(t *testing.T, cfg Config, ab, ba fabric.Config) *Pair {
	t.Helper()
	p, err := NewPair(cfg, ab, ba, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// faults scripts duplication and lateness on a pair's A→B data packets
// and records what it injected and what landed at B.
type faults struct {
	dups, holds, released int
	// delivered counts packets landed at B; inversions the ones that
	// landed after a packet their sending QP numbered later.
	delivered, inversions int
	top                   map[uint32]uint32 // highest PSN landed per sending QP
	dst                   nicsim.Deliverer
}

func (f *faults) Deliver(pkt *nicsim.Packet) {
	f.delivered++
	if top, ok := f.top[pkt.SrcQPN]; ok && pkt.PSN < top {
		f.inversions++
	} else {
		f.top[pkt.SrcQPN] = pkt.PSN
	}
	f.dst.Deliver(pkt)
}

// newScriptedPair builds a pair on the virtual clock cfg.Clock whose
// A→B direction runs ab, duplicates every dupEvery-th data packet and
// holds every holdEvery-th one for late (0 disables either), and
// delivers through the returned recorder.
func newScriptedPair(t *testing.T, cfg Config, ab fabric.Config, dupEvery, holdEvery int, late time.Duration) (*Pair, *faults) {
	t.Helper()
	p := newTestPair(t, cfg, fabric.Config{}, fabric.Config{})
	f := &faults{top: map[uint32]uint32{}, dst: p.B.Dev}
	dir := p.Link.AB
	ab.Clock = cfg.Clock
	dir.Reconfigure(f, ab)
	n := 0
	dir.SetInterceptor(func(pkt *nicsim.Packet) fabric.Verdict {
		if pkt.Opcode != nicsim.OpWriteImm {
			return fabric.Pass
		}
		n++
		switch {
		case dupEvery > 0 && n%dupEvery == 0:
			f.dups++
			return fabric.Duplicate
		case holdEvery > 0 && n%holdEvery == 0:
			f.holds++
			cfg.Clock.At(cfg.Clock.NowNanos()+int64(late), func() { f.released += dir.ReleaseHeld() })
			return fabric.Hold
		}
		return fabric.Pass
	})
	return p, f
}

// waitVirtual parks the calling actor until h completes or timeout of
// virtual time passes, and reports whether h completed.
func waitVirtual(vc *clock.Virtual, h *RecvHandle, timeout time.Duration) bool {
	deadline := vc.Now().Add(timeout)
	for {
		epoch := vc.Epoch()
		if h.Done() {
			return true
		}
		if vc.Now().After(deadline) {
			return false
		}
		vc.WaitNotify(epoch, 10*time.Millisecond)
	}
}

func waitDone(t *testing.T, h *RecvHandle, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !h.Done() {
		if time.Now().After(deadline) {
			t.Fatalf("receive %d incomplete: %d/%d chunks",
				h.Seq(), h.Bitmap().Count(), h.Bitmap().Len())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func fillPattern(buf []byte, seed byte) {
	for i := range buf {
		buf[i] = seed + byte(i*7)
	}
}

func TestOneShotTransfer(t *testing.T) {
	p := newTestPair(t, smallCfg(), fabric.Config{}, fabric.Config{})
	recvBuf := make([]byte, 64<<10)
	mr := p.B.Ctx.RegMR(recvBuf)

	h, err := p.B.QP.RecvPost(mr, 0, 10000) // 10 packets, 3 chunks
	if err != nil {
		t.Fatal(err)
	}
	if h.Bitmap().Len() != 3 {
		t.Fatalf("chunks = %d, want 3", h.Bitmap().Len())
	}
	data := make([]byte, 10000)
	fillPattern(data, 3)
	sh, err := p.A.QP.SendPost(data, 0xDEADBEEF)
	if err != nil {
		t.Fatal(err)
	}
	if !sh.Poll() {
		t.Fatal("send not complete after SendPost")
	}
	if sh.packets != 10 {
		t.Fatalf("packets = %d, want 10", sh.packets)
	}
	waitDone(t, h, time.Second)
	if !bytes.Equal(recvBuf[:10000], data) {
		t.Fatal("payload corrupted")
	}
	imm, err := h.Imm()
	if err != nil {
		t.Fatalf("Imm: %v", err)
	}
	if imm != 0xDEADBEEF {
		t.Fatalf("reconstructed imm = %#x, want 0xDEADBEEF", imm)
	}
	if err := h.Complete(); err != nil {
		t.Fatal(err)
	}
	if err := h.Complete(); !errors.Is(err, errAlreadyCompleted) {
		t.Fatalf("double Complete: %v", err)
	}
}

func TestOrderBasedMatching(t *testing.T) {
	p := newTestPair(t, smallCfg(), fabric.Config{}, fabric.Config{})
	bufs := make([][]byte, 3)
	handles := make([]*RecvHandle, 3)
	for i := range bufs {
		bufs[i] = make([]byte, 4096)
		mr := p.B.Ctx.RegMR(bufs[i])
		var err error
		handles[i], err = p.B.QP.RecvPost(mr, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Sends land in posting order: Send_i → Recv_i (§3.1.3), with no
	// buffer metadata exchanged.
	for i := 0; i < 3; i++ {
		data := bytes.Repeat([]byte{byte('A' + i)}, 4096)
		if _, err := p.A.QP.SendPost(data, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range handles {
		waitDone(t, h, time.Second)
		want := bytes.Repeat([]byte{byte('A' + i)}, 4096)
		if !bytes.Equal(bufs[i], want) {
			t.Fatalf("message %d landed in wrong buffer", i)
		}
	}
}

// The core SDR promise: drops surface as missing bits in the chunk
// bitmap, and a streaming send can repair exactly those chunks
// (§3.1.1, §3.1.2).
func TestPartialCompletionAndStreamRepair(t *testing.T) {
	cfg := smallCfg()
	p := newTestPair(t, cfg, fabric.Config{}, fabric.Config{})
	ic := newImmCodec(cfg)

	// Drop packets 5, 6 (chunk 1) and 13 (chunk 3) of the first pass.
	dropped := map[uint32]bool{5: true, 6: true, 13: true}
	firstPass := true
	p.Link.AB.SetInterceptor(func(pkt *nicsim.Packet) fabric.Verdict {
		if !firstPass || !pkt.HasImm {
			return fabric.Pass
		}
		_, pktOff, _ := ic.decode(pkt.Imm)
		if dropped[pktOff] {
			return fabric.Drop
		}
		return fabric.Pass
	})

	recvBuf := make([]byte, 64<<10)
	mr := p.B.Ctx.RegMR(recvBuf)
	const size = 16 << 10 // 16 packets, 4 chunks
	h, err := p.B.QP.RecvPost(mr, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	fillPattern(data, 9)

	stream, err := p.A.QP.SendStreamStart(size, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Continue(0, data); err != nil {
		t.Fatal(err)
	}
	// Wait for the surviving packets to land, then inspect the bitmap.
	time.Sleep(20 * time.Millisecond)
	bm := h.Bitmap()
	if bm.Test(1) || bm.Test(3) {
		t.Fatal("chunks with dropped packets marked complete")
	}
	if !bm.Test(0) || !bm.Test(2) {
		t.Fatal("fully delivered chunks not marked")
	}
	if h.Done() {
		t.Fatal("message complete despite drops")
	}
	missing := bm.Missing(nil, 0, bm.Len())
	if len(missing) != 2 || missing[0] != 1 || missing[1] != 3 {
		t.Fatalf("missing chunks = %v, want [1 3]", missing)
	}

	//

	// Reliability-layer behaviour: retransmit exactly the missing
	// chunks through the same stream.
	firstPass = false
	for _, chunk := range missing {
		off := chunk * cfg.ChunkBytes
		end := off + cfg.ChunkBytes
		if end > size {
			end = size
		}
		if err := stream.Continue(off, data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := stream.End(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, time.Second)
	if !bytes.Equal(recvBuf[:size], data) {
		t.Fatal("payload corrupted after repair")
	}
	if err := stream.Continue(0, data[:1024]); !errors.Is(err, errStreamEnded) {
		t.Fatalf("Continue after End: %v", err)
	}
}

// Reordering at the fabric must not lose any per-packet write (§3.2.1's
// motivation for one write-with-immediate per packet): every third data
// packet lands 2 ms late, behind packets sent after it.
func TestReorderingRobustness(t *testing.T) {
	vc := clock.NewVirtual()
	cfg := smallCfg()
	cfg.Clock = vc
	p, f := newScriptedPair(t, cfg, fabric.Config{Latency: 200 * time.Microsecond}, 0, 3, 2200*time.Microsecond)

	recvBuf := make([]byte, 256<<10)
	mr := p.B.Ctx.RegMR(recvBuf)
	const size = 200 << 10
	data := make([]byte, size)
	fillPattern(data, 31)
	clock.Join(vc, func() {
		h, err := p.B.QP.RecvPost(mr, 0, size)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := p.A.QP.SendPost(data, 7); err != nil {
			t.Error(err)
			return
		}
		if !waitVirtual(vc, h, 5*time.Second) {
			t.Errorf("receive incomplete: %d/%d chunks", h.Bitmap().Count(), h.Bitmap().Len())
		}
	})
	if !bytes.Equal(recvBuf[:size], data) {
		t.Fatal("payload corrupted under reordering")
	}
	if got := p.B.QP.Stats().LateDiscarded; got != 0 {
		t.Fatalf("reordered packets discarded: %d", got)
	}
	if f.holds == 0 || f.released != f.holds || f.inversions == 0 {
		t.Fatalf("held %d, released %d, delivery inversions %d", f.holds, f.released, f.inversions)
	}
}

// Wire duplication must be absorbed by the packet bitmap: every other
// data packet arrives twice.
func TestDuplicationRobustness(t *testing.T) {
	vc := clock.NewVirtual()
	cfg := smallCfg()
	cfg.Clock = vc
	p, f := newScriptedPair(t, cfg, fabric.Config{}, 2, 0, 0)
	recvBuf := make([]byte, 64<<10)
	mr := p.B.Ctx.RegMR(recvBuf)
	data := make([]byte, 32<<10)
	fillPattern(data, 5)
	clock.Join(vc, func() {
		h, err := p.B.QP.RecvPost(mr, 0, 32<<10)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := p.A.QP.SendPost(data, 1); err != nil {
			t.Error(err)
			return
		}
		if !waitVirtual(vc, h, time.Second) {
			t.Errorf("receive incomplete: %d/%d chunks", h.Bitmap().Count(), h.Bitmap().Len())
		}
	})
	if !bytes.Equal(recvBuf[:32<<10], data) {
		t.Fatal("payload corrupted under duplication")
	}
	if f.dups != 16 || f.delivered != 32+16 {
		t.Fatalf("duplicated %d of 32 packets, %d landed", f.dups, f.delivered)
	}
	if got := p.B.QP.Stats().Duplicates; got != uint64(f.dups) {
		t.Fatalf("bitmap recorded %d duplicates, wire carried %d", got, f.dups)
	}
}

// §3.3: early completion + late packet. The held packet arrives after
// recv_complete retired the slot: its payload must be absorbed by the
// NULL key and its completion discarded, leaving the buffer untouched.
func TestLatePacketAfterEarlyCompletion(t *testing.T) {
	cfg := smallCfg()
	p := newTestPair(t, cfg, fabric.Config{}, fabric.Config{})
	ic := newImmCodec(cfg)

	held := false
	p.Link.AB.SetInterceptor(func(pkt *nicsim.Packet) fabric.Verdict {
		if pkt.HasImm && !held {
			if _, pktOff, _ := ic.decode(pkt.Imm); pktOff == 2 {
				held = true
				return fabric.Hold
			}
		}
		return fabric.Pass
	})

	recvBuf := make([]byte, 8<<10)
	mr := p.B.Ctx.RegMR(recvBuf)
	h, err := p.B.QP.RecvPost(mr, 0, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8<<10)
	fillPattern(data, 11)
	if _, err := p.A.QP.SendPost(data, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if h.Done() {
		t.Fatal("message complete despite held packet")
	}
	// Receiver-side timeout fires: the application completes early.
	if err := h.Complete(); err != nil {
		t.Fatal(err)
	}
	// Scribble a sentinel where the late packet would land.
	copy(recvBuf[2048:3072], bytes.Repeat([]byte{0xAA}, 1024))

	if n := p.Link.AB.ReleaseHeld(); n != 1 {
		t.Fatalf("released %d packets, want 1", n)
	}
	time.Sleep(10 * time.Millisecond)

	for i := 2048; i < 3072; i++ {
		if recvBuf[i] != 0xAA {
			t.Fatal("late packet corrupted a retired buffer — NULL key failed")
		}
	}
	if p.B.Ctx.nullMR.Discarded.Load() == 0 {
		t.Fatal("late payload not absorbed by NULL key")
	}
	if p.B.QP.Stats().LateDiscarded == 0 {
		t.Fatal("late completion not discarded by stage-2 check")
	}
}

// §3.3.2: message-ID wraparound. With 1-bit message IDs (2 slots) and
// 2 generations, a packet held from generation 0 must not corrupt the
// same slot's message in generation 1.
func TestGenerationProtectionAcrossWraparound(t *testing.T) {
	cfg := Config{
		MTU: 1024, ChunkBytes: 1024, MaxMsgBytes: 8 << 10,
		MsgIDBits: 1, PktOffsetBits: 27, UserImmBits: 4,
		Generations: 2, Channels: 2,
	}
	p := newTestPair(t, cfg, fabric.Config{}, fabric.Config{})
	ic := newImmCodec(cfg)

	// Hold packet 1 of the very first message (slot 0, generation 0).
	heldOne := false
	p.Link.AB.SetInterceptor(func(pkt *nicsim.Packet) fabric.Verdict {
		if pkt.HasImm && !heldOne {
			if msgID, pktOff, _ := ic.decode(pkt.Imm); msgID == 0 && pktOff == 1 {
				heldOne = true
				return fabric.Hold
			}
		}
		return fabric.Pass
	})

	mrB := p.B.Ctx.RegMR(make([]byte, 64<<10))
	send := func(seed byte) *RecvHandle {
		h, err := p.B.QP.RecvPost(mrB, uint64(seed)*8192, 4096)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 4096)
		fillPattern(data, seed)
		if _, err := p.A.QP.SendPost(data, 0); err != nil {
			t.Fatal(err)
		}
		return h
	}

	h0 := send(0) // slot 0, gen 0 — missing packet 1
	time.Sleep(5 * time.Millisecond)
	if h0.Done() {
		t.Fatal("first message complete despite held packet")
	}
	h0.Complete() // early completion (timeout)

	h1 := send(1) // slot 1, gen 0
	waitDone(t, h1, time.Second)
	h1.Complete()

	// Wraparound: next two messages reuse slots 0 and 1 in gen 1.
	h2 := send(2) // slot 0, gen 1
	time.Sleep(5 * time.Millisecond)

	// Now release the generation-0 packet for slot 0: it arrives on a
	// gen-0 channel QP while slot 0 expects gen 1.
	p.Link.AB.ReleaseHeld()
	time.Sleep(5 * time.Millisecond)

	waitDone(t, h2, time.Second)
	want := make([]byte, 4096)
	fillPattern(want, 2)
	if !bytes.Equal(mrB.Bytes()[2*8192:2*8192+4096], want) {
		t.Fatal("generation-0 late packet corrupted generation-1 message")
	}
	if p.B.QP.Stats().LateDiscarded == 0 {
		t.Fatal("late gen-0 completion was not discarded")
	}
}

func TestCTSFlowControl(t *testing.T) {
	p := newTestPair(t, smallCfg(), fabric.Config{}, fabric.Config{})
	sent := make(chan struct{})
	go func() {
		data := make([]byte, 4096)
		p.A.QP.SendPost(data, 0) // must block: no receive posted yet
		close(sent)
	}()
	select {
	case <-sent:
		t.Fatal("SendPost completed before any receive was posted")
	case <-time.After(20 * time.Millisecond):
	}
	mr := p.B.Ctx.RegMR(make([]byte, 4096))
	if _, err := p.B.QP.RecvPost(mr, 0, 4096); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sent:
	case <-time.After(time.Second):
		t.Fatal("SendPost still blocked after CTS")
	}
}

func TestSizeMismatchRejected(t *testing.T) {
	p := newTestPair(t, smallCfg(), fabric.Config{}, fabric.Config{})
	mr := p.B.Ctx.RegMR(make([]byte, 4096))
	if _, err := p.B.QP.RecvPost(mr, 0, 2048); err != nil {
		t.Fatal(err)
	}
	_, err := p.A.QP.SendPost(make([]byte, 4096), 0)
	if !errors.Is(err, errSizeMismatch) {
		t.Fatalf("oversized send: %v, want ErrSizeMismatch", err)
	}
}

func TestRecvValidation(t *testing.T) {
	p := newTestPair(t, smallCfg(), fabric.Config{}, fabric.Config{})
	mr := p.B.Ctx.RegMR(make([]byte, 4096))
	if _, err := p.B.QP.RecvPost(mr, 0, 1<<21); !errors.Is(err, errMsgTooLarge) {
		t.Fatalf("oversized recv: %v", err)
	}
	if _, err := p.B.QP.RecvPost(mr, 0, 0); !errors.Is(err, errMsgTooLarge) {
		t.Fatalf("zero recv: %v", err)
	}
	if _, err := p.B.QP.RecvPost(mr, 4000, 4096); err == nil {
		t.Fatal("recv beyond MR accepted")
	}
}

func TestRecvQueueFull(t *testing.T) {
	cfg := Config{
		MTU: 1024, ChunkBytes: 1024, MaxMsgBytes: 4096,
		MsgIDBits: 1, PktOffsetBits: 27, UserImmBits: 4,
		Generations: 2, Channels: 1,
	}
	p := newTestPair(t, cfg, fabric.Config{}, fabric.Config{})
	mr := p.B.Ctx.RegMR(make([]byte, 16<<10))
	h0, err := p.B.QP.RecvPost(mr, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.B.QP.RecvPost(mr, 4096, 1024); err != nil {
		t.Fatal(err)
	}
	// both slots busy now
	if _, err := p.B.QP.RecvPost(mr, 8192, 1024); !errors.Is(err, ErrRecvQueueFull) {
		t.Fatalf("third recv: %v, want ErrRecvQueueFull", err)
	}
	h0.Complete()
	if _, err := p.B.QP.RecvPost(mr, 8192, 1024); err != nil {
		t.Fatalf("recv after Complete freed slot: %v", err)
	}
}

func TestImmShortMessage(t *testing.T) {
	// A 3-packet message cannot carry all 8 user-imm fragments; the
	// immediate becomes readable only once the message completes, with
	// unseen fragments zero.
	p := newTestPair(t, smallCfg(), fabric.Config{}, fabric.Config{})
	mr := p.B.Ctx.RegMR(make([]byte, 4096))
	h, err := p.B.QP.RecvPost(mr, 0, 3*1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Imm(); !errors.Is(err, errImmNotReady) {
		t.Fatalf("Imm before any packet: %v", err)
	}
	const userImm = 0xABCD1234
	if _, err := p.A.QP.SendPost(make([]byte, 3*1024), userImm); err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, time.Second)
	imm, err := h.Imm()
	if err != nil {
		t.Fatal(err)
	}
	// fragments 0..2 (nibbles) arrive: 0x234; the rest read zero.
	if want := uint32(userImm & 0xFFF); imm != want {
		t.Fatalf("short-message imm = %#x, want %#x", imm, want)
	}
}

func TestMultiChannelDistribution(t *testing.T) {
	cfg := smallCfg()
	p := newTestPair(t, cfg, fabric.Config{}, fabric.Config{})
	mr := p.B.Ctx.RegMR(make([]byte, 64<<10))
	h, err := p.B.QP.RecvPost(mr, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Count per-source-QP packets at the fabric.
	counts := map[uint32]int{}
	p.Link.AB.SetInterceptor(func(pkt *nicsim.Packet) fabric.Verdict {
		if pkt.HasImm {
			counts[pkt.SrcQPN]++
		}
		return fabric.Pass
	})
	if _, err := p.A.QP.SendPost(make([]byte, 64<<10), 0); err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, time.Second)
	if len(counts) != cfg.Channels {
		t.Fatalf("packets used %d channels, want %d", len(counts), cfg.Channels)
	}
	for qpn, n := range counts {
		if n != 64>>2/cfg.Channels*4 { // 64 packets / 4 channels
			t.Fatalf("channel %d carried %d packets, want %d", qpn, n, 16)
		}
	}
}

func TestManyInflightMessages(t *testing.T) {
	cfg := smallCfg()
	p := newTestPair(t, cfg, fabric.Config{Latency: 100 * time.Microsecond}, fabric.Config{})
	const inflight = 16
	const size = 8 << 10
	mr := p.B.Ctx.RegMR(make([]byte, inflight*size))
	handles := make([]*RecvHandle, inflight)
	for i := range handles {
		var err error
		handles[i], err = p.B.QP.RecvPost(mr, uint64(i*size), size)
		if err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			data := make([]byte, size)
			fillPattern(data, byte(i))
			_, err := p.A.QP.SendPost(data, uint32(i))
			done <- err
		}(i)
	}
	for i := 0; i < inflight; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Note: concurrent SendPost goroutines race for sequence numbers,
	// so message k may carry any goroutine's pattern — but each recv
	// must be complete and internally consistent.
	for _, h := range handles {
		waitDone(t, h, 5*time.Second)
	}
	for i := 0; i < inflight; i++ {
		region := mr.Bytes()[i*size : (i+1)*size]
		seed := region[0]
		want := make([]byte, size)
		fillPattern(want, seed)
		if !bytes.Equal(region, want) {
			t.Fatalf("message %d internally inconsistent", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{MTU: -1},
		{MTU: 1024, ChunkBytes: 1000},                   // not MTU multiple
		{MTU: 1024, ChunkBytes: 512},                    // smaller than MTU
		{MTU: 1024, ChunkBytes: 1024, MaxMsgBytes: 100}, // below MTU
		{MTU: 1024, ChunkBytes: 1024, MaxMsgBytes: 4096, MsgIDBits: 10, PktOffsetBits: 10},                   // bits != 32
		{MTU: 1024, ChunkBytes: 1024, MaxMsgBytes: 4096, MsgIDBits: 20, PktOffsetBits: 9, UserImmBits: 3},    // bad frag width
		{MTU: 1024, ChunkBytes: 1024, MaxMsgBytes: 1 << 20, MsgIDBits: 20, PktOffsetBits: 8, UserImmBits: 4}, // offset bits too small
	}
	for i, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
	if err := (Config{}).WithDefaults().validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestImmCodecRoundTrip(t *testing.T) {
	cfgs := []Config{
		{MsgIDBits: 10, PktOffsetBits: 18, UserImmBits: 4},
		{MsgIDBits: 8, PktOffsetBits: 22, UserImmBits: 2},
		{MsgIDBits: 1, PktOffsetBits: 27, UserImmBits: 4},
	}
	check := func(msgRaw, offRaw uint32, fragRaw uint8) bool {
		for _, c := range cfgs {
			ic := newImmCodec(c)
			msg := msgRaw & (1<<c.MsgIDBits - 1)
			off := offRaw & (1<<ic.offBits - 1)
			frag := fragRaw & (1<<ic.immBits - 1)
			gm, go_, gf := ic.decode(ic.encode(msg, off, frag))
			if gm != msg || go_ != off || gf != frag {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Randomized loss: the bitmap must report exactly the chunks whose
// packets all arrived, for arbitrary loss patterns.
func TestBitmapMatchesLossPattern(t *testing.T) {
	cfg := smallCfg()
	ic := newImmCodec(cfg)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		p := newTestPair(t, cfg, fabric.Config{}, fabric.Config{})
		droppedPkts := map[uint32]bool{}
		for i := 0; i < 64; i++ {
			if rng.Float64() < 0.2 {
				droppedPkts[uint32(i)] = true
			}
		}
		p.Link.AB.SetInterceptor(func(pkt *nicsim.Packet) fabric.Verdict {
			if pkt.HasImm {
				if _, off, _ := ic.decode(pkt.Imm); droppedPkts[off] {
					return fabric.Drop
				}
			}
			return fabric.Pass
		})
		mr := p.B.Ctx.RegMR(make([]byte, 64<<10))
		h, err := p.B.QP.RecvPost(mr, 0, 64<<10) // 64 packets, 16 chunks
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.A.QP.SendPost(make([]byte, 64<<10), 0); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		bm := h.Bitmap()
		for chunk := 0; chunk < 16; chunk++ {
			wantComplete := true
			for pkt := chunk * 4; pkt < (chunk+1)*4; pkt++ {
				if droppedPkts[uint32(pkt)] {
					wantComplete = false
				}
			}
			if bm.Test(chunk) != wantComplete {
				t.Fatalf("trial %d chunk %d: bitmap=%v want=%v",
					trial, chunk, bm.Test(chunk), wantComplete)
			}
		}
	}
}

// Table 1 API surface: every call from the paper's API table exists.
func TestTable1APISurface(t *testing.T) {
	p := newTestPair(t, smallCfg(), fabric.Config{}, fabric.Config{})
	// context_create / qp_create / qp_info_get / qp_connect / mr_reg
	// exercised by NewPair; the data-path calls:
	mr := p.B.Ctx.RegMR(make([]byte, 8<<10)) // mr_reg
	h, err := p.B.QP.RecvPost(mr, 0, 8<<10)  // recv_post
	if err != nil {
		t.Fatal(err)
	}
	_ = h.Bitmap() // recv_bitmap_get

	st, err := p.A.QP.SendStreamStart(8<<10, 0x1234) // send_stream_start
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8<<10)
	if err := st.Continue(0, data); err != nil { // send_stream_continue
		t.Fatal(err)
	}
	if err := st.End(); err != nil { // send_stream_end
		t.Fatal(err)
	}
	waitDone(t, h, time.Second)
	if _, err := h.Imm(); err != nil { // recv_imm_get
		t.Fatal(err)
	}
	if err := h.Complete(); err != nil { // recv_complete
		t.Fatal(err)
	}

	mr2 := p.B.Ctx.RegMR(make([]byte, 4096))
	if _, err := p.B.QP.RecvPost(mr2, 0, 4096); err != nil {
		t.Fatal(err)
	}
	sh, err := p.A.QP.SendPost(make([]byte, 4096), 0) // send_post
	if err != nil {
		t.Fatal(err)
	}
	if !sh.Poll() { // send_poll
		t.Fatal("Poll reported incomplete")
	}
	_ = p.A.QP.Info() // qp_info_get
}
