package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"sdrrdma/internal/clock"
	"sdrrdma/internal/fabric"
)

// The alternative 8+22+2 immediate split (§3.2.4: "Alternative splits,
// such as 8+22+2, can be used to support larger messages") must work
// end to end.
func TestAlternativeImmSplit(t *testing.T) {
	cfg := Config{
		MTU: 1024, ChunkBytes: 4096, MaxMsgBytes: 2 << 20,
		MsgIDBits: 8, PktOffsetBits: 22, UserImmBits: 2,
		Generations: 2, Channels: 2,
	}
	p := newTestPair(t, cfg, fabric.Config{}, fabric.Config{})
	const size = 1 << 20
	mr := p.B.Ctx.RegMR(make([]byte, size))
	h, err := p.B.QP.RecvPost(mr, 0, size)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	fillPattern(data, 17)
	const userImm = 0x9ABCDEF1
	if _, err := p.A.QP.SendPost(data, userImm); err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, time.Second)
	if !bytes.Equal(mr.Bytes(), data) {
		t.Fatal("payload corrupted under 8+22+2 split")
	}
	imm, err := h.Imm()
	if err != nil {
		t.Fatal(err)
	}
	if imm != userImm {
		t.Fatalf("imm = %#x, want %#x (2-bit fragments × 16 packets)", imm, userImm)
	}
	// slots shrink to 256 with 8-bit message IDs
	if got := cfg.WithDefaults().slots(); got != 256 {
		t.Fatalf("Slots = %d, want 256", got)
	}
}

// A split with no user-imm bits must still move data; Imm reports
// not-ready.
func TestNoUserImmBits(t *testing.T) {
	cfg := Config{
		MTU: 1024, ChunkBytes: 1024, MaxMsgBytes: 64 << 10,
		MsgIDBits: 10, PktOffsetBits: 22, UserImmBits: 0,
		Generations: 1, Channels: 1,
	}
	p := newTestPair(t, cfg, fabric.Config{}, fabric.Config{})
	mr := p.B.Ctx.RegMR(make([]byte, 8<<10))
	h, err := p.B.QP.RecvPost(mr, 0, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8<<10)
	fillPattern(data, 3)
	if _, err := p.A.QP.SendPost(data, 0xFFFF); err != nil {
		t.Fatal(err)
	}
	waitDone(t, h, time.Second)
	if !bytes.Equal(mr.Bytes(), data) {
		t.Fatal("payload corrupted with 0 imm bits")
	}
	if _, err := h.Imm(); err == nil {
		t.Fatal("Imm succeeded despite no user-imm bits in the split")
	}
}

// Everything at once: reordering + duplication + latency, many
// sequential messages through slot wraparound — on the virtual clock,
// where late and duplicated deliveries are discrete events serialized
// with the test body instead of timer goroutines racing the
// verification reads (racy by design before).
func TestCombinedImpairmentsStress(t *testing.T) {
	vc := clock.NewVirtual()
	cfg := Config{
		MTU: 1024, ChunkBytes: 2048, MaxMsgBytes: 64 << 10,
		MsgIDBits: 3, PktOffsetBits: 25, UserImmBits: 4, // 8 slots → wraps
		Generations: 4, Channels: 4,
		Clock: vc,
	}
	p, f := newScriptedPair(t, cfg, fabric.Config{Latency: 200 * time.Microsecond}, 20, 5, 1200*time.Microsecond)
	mr := p.B.Ctx.RegMR(make([]byte, 64<<10))
	const msgs = 40 // 5 full slot wraps through all generations
	clock.Join(vc, func() {
		for i := 0; i < msgs; i++ {
			size := 4<<10 + (i%4)*8<<10
			h, err := p.B.QP.RecvPost(mr, 0, size)
			if err != nil {
				t.Errorf("msg %d: %v", i, err)
				return
			}
			data := make([]byte, size)
			fillPattern(data, byte(i))
			if _, err := p.A.QP.SendPost(data, uint32(i)); err != nil {
				t.Errorf("msg %d: %v", i, err)
				return
			}
			if !waitVirtual(vc, h, 5*time.Second) {
				t.Errorf("msg %d incomplete: %d/%d chunks",
					i, h.Bitmap().Count(), h.Bitmap().Len())
				return
			}
			if !bytes.Equal(mr.Bytes()[:size], data) {
				t.Errorf("msg %d corrupted", i)
				return
			}
			if err := h.Complete(); err != nil {
				t.Errorf("msg %d: %v", i, err)
				return
			}
		}
	})
	if p.B.QP.Stats().Duplicates == 0 {
		t.Fatal("stress run produced no duplicates despite 5% duplication")
	}
	sent := int(p.A.QP.Stats().PacketsSent)
	if f.dups == 0 || f.delivered != sent+f.dups || f.released != f.holds || f.inversions == 0 {
		t.Fatalf("sent %d, duplicated %d, landed %d, held %d, released %d, inversions %d",
			sent, f.dups, f.delivered, f.holds, f.released, f.inversions)
	}
}

// Two QPs on the same pair of devices must not interfere: each has its
// own channel QPs, slots and root keys.
func TestTwoQPsIndependent(t *testing.T) {
	cfg := smallCfg()
	p := newTestPair(t, cfg, fabric.Config{}, fabric.Config{})
	// second QP pair on the same devices/link
	qpA2 := p.A.Ctx.NewQP()
	qpB2 := p.B.Ctx.NewQP()
	oob2 := fabric.NewOOB(nil, 0)
	if err := qpA2.Connect(p.Link.AB, oob2, true, qpB2.Info()); err != nil {
		t.Fatal(err)
	}
	if err := qpB2.Connect(p.Link.BA, oob2, false, qpA2.Info()); err != nil {
		t.Fatal(err)
	}
	defer qpA2.close()
	defer qpB2.close()

	mr1 := p.B.Ctx.RegMR(make([]byte, 8<<10))
	mr2 := p.B.Ctx.RegMR(make([]byte, 8<<10))
	h1, err := p.B.QP.RecvPost(mr1, 0, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := qpB2.RecvPost(mr2, 0, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	d1 := make([]byte, 8<<10)
	d2 := make([]byte, 8<<10)
	fillPattern(d1, 1)
	fillPattern(d2, 2)
	if _, err := p.A.QP.SendPost(d1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := qpA2.SendPost(d2, 0); err != nil {
		t.Fatal(err)
	}
	waitDone(t, h1, time.Second)
	waitDone(t, h2, time.Second)
	if !bytes.Equal(mr1.Bytes(), d1) || !bytes.Equal(mr2.Bytes(), d2) {
		t.Fatal("cross-QP interference")
	}
}

// Send on an unconnected QP must fail cleanly.
func TestUnconnectedQP(t *testing.T) {
	p := newTestPair(t, smallCfg(), fabric.Config{}, fabric.Config{})
	lone := p.A.Ctx.NewQP()
	defer lone.close()
	if _, err := lone.SendStreamStart(4096, 0); err != errNotConnected {
		t.Fatalf("SendStreamStart on unconnected QP: %v", err)
	}
	mr := p.A.Ctx.RegMR(make([]byte, 4096))
	if _, err := lone.RecvPost(mr, 0, 4096); err != errNotConnected {
		t.Fatalf("RecvPost on unconnected QP: %v", err)
	}
}

// Stream offset validation: unaligned offsets and overruns rejected.
func TestStreamOffsetValidation(t *testing.T) {
	p := newTestPair(t, smallCfg(), fabric.Config{}, fabric.Config{})
	mr := p.B.Ctx.RegMR(make([]byte, 8<<10))
	if _, err := p.B.QP.RecvPost(mr, 0, 8<<10); err != nil {
		t.Fatal(err)
	}
	st, err := p.A.QP.SendStreamStart(8<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Continue(100, make([]byte, 1024)); err == nil {
		t.Fatal("unaligned offset accepted")
	}
	if err := st.Continue(7<<10, make([]byte, 2<<10)); err == nil {
		t.Fatal("overrun accepted")
	}
	if err := st.Continue(0, make([]byte, 8<<10)); err != nil {
		t.Fatal(err)
	}
	st.End()
}

// Regression for the uint64-wrap hole in the MR range check: an offset
// near 2^64 made offset+size wrap past zero and admit an out-of-bounds
// receive targeting memory before the MR.
func TestRecvPostOffsetOverflowRejected(t *testing.T) {
	p := newTestPair(t, smallCfg(), fabric.Config{}, fabric.Config{})
	mr := p.B.Ctx.RegMR(make([]byte, 64<<10))
	for _, offset := range []uint64{^uint64(0), ^uint64(0) - 1000, ^uint64(0) - 4095} {
		if _, err := p.B.QP.RecvPost(mr, offset, 4096); err == nil {
			t.Fatalf("RecvPost(offset=%d) accepted a wrapped out-of-bounds range", offset)
		}
	}
	// Legitimate tail-of-MR posting still works.
	if _, err := p.B.QP.RecvPost(mr, 60<<10, 4096); err != nil {
		t.Fatalf("RecvPost at MR tail rejected: %v", err)
	}
}

// Regression for the int-wrap hole in SendStream.Continue: negative
// (yet MTU-aligned) offsets and offsets near MaxInt must be rejected,
// not wrapped into the announced size.
func TestStreamContinueOffsetOverflowRejected(t *testing.T) {
	p := newTestPair(t, smallCfg(), fabric.Config{}, fabric.Config{})
	mr := p.B.Ctx.RegMR(make([]byte, 64<<10))
	if _, err := p.B.QP.RecvPost(mr, 0, 16<<10); err != nil {
		t.Fatal(err)
	}
	st, err := p.A.QP.SendStreamStart(16<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.End()
	huge := (int(^uint(0)>>1) - 1023) / 1024 * 1024 // MTU-aligned, near MaxInt
	for _, offset := range []int{-1024, -1 << 40, huge} {
		if err := st.Continue(offset, make([]byte, 2048)); err == nil {
			t.Fatalf("Continue(offset=%d) accepted an out-of-range offset", offset)
		}
	}
	if err := st.Continue(0, make([]byte, 16<<10)); err != nil {
		t.Fatalf("valid Continue rejected: %v", err)
	}
}

// QP.reset retires only the receives the lease left live, not every
// root entry. The observable contract is unchanged: on a fresh QP and
// after every Reset each slot of every generation absorbs a write into
// the NULL key, and no
// write reaches a buffer the lease had posted — across wraparound (more
// postings than slots in one lease), across generations, and on a
// second lease that starts mid-table.
func TestResetRetiresEveryLiveSlot(t *testing.T) {
	cfg := Config{
		MTU: 1024, ChunkBytes: 1024, MaxMsgBytes: 4096,
		MsgIDBits: 3, PktOffsetBits: 25, UserImmBits: 4,
		Generations: 2, Channels: 1,
	}
	p := newTestPair(t, cfg, fabric.Config{}, fabric.Config{})
	qp := p.B.QP
	slots := cfg.slots()
	recvBuf := make([]byte, slots*cfg.MaxMsgBytes)
	mr := p.B.Ctx.RegMR(recvBuf)
	post := func(n int) []*RecvHandle {
		t.Helper()
		hs := make([]*RecvHandle, n)
		for i := range hs {
			h, err := qp.RecvPost(mr, uint64(i%slots)*uint64(cfg.MaxMsgBytes), cfg.MaxMsgBytes)
			if err != nil {
				t.Fatalf("post %d: %v", i, err)
			}
			hs[i] = h
		}
		return hs
	}

	// A fresh QP starts with every slot of both generations retired.
	checkRetired(t, p, recvBuf, "fresh")

	// Lease 1: k < slots receives, all left live.
	post(3)
	qp.reset()
	checkRetired(t, p, recvBuf, "lease 1")

	// Lease 2 starts at seq 3: fill the table past the generation
	// boundary, complete the first wave, post a second wave into
	// generation 1, and leave handles live in both generations.
	first := post(slots)
	for _, h := range first[:slots-2] {
		if err := h.Complete(); err != nil {
			t.Fatal(err)
		}
	}
	post(slots - 2)
	live := 0
	for i := range slots {
		if qp.slots.Load(i) != nil {
			live++
		}
	}
	if live != slots {
		t.Fatalf("lease 2 left %d live slots, want %d", live, slots)
	}
	qp.reset()
	checkRetired(t, p, recvBuf, "lease 2")
	for i := range slots {
		if qp.slots.Load(i) != nil {
			t.Fatalf("slot %d still holds a handle after Reset", i)
		}
	}

	// Lease 3: nothing posted — Reset must be a no-op that keeps all
	// slots retired and the table postable.
	qp.reset()
	checkRetired(t, p, recvBuf, "lease 3")
	for _, h := range post(slots) {
		if err := h.Complete(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRetired fails t unless every slot of every generation of p's B
// QP is retired: a write into each root entry lands in the NULL key,
// and none reaches recvBuf, which it clears first.
func checkRetired(t *testing.T, p *Pair, recvBuf []byte, label string) {
	t.Helper()
	qp, cfg := p.B.QP, p.B.QP.cfg
	payload := bytes.Repeat([]byte{0x5A}, cfg.MTU)
	clear(recvBuf)
	before := p.B.Ctx.nullMR.Discarded.Load()
	for g := range cfg.Generations {
		for s := range cfg.slots() {
			if err := qp.rootMRs[g].DMAWrite(uint64(s)*uint64(cfg.MaxMsgBytes), payload); err != nil {
				t.Fatalf("%s: gen %d slot %d: %v", label, g, s, err)
			}
		}
	}
	if got, want := p.B.Ctx.nullMR.Discarded.Load()-before, uint64(cfg.Generations*cfg.slots()*cfg.MTU); got != want {
		t.Fatalf("%s: NULL key absorbed %d B, want %d", label, got, want)
	}
	for i, b := range recvBuf {
		if b != 0 {
			t.Fatalf("%s: write reached the lease's MR at byte %d", label, i)
		}
	}
}

// The slot table and each root key hold storage only up to the highest
// slot a receive has reached. A packet addressed to a slot no receive
// ever reached lies past both, and must be absorbed exactly like one
// for a slot whose receive retired: its payload lands in the NULL key,
// the stage-2 check counts it late and the late sink sees its slot and
// generation.
func TestUnpostedSlotAbsorbedLikeRetired(t *testing.T) {
	vc := clock.NewVirtual()
	cfg := smallCfg()
	cfg.Clock = vc
	p := newTestPair(t, cfg, fabric.Config{}, fabric.Config{})
	qp := p.B.QP
	buf := make([]byte, cfg.MaxMsgBytes)
	h, err := qp.RecvPost(p.B.Ctx.RegMR(buf), 0, cfg.MTU)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Complete(); err != nil {
		t.Fatal(err)
	}
	var late []int
	qp.SetLateSink(func(slot int, gen uint32) { late = append(late, slot, int(gen)) })
	payload := bytes.Repeat([]byte{0x5A}, cfg.MTU)
	ic := newImmCodec(cfg)
	type absorbed struct {
		lateDiscarded, received, nullBytes uint64
		sink                               []int
	}
	inject := func(slot int) absorbed {
		t.Helper()
		const gen = 0 // slot 0's: both tables hold storage for it
		before, null := qp.Stats(), p.B.Ctx.nullMR.Discarded.Load()
		late = nil
		p.A.QP.chQPs[gen][0].WriteImm(p.A.QP.peer.RootKeys[gen],
			uint64(slot)*uint64(cfg.MaxMsgBytes), payload, ic.encode(uint32(slot), 0, 0), 0)
		clock.Join(vc, func() { vc.Sleep(time.Millisecond) })
		after := qp.Stats()
		return absorbed{after.LateDiscarded - before.LateDiscarded, after.PacketsReceived - before.PacketsReceived,
			p.B.Ctx.nullMR.Discarded.Load() - null, late}
	}
	last := cfg.slots() - 1
	retired, unposted := inject(0), inject(last)
	for _, c := range []struct {
		name string
		got  absorbed
		slot int
	}{{"retired slot 0", retired, 0}, {"unposted slot", unposted, last}} {
		if c.got.lateDiscarded != 1 || c.got.received != 0 || c.got.nullBytes != uint64(cfg.MTU) ||
			len(c.got.sink) != 2 || c.got.sink[0] != c.slot || c.got.sink[1] != 0 {
			t.Errorf("%s: late %d, received %d, NULL key %d B, late sink %v; want 1, 0, %d B, [%d 0]",
				c.name, c.got.lateDiscarded, c.got.received, c.got.nullBytes, c.got.sink, cfg.MTU, c.slot)
		}
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("an absorbed packet reached the retired buffer at byte %d", i)
		}
	}
}

// On a real clock the slot table and the root keys grow while other
// goroutines use them: one goroutine posts receives, reaching every
// slot for the first time in turn, while the fabric lands packets in
// the live ones and another goroutine completes, and so retires, the
// finished ones. Every message must arrive intact, and afterwards every
// entry of every root key must be back on the NULL key — a clear lost
// to a concurrent growth would leave a retired slot pointing at user
// memory. A fresh pair per round, since each table grows only 6 times.
// Run under -race.
func TestTablesGrowUnderDelivery(t *testing.T) {
	cfg := Config{
		MTU: 1024, ChunkBytes: 1024, MaxMsgBytes: 4096,
		MsgIDBits: 9, PktOffsetBits: 19, UserImmBits: 4,
		Generations: 2, Channels: 2,
	}
	for range 8 {
		growUnderDelivery(t, cfg)
		if t.Failed() {
			return
		}
	}
}

func growUnderDelivery(t *testing.T, cfg Config) {
	p := newTestPair(t, cfg, fabric.Config{}, fabric.Config{})
	qp := p.B.QP
	const msgs, window = 700, 24 // past one wrap of 512 slots, into generation 1
	recvBuf := make([]byte, window*cfg.MaxMsgBytes)
	mr := p.B.Ctx.RegMR(recvBuf)

	posted := make(chan *RecvHandle, window)
	free := make(chan int, window) // landing regions not in use
	for r := range window {
		free <- r
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // sender
		defer wg.Done()
		for i := range msgs {
			data := make([]byte, cfg.MaxMsgBytes)
			fillPattern(data, byte(i))
			if _, err := p.A.QP.SendPostTimeout(data, 0, 10*time.Second); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	go func() { // poster
		defer wg.Done()
		defer close(posted)
		for i := range msgs {
			r := <-free
			h, err := qp.RecvPost(mr, uint64(r*cfg.MaxMsgBytes), cfg.MaxMsgBytes)
			if err != nil {
				t.Errorf("post %d: %v", i, err)
				return
			}
			posted <- h
		}
	}()
	go func() { // completer
		defer wg.Done()
		want := make([]byte, cfg.MaxMsgBytes)
		deadline := time.Now().Add(20 * time.Second)
		for h := range posted {
			for !h.Done() && time.Now().Before(deadline) {
				time.Sleep(20 * time.Microsecond)
			}
			r := int(h.offset) / cfg.MaxMsgBytes
			fillPattern(want, byte(h.Seq()))
			if !h.Done() {
				t.Errorf("receive %d incomplete", h.Seq())
			} else if !bytes.Equal(recvBuf[h.offset:][:cfg.MaxMsgBytes], want) {
				t.Errorf("receive %d corrupted", h.Seq())
			}
			if err := h.Complete(); err != nil {
				t.Errorf("complete %d: %v", h.Seq(), err)
			}
			free <- r
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	checkRetired(t, p, recvBuf, "after the last Complete")
	for s := range cfg.slots() {
		if qp.slots.Load(s) != nil {
			t.Fatalf("slot %d still holds a handle after its Complete", s)
		}
	}
}
