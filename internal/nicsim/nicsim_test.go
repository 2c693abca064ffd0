package nicsim

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// directWire delivers synchronously with optional per-packet filtering
// and buffering for manual reordering.
type directWire struct {
	dst    *Device
	filter func(*Packet) bool // false = drop
	mu     sync.Mutex
	buffer []*Packet
	hold   bool
}

func (w *directWire) Send(pkt *Packet) {
	if w.filter != nil && !w.filter(pkt) {
		return
	}
	w.mu.Lock()
	if w.hold {
		w.buffer = append(w.buffer, pkt)
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	w.dst.Deliver(pkt)
}

// flush delivers buffered packets in the given order (nil = stored order).
func (w *directWire) flush(order []int) {
	w.mu.Lock()
	buf := w.buffer
	w.buffer = nil
	w.hold = false
	w.mu.Unlock()
	if order == nil {
		for _, p := range buf {
			w.dst.Deliver(p)
		}
		return
	}
	for _, i := range order {
		w.dst.Deliver(buf[i])
	}
}

func drainCQ(cq *CQ) []CQE {
	var out []CQE
	var buf [64]CQE
	for {
		n := cq.Poll(buf[:])
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func TestMRDMAWriteBounds(t *testing.T) {
	dev := NewDevice("d")
	mr := dev.RegMR(make([]byte, 100))
	if err := mr.DMAWrite(90, make([]byte, 10)); err != nil {
		t.Fatalf("in-bounds write failed: %v", err)
	}
	if err := mr.DMAWrite(91, make([]byte, 10)); err == nil {
		t.Fatal("out-of-bounds write succeeded")
	}
}

func TestNullMRDiscards(t *testing.T) {
	dev := NewDevice("d")
	null := dev.AllocNullMR()
	if err := null.DMAWrite(1<<40, make([]byte, 4096)); err != nil {
		t.Fatalf("null write failed: %v", err)
	}
	if got := null.Discarded.Load(); got != 4096 {
		t.Fatalf("Discarded = %d, want 4096", got)
	}
}

func TestIndirectMRTranslation(t *testing.T) {
	dev := NewDevice("d")
	bufA := make([]byte, 64)
	bufB := make([]byte, 64)
	mrA, mrB := dev.RegMR(bufA), dev.RegMR(bufB)
	ix := dev.AllocIndirectMR(4, 64, nil)

	ix.SetEntry(0, mrA, 0)
	ix.SetEntry(2, mrB, 16) // message 2 lands 16 bytes into bufB

	if err := ix.DMAWrite(10, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA[10:15], []byte("hello")) {
		t.Fatal("entry-0 write landed wrong")
	}
	if err := ix.DMAWrite(2*64+4, []byte("world")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufB[20:25], []byte("world")) {
		t.Fatal("entry-2 write missed base offset")
	}
	// unpopulated entry
	if err := ix.DMAWrite(1*64, []byte("x")); err == nil {
		t.Fatal("write to unpopulated indirect entry succeeded")
	}
	// out of table
	if err := ix.DMAWrite(4*64, []byte("x")); err == nil {
		t.Fatal("write beyond indirect table succeeded")
	}
	// crossing an entry boundary
	if err := ix.DMAWrite(60, []byte("12345678")); err == nil {
		t.Fatal("write crossing entry boundary succeeded")
	}
}

// TestIndirectMRUnsetTarget: with an unset target, a write to an entry
// that was never set and one to an entry cleared with SetEntry(i, nil)
// both land in that target, at their within-entry offset, and a set
// entry still goes to its own target.
// A Table's storage follows the highest entry ever set: it starts
// empty, a nil stored past its end allocates nothing, growth doubles
// and keeps every entry (cleared ones stay cleared), and every index
// past the storage reads nil.
func TestTableGrowsOnStore(t *testing.T) {
	var tb Table[int]
	vals := make([]int, 100)
	tb.Store(50, nil)
	if tb.cells.Load() != nil {
		t.Fatal("storing nil past the end allocated storage")
	}
	for i := 0; i < len(vals); i += 3 {
		tb.Store(i, &vals[i])
	}
	tb.Store(30, nil)
	if n := len(*tb.cells.Load()); n != 128 {
		t.Fatalf("storage of %d cells after a store at 99, want 128", n)
	}
	for i := 0; i < 2*len(vals); i++ {
		var want *int
		if i < len(vals) && i%3 == 0 && i != 30 {
			want = &vals[i]
		}
		if got := tb.Load(i); got != want {
			t.Fatalf("entry %d = %p, want %p", i, got, want)
		}
	}
}

func TestIndirectMRUnsetTarget(t *testing.T) {
	dev := NewDevice("d")
	unset := make([]byte, 64)
	unsetMR := dev.RegMR(unset)
	buf := make([]byte, 64)
	mr := dev.RegMR(buf)
	ix := dev.AllocIndirectMR(4, 64, unsetMR)

	if err := ix.DMAWrite(3*64+8, []byte("never")); err != nil {
		t.Fatalf("never-set entry: %v", err)
	}
	if !bytes.Equal(unset[8:13], []byte("never")) {
		t.Fatalf("never-set entry write missed the unset target: %q", unset[:16])
	}
	ix.SetEntry(1, mr, 0)
	if err := ix.DMAWrite(1*64+4, []byte("set")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[4:7], []byte("set")) || !bytes.Equal(unset[4:7], make([]byte, 3)) {
		t.Fatal("set entry write did not land in its own target only")
	}
	ix.SetEntry(1, nil, 0)
	if err := ix.DMAWrite(1*64+20, []byte("cleared")); err != nil {
		t.Fatalf("cleared entry: %v", err)
	}
	if !bytes.Equal(unset[20:27], []byte("cleared")) || !bytes.Equal(buf[20:27], make([]byte, 7)) {
		t.Fatal("cleared entry write did not land in the unset target")
	}

	null := dev.AllocNullMR()
	nix := dev.AllocIndirectMR(2, 64, null)
	for i, off := range []uint64{0, 64 + 32} {
		if err := nix.DMAWrite(off, make([]byte, 32)); err != nil {
			t.Fatalf("write %d into NULL-backed table: %v", i, err)
		}
	}
	if got := null.Discarded.Load(); got != 64 {
		t.Fatalf("NULL key absorbed %d B, want 64", got)
	}
}

func ucPair(t *testing.T, mtu int) (*Device, *Device, *UCQP, *UCQP, *CQ, *directWire, *directWire) {
	t.Helper()
	devA, devB := NewDevice("a"), NewDevice("b")
	cqB := NewCQ(1024, false)
	cqA := NewCQ(1024, false)
	qpA := NewUCQP(devA, mtu, cqA, nil)
	qpB := NewUCQP(devB, mtu, cqB, nil)
	wAB := &directWire{dst: devB}
	wBA := &directWire{dst: devA}
	qpA.Connect(wAB, qpB.QPN())
	qpB.Connect(wBA, qpA.QPN())
	return devA, devB, qpA, qpB, cqB, wAB, wBA
}

func TestUCWriteImmDelivers(t *testing.T) {
	_, devB, qpA, _, cqB, _, _ := ucPair(t, 16)
	buf := make([]byte, 100)
	mr := devB.RegMR(buf)

	payload := []byte("0123456789abcdefBITS")
	n := qpA.WriteImm(mr.Key(), 5, payload, 0xCAFE, 1)
	if n != 2 {
		t.Fatalf("packets = %d, want 2 (20 B at MTU 16)", n)
	}
	if !bytes.Equal(buf[5:25], payload) {
		t.Fatal("payload not written")
	}
	cqes := drainCQ(cqB)
	if len(cqes) != 1 {
		t.Fatalf("CQEs = %d, want 1", len(cqes))
	}
	if cqes[0].Imm != 0xCAFE || !cqes[0].HasImm || cqes[0].ByteLen != 20 {
		t.Fatalf("bad CQE: %+v", cqes[0])
	}
}

// §2.3: a multi-packet UC message with one dropped fragment is lost
// wholesale — no CQE, later fragments discarded.
func TestUCMultiPacketLossKillsMessage(t *testing.T) {
	_, devB, qpA, qpB, cqB, wAB, _ := ucPair(t, 4)
	mr := devB.RegMR(make([]byte, 64))

	drop := 1 // drop second fragment
	i := 0
	wAB.filter = func(p *Packet) bool {
		keep := i != drop
		i++
		return keep
	}
	qpA.WriteImm(mr.Key(), 0, []byte("aaaabbbbccccdddd"), 7, 1)
	if got := len(drainCQ(cqB)); got != 0 {
		t.Fatalf("CQEs after mid-message drop = %d, want 0", got)
	}
	if qpB.MsgsKilled.Load() == 0 {
		t.Fatal("MsgsKilled not incremented")
	}
	// The next complete message resynchronizes and delivers.
	wAB.filter = nil
	qpA.WriteImm(mr.Key(), 0, []byte("eeeeffffgggghhhh"), 8, 2)
	cqes := drainCQ(cqB)
	if len(cqes) != 1 || cqes[0].Imm != 8 {
		t.Fatalf("resync message not delivered: %v", cqes)
	}
}

// §2.3/§3.2.1: reordering two multi-packet messages kills them, but
// single-packet messages (SDR's per-packet writes) all survive.
func TestUCReorderMultiVsSinglePacket(t *testing.T) {
	_, devB, qpA, _, cqB, wAB, _ := ucPair(t, 4)
	mr := devB.RegMR(make([]byte, 64))

	// Multi-packet: hold, deliver interleaved (A1 B1 A2 B2).
	wAB.hold = true
	qpA.WriteImm(mr.Key(), 0, []byte("aaaabbbb"), 1, 1)  // pkts 0,1
	qpA.WriteImm(mr.Key(), 16, []byte("ccccdddd"), 2, 2) // pkts 2,3
	wAB.flush([]int{0, 2, 1, 3})
	if got := len(drainCQ(cqB)); got != 0 {
		t.Fatalf("interleaved multi-packet messages delivered %d CQEs, want 0", got)
	}

	// Single-packet writes in fully reversed order: all delivered.
	wAB.hold = true
	for i := 0; i < 8; i++ {
		qpA.WriteImm(mr.Key(), uint64(4*i), []byte("xxxx"), uint32(100+i), uint64(10+i))
	}
	wAB.flush([]int{7, 6, 5, 4, 3, 2, 1, 0})
	cqes := drainCQ(cqB)
	if len(cqes) != 8 {
		t.Fatalf("reordered single-packet writes delivered %d CQEs, want 8", len(cqes))
	}
}

func TestUCZeroLengthWrite(t *testing.T) {
	_, devB, qpA, _, cqB, _, _ := ucPair(t, 4)
	mr := devB.RegMR(make([]byte, 8))
	n := qpA.WriteImm(mr.Key(), 0, nil, 42, 1)
	if n != 1 {
		t.Fatalf("zero-length write used %d packets, want 1", n)
	}
	cqes := drainCQ(cqB)
	if len(cqes) != 1 || cqes[0].Imm != 42 || cqes[0].ByteLen != 0 {
		t.Fatalf("zero-length CQE wrong: %v", cqes)
	}
}

func TestUCDMAErrorAborts(t *testing.T) {
	_, devB, qpA, qpB, cqB, _, _ := ucPair(t, 4)
	mr := devB.RegMR(make([]byte, 4))
	qpA.WriteImm(mr.Key(), 0, []byte("aaaabbbb"), 1, 1) // 8 B into 4 B MR
	if got := len(drainCQ(cqB)); got != 0 {
		t.Fatalf("oversized write delivered CQE")
	}
	if qpB.DMAErrors.Load() == 0 {
		t.Fatal("DMAErrors not counted")
	}
}

func TestUDSendRecv(t *testing.T) {
	devA, devB := NewDevice("a"), NewDevice("b")
	cqB := NewCQ(64, false)
	udA := NewUDQP(devA, 4096, NewCQ(64, false))
	udB := NewUDQP(devB, 4096, cqB)
	udA.Attach(&directWire{dst: devB})

	// no recv posted: RNR drop
	if err := udA.Send(udB.QPN(), []byte("lost"), 0, false); err != nil {
		t.Fatal(err)
	}
	if udB.RNRDrops.Load() != 1 {
		t.Fatalf("RNRDrops = %d, want 1", udB.RNRDrops.Load())
	}

	buf := make([]byte, 16)
	udB.PostRecv(buf, 77)
	if err := udA.Send(udB.QPN(), []byte("ping"), 5, true); err != nil {
		t.Fatal(err)
	}
	cqes := drainCQ(cqB)
	if len(cqes) != 1 || cqes[0].WRID != 77 || cqes[0].Imm != 5 || cqes[0].ByteLen != 4 {
		t.Fatalf("UD CQE wrong: %v", cqes)
	}
	if !bytes.Equal(buf[:4], []byte("ping")) {
		t.Fatal("UD payload not copied")
	}

	// oversized payload rejected
	if err := udA.Send(udB.QPN(), make([]byte, 5000), 0, false); err == nil {
		t.Fatal("oversized UD send accepted")
	}
}

// The posted-receive list is a FIFO ring. A consumer that reposts
// each buffer as its datagram lands — the reliability control plane's
// CQ sink — cycles through it without allocating, and buffers land in
// the order they were posted.
func TestUDRecvRingRepostAllocsNothing(t *testing.T) {
	const ring = 16
	cq := NewCQ(64, false)
	qp := NewUDQP(NewDevice("d"), 64, cq)
	pkt := &Packet{Opcode: OpSend, Payload: []byte("ping")}

	qp.recvPacket(pkt) // no recv posted: RNR drop
	if qp.RNRDrops.Load() != 1 {
		t.Fatalf("RNRDrops = %d, want 1", qp.RNRDrops.Load())
	}
	bufs := make([][]byte, ring)
	for i := range bufs {
		bufs[i] = make([]byte, 64)
		qp.PostRecv(bufs[i], uint64(i))
	}
	var landed, misordered uint64
	cq.SetSink(func(cqes []CQE) {
		for _, c := range cqes {
			if c.WRID != landed%ring || c.ByteLen != 4 {
				misordered++
			}
			landed++
			qp.PostRecv(bufs[c.WRID], c.WRID)
		}
	}, true)
	allocs := testing.AllocsPerRun(4, func() {
		for range 3 * ring {
			qp.recvPacket(pkt)
		}
	})
	if allocs != 0 {
		t.Fatalf("land + repost allocates %.1f per %d datagrams, want 0", allocs, 3*ring)
	}
	if want := uint64(5 * 3 * ring); landed != want || misordered != 0 || qp.RNRDrops.Load() != 1 {
		t.Fatalf("landed %d (want %d), %d out of post order, RNRDrops %d (want 1)",
			landed, want, misordered, qp.RNRDrops.Load())
	}
	for i, b := range bufs {
		if !bytes.Equal(b[:4], []byte("ping")) {
			t.Fatalf("buffer %d never filled", i)
		}
	}
}

// Growing the ring while its head has wrapped keeps post order.
func TestUDRecvRingGrowsInPostOrder(t *testing.T) {
	cq := NewCQ(256, false)
	qp := NewUDQP(NewDevice("d"), 64, cq)
	pkt := &Packet{Opcode: OpSend, Payload: []byte("x")}
	buf := make([]byte, 8)
	next := uint64(0)
	post := func(n int) {
		for range n {
			qp.PostRecv(buf, next)
			next++
		}
	}
	post(12)
	for range 10 {
		qp.recvPacket(pkt)
	}
	post(40) // wraps the 16-entry ring, then grows it twice
	for range 42 {
		qp.recvPacket(pkt)
	}
	qp.recvPacket(pkt) // ring empty again: RNR drop
	cqes := drainCQ(cq)
	if len(cqes) != 52 || qp.RNRDrops.Load() != 1 {
		t.Fatalf("%d CQEs, RNRDrops %d; want 52, 1", len(cqes), qp.RNRDrops.Load())
	}
	for i, c := range cqes {
		if c.WRID != uint64(i) {
			t.Fatalf("landing %d took WRID %d: not post order", i, c.WRID)
		}
	}
}

func TestDeviceUnknownQP(t *testing.T) {
	dev := NewDevice("d")
	dev.Deliver(&Packet{DstQPN: 999})
	if dev.RxDropNoQP.Load() != 1 {
		t.Fatal("unknown-QP packet not counted")
	}
}

func TestCQOverrunSemantics(t *testing.T) {
	cq := NewCQ(2, true)
	for i := 0; i < 5; i++ {
		cq.Push(CQE{Imm: uint32(i)})
	}
	if got := cq.Dropped.Load(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	var buf [8]CQE
	if n := cq.Poll(buf[:]); n != 2 {
		t.Fatalf("Poll = %d, want 2", n)
	}
}

func TestCQWaitClose(t *testing.T) {
	cq := NewCQ(4, false)
	done := make(chan bool)
	go func() { done <- cq.Wait() }()
	cq.Push(CQE{})
	if !<-done {
		t.Fatal("Wait returned false with pending CQE")
	}
	drainCQ(cq)
	go func() { done <- cq.Wait() }()
	cq.Close()
	if <-done {
		t.Fatal("Wait returned true after close+drain")
	}
}

// Regression for the uint64-wrap hole in DMAWrite bounds checks:
// offsets near 2^64 wrapped offset+len past zero and admitted writes
// outside the region.
func TestDMAWriteOffsetOverflowRejected(t *testing.T) {
	dev := NewDevice("wrap")
	mr := dev.RegMR(make([]byte, 100))
	for _, offset := range []uint64{^uint64(0), ^uint64(0) - 5, ^uint64(0) - 99} {
		if err := mr.DMAWrite(offset, make([]byte, 10)); err == nil {
			t.Fatalf("DMAWrite(offset=%d) accepted a wrapped out-of-bounds range", offset)
		}
	}
	if err := mr.DMAWrite(90, make([]byte, 10)); err != nil {
		t.Fatalf("valid tail write rejected: %v", err)
	}
}

// The memory table reuses the slots of deregistered regions, yet a
// deregistered key must never resolve again — a stale RC write still
// aimed at it would otherwise land in the slot's next tenant. Over
// 10 000 register/deregister cycles around a resident working set,
// every key ever retired keeps missing (including after its slot's
// generations wrap and the slot is withdrawn), every live key resolves
// to its own region, and the table stays as small as the peak of live
// registrations.
func TestMemTableDeregisteredKeyNeverResolves(t *testing.T) {
	const cycles, resident, perCycle = 10000, 5, 3
	d := NewDevice("t")
	var residents []*MR
	for i := 0; i < resident; i++ {
		residents = append(residents, d.RegMR(make([]byte, 8)))
	}
	peak := resident + perCycle
	seen := map[uint32]bool{}
	for _, mr := range residents {
		seen[mr.Key()] = true
	}
	var dead []uint32
	for c := 0; c < cycles; c++ {
		var lease []*MR
		for i := 0; i < perCycle; i++ {
			mr := d.RegMR(make([]byte, 8))
			if mr.Key() == 0 || seen[mr.Key()] {
				t.Fatalf("cycle %d: key %#x handed out twice (or zero)", c, mr.Key())
			}
			seen[mr.Key()] = true
			lease = append(lease, mr)
		}
		for _, mr := range append(lease, residents...) {
			got, ok := d.mem.lookup(mr.Key())
			if !ok || got != MemoryTarget(mr) {
				t.Fatalf("cycle %d: live key %#x resolves to %v (ok=%v)", c, mr.Key(), got, ok)
			}
		}
		for _, mr := range lease {
			d.DeregMR(mr.Key())
			d.DeregMR(mr.Key()) // double deregister is a no-op
			dead = append(dead, mr.Key())
		}
		if d.NumMRs() != resident {
			t.Fatalf("cycle %d: %d live registrations, want %d", c, d.NumMRs(), resident)
		}
		// Probe a sample of the graveyard every cycle, all of it at the end.
		for i := c % 97; i < len(dead); i += 97 {
			if _, ok := d.mem.lookup(dead[i]); ok {
				t.Fatalf("cycle %d: deregistered key %#x resolves again", c, dead[i])
			}
		}
	}
	for _, key := range dead {
		if err := d.dmaWrite(key, 0, []byte{1}); !errors.Is(err, errMkeyViolation) {
			t.Fatalf("write through deregistered key %#x: %v", key, err)
		}
	}
	// Each slot serves memMaxGen+1 registrations before it is withdrawn.
	withdrawn := cycles*perCycle/(memMaxGen+1) + 1
	if used := len(d.mem.gens) - 1; used > peak+withdrawn {
		t.Fatalf("table handed out %d slots for a peak of %d live registrations", used, peak)
	}
	if n := len(*d.mem.slots.cells.Load()); n > 2*(peak+withdrawn+1) {
		t.Fatalf("table holds %d slots for a peak of %d live registrations", n, peak)
	}
}

// Lookups are lock-free against register/deregister, including across
// the table's growth: writers churn registrations (pushing the table
// through several doublings) while readers look up a resident key,
// which must resolve every time, and a key already retired,
// which must miss every time. Run under -race.
func TestMemTableConcurrentChurn(t *testing.T) {
	d := NewDevice("t")
	resident := d.RegMR(make([]byte, 8))
	retired := d.RegMR(make([]byte, 8))
	d.DeregMR(retired.Key())

	const writers, readers, rounds = 4, 4, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, ok := d.mem.lookup(resident.Key()); !ok || got != MemoryTarget(resident) {
					t.Errorf("resident key resolves to %v (ok=%v)", got, ok)
					return
				}
				if _, ok := d.mem.lookup(retired.Key()); ok {
					t.Error("retired key resolved")
					return
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			var held []*MR
			for i := 0; i < rounds; i++ {
				mr := d.RegMR(make([]byte, 8))
				if err := d.dmaWrite(mr.Key(), 0, []byte{2}); err != nil {
					t.Errorf("fresh key missed: %v", err)
					return
				}
				held = append(held, mr)
				if len(held) > 8+w*8 { // staggered working sets force growth
					d.DeregMR(held[0].Key())
					if err := d.dmaWrite(held[0].Key(), 0, []byte{3}); err == nil {
						t.Error("deregistered key resolved")
						return
					}
					held = held[1:]
				}
			}
			for _, mr := range held {
				d.DeregMR(mr.Key())
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if n := d.NumMRs(); n != 1 {
		t.Fatalf("%d registrations left, want the resident one", n)
	}
}

// The QP table grows in place while packets are delivered: one
// goroutine keeps writing to an existing QP of a real (non-serial)
// device while another creates QPs on the same device, pushing the
// table through several doublings, and destroys every other one. Every
// write must complete, every new QP must get the next QPN, and the
// table must end up holding exactly the QPs left alive. Run under
// -race.
func TestQPTableGrowsUnderDelivery(t *testing.T) {
	_, devB, qpA, qpB, cqB, _, _ := ucPair(t, 64)
	mr := devB.RegMR(make([]byte, 64))

	const writes, creates = 2000, 300
	created := make([]*UCQP, creates)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range created {
			qp := NewUCQP(devB, 64, NewCQ(4, false), nil)
			if want := qpB.QPN() + uint32(i) + 1; qp.QPN() != want {
				t.Errorf("QP %d got QPN %d, want %d", i, qp.QPN(), want)
				return
			}
			created[i] = qp
			if i%2 == 1 {
				devB.DestroyQP(qp.QPN())
			}
		}
	}()
	for i := 0; i < writes; i++ {
		qpA.WriteImm(mr.Key(), 0, []byte("payload"), uint32(i), uint64(i))
		if cqes := drainCQ(cqB); len(cqes) != 1 || cqes[0].Imm != uint32(i) {
			t.Fatalf("write %d to the existing QP: CQEs %+v", i, cqes)
		}
	}
	wg.Wait()
	last := qpB.QPN() + creates
	if got := devB.lastQPN.Load(); got != last {
		t.Fatalf("last QPN %d, want %d", got, last)
	}
	if slot := devB.qps.Load(int(last) + 1); slot != nil {
		t.Fatalf("slot past the last QPN holds %v", slot.sink)
	}
	for i, qp := range created {
		if qp == nil {
			t.FailNow() // the creator already reported why
		}
		want := packetSink(qp)
		if i%2 == 1 {
			want = nil
		}
		var got packetSink
		if slot := devB.qps.Load(int(qp.QPN())); slot != nil {
			got = slot.sink
		}
		if got != want {
			t.Fatalf("slot %d holds %v, want %v", qp.QPN(), got, want)
		}
	}
	if got := devB.RxDropNoQP.Load(); got != 0 {
		t.Fatalf("%d packets missed the table", got)
	}
}
