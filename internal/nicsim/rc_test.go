package nicsim

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sdrrdma/internal/clock"
)

// asyncWire delivers from a goroutine per packet — asynchronously, so
// the two RC endpoints never recurse into each other's locks (data
// triggers ACK triggers completion) — but in send order, each delivery
// waiting for the one before it: the order-preserving path the sender's
// NAK filter assumes. drop, when set, decides which packets are lost.
type asyncWire struct {
	dst  *Device
	drop func(*Packet) bool
	mu   sync.Mutex
	tail chan struct{} // closed when the last accepted packet has been delivered
}

func (w *asyncWire) Send(pkt *Packet) {
	w.mu.Lock()
	if w.drop != nil && w.drop(pkt) {
		w.mu.Unlock()
		return
	}
	prev, done := w.tail, make(chan struct{})
	w.tail = done
	w.mu.Unlock()
	go func() {
		if prev != nil {
			<-prev
		}
		w.dst.Deliver(pkt)
		close(done)
	}()
}

// lossy drops packets with probability p from a seeded stream (drawn
// under the wire's lock).
func lossy(seed int64, p float64) func(*Packet) bool {
	rng := rand.New(rand.NewSource(seed))
	return func(*Packet) bool { return rng.Float64() < p }
}

// rcTestWindow is wider than anything these tests keep in flight: they
// exercise loss recovery, not pacing.
const rcTestWindow = 1 << 10

func rcPair(t *testing.T, mtu int, loss float64, rto time.Duration) (*Device, *Device, *RCQP, *RCQP, *CQ, *CQ) {
	t.Helper()
	devA, devB := NewDevice("a"), NewDevice("b")
	recvCQB := NewCQ(1<<14, false)
	sendCQA := NewCQ(1<<14, false)
	qpA := NewRCQP(devA, nil, mtu, NewCQ(16, false), sendCQA, rto, 4, rcTestWindow)
	qpB := NewRCQP(devB, nil, mtu, recvCQB, nil, rto, 4, rcTestWindow)
	qpA.Connect(&asyncWire{dst: devB, drop: lossy(1, loss)}, qpB.QPN())
	qpB.Connect(&asyncWire{dst: devA, drop: lossy(2, loss)}, qpA.QPN())
	t.Cleanup(func() { qpA.Close(); qpB.Close() })
	return devA, devB, qpA, qpB, recvCQB, sendCQA
}

func waitCQE(t *testing.T, cq *CQ, timeout time.Duration) CQE {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var buf [1]CQE
	for time.Now().Before(deadline) {
		if cq.Poll(buf[:]) == 1 {
			return buf[0]
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("timed out waiting for CQE")
	return CQE{}
}

func TestRCLosslessDelivery(t *testing.T) {
	_, devB, qpA, _, recvCQB, sendCQA := rcPair(t, 8, 0, 50*time.Millisecond)
	buf := make([]byte, 64)
	mr := devB.RegMR(buf)
	payload := []byte("reliable-connection-data")
	qpA.WriteImm(mr.Key(), 0, payload, 9, 123)

	cqe := waitCQE(t, recvCQB, time.Second)
	if cqe.Imm != 9 || cqe.ByteLen != uint32(len(payload)) {
		t.Fatalf("recv CQE wrong: %+v", cqe)
	}
	if !bytes.Equal(buf[:len(payload)], payload) {
		t.Fatal("payload corrupted")
	}
	sc := waitCQE(t, sendCQA, time.Second)
	if sc.WRID != 123 {
		t.Fatalf("send completion WRID = %d", sc.WRID)
	}
}

// RC must deliver every message intact, in order, under heavy loss —
// that is the ASIC's contract (§2.2). Go-Back-N retransmission plus
// NAKs recover everything.
func TestRCReliabilityUnderLoss(t *testing.T) {
	_, devB, qpA, qpB, recvCQB, sendCQA := rcPair(t, 8, 0.15, 5*time.Millisecond)
	const msgs = 30
	buf := make([]byte, 32*msgs)
	mr := devB.RegMR(buf)
	want := make([]byte, 0, 32*msgs)
	for i := 0; i < msgs; i++ {
		payload := bytes.Repeat([]byte{byte('A' + i%26)}, 32)
		want = append(want, payload...)
		qpA.WriteImm(mr.Key(), uint64(32*i), payload, uint32(i), uint64(i))
	}
	// Collect all receive + send completions.
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	var tmp [64]CQE
	for got < msgs && time.Now().Before(deadline) {
		got += recvCQB.Poll(tmp[:])
		time.Sleep(time.Millisecond)
	}
	if got != msgs {
		t.Fatalf("received %d/%d messages", got, msgs)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("data corrupted under loss")
	}
	sends := 0
	for sends < msgs && time.Now().Before(deadline) {
		sends += sendCQA.Poll(tmp[:])
		time.Sleep(time.Millisecond)
	}
	if sends != msgs {
		t.Fatalf("send completions %d/%d", sends, msgs)
	}
	if qpA.Retransmits.Load() == 0 {
		t.Fatal("no retransmissions under 15% loss — suspicious")
	}
	_ = qpB
}

func TestRCNakTriggersFastResend(t *testing.T) {
	// Drop exactly the first data packet; the NAK from the PSN gap
	// should trigger resend well before the (long) RTO.
	devA, devB := NewDevice("a"), NewDevice("b")
	recvCQB := NewCQ(64, false)
	qpA := NewRCQP(devA, nil, 8, NewCQ(16, false), nil, 10*time.Second, 1, rcTestWindow)
	qpB := NewRCQP(devB, nil, 8, recvCQB, nil, 10*time.Second, 1, rcTestWindow)
	defer qpA.Close()
	defer qpB.Close()

	first := true
	dropFirst := func(p *Packet) bool {
		drop := first && p.Opcode == OpWriteImm
		first = first && !drop
		return drop
	}
	qpA.Connect(&asyncWire{dst: devB, drop: dropFirst}, qpB.QPN())
	qpB.Connect(&asyncWire{dst: devA}, qpA.QPN())

	buf := make([]byte, 32)
	mr := devB.RegMR(buf)
	start := time.Now()
	qpA.WriteImm(mr.Key(), 0, []byte("0123456789abcdef"), 1, 1)
	waitCQE(t, recvCQB, 2*time.Second)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("NAK recovery took %v — fell back to RTO?", elapsed)
	}
	if qpB.NaksSent.Load() == 0 {
		t.Fatal("no NAK sent on PSN gap")
	}
}

// orderedLossyWire delivers in FIFO order on a virtual clock (equal
// latencies fire in schedule order) and drops every Nth data packet
// deterministically — the order-preserving WAN path the windowed
// sender's NAK-storm filter assumes.
type orderedLossyWire struct {
	clk   clock.Clock
	dst   *Device
	lat   time.Duration
	every int
	sends int
	drops int
}

func (w *orderedLossyWire) Send(pkt *Packet) {
	// Single-threaded by construction: every Send happens inside a
	// virtual-clock actor or engine callback.
	if pkt.Opcode == OpWriteImm || pkt.Opcode == opWrite {
		w.sends++
		if w.every > 0 && w.sends%w.every == 0 {
			w.drops++
			return
		}
	}
	w.clk.AfterFunc(w.lat, func() { w.dst.Deliver(pkt) })
}

// runWindowedRC pushes one size-byte message across the deterministic
// lossy wire through the RC harness with the given send window and
// returns (data sends, retransmits, suppressed NAKs).
func runWindowedRC(t *testing.T, window, size int) (int, uint64, uint64) {
	t.Helper()
	clk := clock.NewVirtual()
	lat := time.Millisecond
	rto := 6 * lat // 3×RTT
	devA, devB := NewDevice("wa"), NewDevice("wb")
	wAB := &orderedLossyWire{clk: clk, dst: devB, lat: lat, every: 37}
	wBA := &orderedLossyWire{clk: clk, dst: devA, lat: lat}
	rc := NewRCPair(clk, devA, devB, wAB, wBA, 4096, rto, 4, window)
	defer rc.Close()

	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	recvBuf := make([]byte, size)
	mr := devB.RegMR(recvBuf)
	clock.Join(clk, func() {
		rc.A.WriteImm(mr.Key(), 0, data, 0, 1)
		if wAB.sends != window {
			t.Errorf("window %d: %d packets in flight after post, want exactly the window", window, wAB.sends)
		}
		rc.Wait(1, rto, time.Time{})
	})
	if !bytes.Equal(recvBuf, data) {
		t.Fatal("windowed RC delivered corrupt data")
	}
	return wAB.sends, rc.A.Retransmits.Load(), rc.A.NaksSuppressed.Load()
}

// The sender (send window + one Go-Back-N restart per loss event) must
// complete lossy transfers with a bounded packet cost: without the NAK
// filter every loss multiplies into a full-tail resend cascade.
func TestRCWindowBoundsLossRecovery(t *testing.T) {
	const size = 1 << 20 // 256 packets
	ideal := size / 4096
	sends, retrans, suppressed := runWindowedRC(t, 32, size)
	if retrans == 0 {
		t.Fatal("lossy run had no retransmissions — wire not lossy?")
	}
	if suppressed == 0 {
		t.Fatal("NAK filter never engaged under windowed loss recovery")
	}
	if sends > 6*ideal {
		t.Fatalf("windowed sender injected %d packets for a %d-packet message — storm not contained", sends, ideal)
	}
}

// Determinism: the windowed virtual-clock run replays bit-identically,
// and through the harness it is the run recorded before the harness
// existed (sends, retransmits, suppressed NAKs).
func TestRCWindowDeterministic(t *testing.T) {
	s1, r1, n1 := runWindowedRC(t, 32, 1<<20)
	s2, r2, n2 := runWindowedRC(t, 32, 1<<20)
	if s1 != s2 || r1 != r2 || n1 != n2 {
		t.Fatalf("windowed RC diverged: (%d,%d,%d) vs (%d,%d,%d)", s1, r1, n1, s2, r2, n2)
	}
	if s1 != 1024 || r1 != 768 || n1 != 714 {
		t.Fatalf("windowed RC tuple (%d,%d,%d), want the recorded (1024,768,714)", s1, r1, n1)
	}
}
