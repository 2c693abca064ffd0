package collective

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"sdrrdma/internal/clock"
	"sdrrdma/internal/core"
	"sdrrdma/internal/fabric"
	"sdrrdma/internal/reliability"
)

func funcCoreCfg(clk clock.Clock) core.Config {
	return core.Config{
		MTU: 1024, ChunkBytes: 4096, MaxMsgBytes: 1 << 20,
		MsgIDBits: 10, PktOffsetBits: 18, UserImmBits: 4,
		Generations: 4, Channels: 2,
		Clock: clk,
	}
}

func funcRelCfg() reliability.Config {
	return reliability.Config{
		RTT:           2 * time.Millisecond,
		Alpha:         2,
		PollInterval:  300 * time.Microsecond,
		AckInterval:   600 * time.Microsecond,
		GlobalTimeout: 60 * time.Second,
		K:             4, M: 2, Code: "mds",
	}
}

// ctrlRecvTraffic is reliability's recvTraffic: the most control
// receive buffers outstanding at once this session, and the
// receiver-not-ready drops.
//
//go:linkname ctrlRecvTraffic sdrrdma/internal/reliability.recvTraffic
func ctrlRecvTraffic(cp *reliability.ControlPlane) (hwm int32, rnrDrops uint64)

// checkCtrlTraffic checks every link's control receive ring against the
// traffic it carried: no datagram found the ring empty, and on a
// virtual clock, whose CQ sink reposts inside the delivery event, no
// more than one buffer was outstanding at once. A real clock's
// watermark depends on how deliveries overlap, so it is only logged.
func checkCtrlTraffic(t *testing.T, sessions []*reliability.Session) {
	t.Helper()
	var most int32
	for i, s := range sessions {
		for side, cp := range []*reliability.ControlPlane{s.A.CP, s.B.CP} {
			hwm, rnr := ctrlRecvTraffic(cp)
			if rnr != 0 {
				t.Errorf("link %d side %c: %d control datagrams found no receive buffer", i, "AB"[side], rnr)
			}
			most = max(most, hwm)
		}
	}
	if sessions[0].Pair.A.Ctx.Clock().IsVirtual() {
		if most > 1 {
			t.Errorf("%d control buffers outstanding at once on a virtual clock, want ≤ 1", most)
		}
	} else {
		t.Logf("at most %d control buffers outstanding on any link", most)
	}
}

// buildRing wires a ring on clk (nil = real clock, the legacy path).
func buildRing(t *testing.T, clk clock.Clock, n int, loss float64, maxSeg int) *FunctionalRing {
	t.Helper()
	ring, err := BuildFunctionalRing(n, funcCoreCfg(clk), funcRelCfg(),
		fabric.Config{Latency: time.Millisecond, DropProb: loss, Seed: 42, Clock: clk},
		time.Millisecond, maxSeg)
	if err != nil {
		t.Fatal(err)
	}
	return ring
}

func runFunctionalAllreduce(t *testing.T, clk clock.Clock, n, vlen int, loss float64, protocol string) {
	t.Helper()
	ring := buildRing(t, clk, n, loss, vlen*8)
	defer ring.Close()

	rng := rand.New(rand.NewSource(7))
	inputs := make([][]float64, n)
	want := make([]float64, vlen)
	for i := range inputs {
		inputs[i] = make([]float64, vlen)
		for j := range inputs[i] {
			inputs[i][j] = math.Round(rng.Float64() * 1000) // exact fp sums
			want[j] += inputs[i][j]
		}
	}
	got, err := ring.Allreduce(inputs, protocol)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("allreduce[%d] = %g, want %g", j, got[j], want[j])
		}
	}
	checkCtrlTraffic(t, ring.Sessions())
}

// The real-clock smokes run under `make race` too: a receive retires
// its slots before it returns, so a retransmission still on the wire —
// a scheduler stall past the RTO, or loss — can no longer write the
// staging buffer the collective is reading.
func TestFunctionalAllreduceSRLossless(t *testing.T) {
	runFunctionalAllreduce(t, nil, 4, 4096, 0, "sr")
}

// A 4-DC ring Allreduce at 2 % loss on the real clock, every element
// checked, for the per-chunk and the coded scheme.
func TestFunctionalAllreduceLossyReal(t *testing.T) {
	for _, scheme := range []string{"sr", "ec"} {
		runFunctionalAllreduce(t, nil, 4, 4096, 0.02, scheme)
	}
}

func TestFunctionalAllreduceSRLossyVirtual(t *testing.T) {
	runFunctionalAllreduce(t, clock.NewVirtual(), 3, 3*1024, 0.05, "sr")
}

func TestFunctionalAllreduceECLossyVirtual(t *testing.T) {
	runFunctionalAllreduce(t, clock.NewVirtual(), 3, 3*1024, 0.05, "ec")
}

func TestFunctionalAllreduceTwoNodesVirtual(t *testing.T) {
	runFunctionalAllreduce(t, clock.NewVirtual(), 2, 2048, 0.02, "sr")
}

// The virtual-clock collective is a pure function of (config, seed):
// bit-identical completion time and packet counters across runs and
// GOMAXPROCS settings.
func TestFunctionalAllreduceVirtualDeterminism(t *testing.T) {
	trace := func() string {
		vc := clock.NewVirtual()
		const n, vlen = 3, 3 * 1024
		ring := buildRing(t, vc, n, 0.08, vlen*8)
		defer ring.Close()
		inputs := make([][]float64, n)
		for i := range inputs {
			inputs[i] = make([]float64, vlen)
			for j := range inputs[i] {
				inputs[i][j] = float64(i*vlen + j)
			}
		}
		if _, err := ring.Allreduce(inputs, "sr"); err != nil {
			t.Fatal(err)
		}
		var sent uint64
		for _, s := range ring.Sessions() {
			sent += s.Pair.A.QP.Stats().PacketsSent
		}
		return fmt.Sprintf("t=%v sent=%d", vc.Elapsed(), sent)
	}
	first := trace()
	prev := runtime.GOMAXPROCS(1)
	second := trace()
	runtime.GOMAXPROCS(prev)
	third := trace()
	if first != second || first != third {
		t.Fatalf("virtual collective diverged:\n%s\n%s\n%s", first, second, third)
	}
}

// A link whose session aborts mid-run fails its receiver, and the
// receiver's gate abort releases its own node's sender, which would
// otherwise wait forever for a step that never arrives: Allreduce
// returns the abort instead of stranding the Join in a virtual
// deadlock. The nodes downstream give up at their GlobalTimeout.
func TestFunctionalAllreduceAbortedLinkVirtual(t *testing.T) {
	vc := clock.NewVirtual()
	const n, vlen = 3, 3 * 1024
	relCfg := funcRelCfg()
	relCfg.GlobalTimeout = time.Second
	ring, err := BuildFunctionalRing(n, funcCoreCfg(vc), relCfg,
		fabric.Config{Latency: time.Millisecond, Seed: 42, Clock: vc}, time.Millisecond, vlen*8)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = make([]float64, vlen)
	}
	vc.At(vc.NowNanos()+int64(3*time.Millisecond), func() { ring.Sessions()[1].Abort(nil) })
	_, err = ring.Allreduce(inputs, "sr")
	if !errors.Is(err, reliability.ErrAborted) {
		t.Fatalf("Allreduce with an aborted link returned %v, want ErrAborted", err)
	}
}

func TestFunctionalAllreduceValidation(t *testing.T) {
	ring := buildRing(t, nil, 3, 0, 1<<20)
	defer ring.Close()
	if _, err := ring.Allreduce(make([][]float64, 2), "sr"); err == nil {
		t.Fatal("wrong input count accepted")
	}
	bad := [][]float64{make([]float64, 10), make([]float64, 10), make([]float64, 10)}
	if _, err := ring.Allreduce(bad, "sr"); err == nil {
		t.Fatal("vector length not divisible by N accepted")
	}
	if _, err := BuildFunctionalRing(1, funcCoreCfg(nil), funcRelCfg(), fabric.Config{}, 0, 1024); err == nil {
		t.Fatal("1-node ring accepted")
	}
	// A misspelt protocol is an error before any actor starts, not a
	// silent SR run.
	ok := [][]float64{make([]float64, 9), make([]float64, 9), make([]float64, 9)}
	if _, err := ring.Allreduce(ok, "ecc"); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf(`Allreduce(_, "ecc") = %v, want the unknown-scheme error`, err)
	}
	for _, s := range ring.Sessions() {
		if n := s.Pair.A.QP.Stats().PacketsSent; n != 0 {
			t.Fatalf("a link sent %d packets under an unknown protocol", n)
		}
	}
}

// The ring binds a protocol once: SR registers no parity scratch at
// all, EC exactly one region per link (sized from the geometry by
// reliability.NewTransfer — TestTransferSchemes checks the span), and a
// second Allreduce on the same ring registers nothing more.
func TestFunctionalRingScratchByGeometry(t *testing.T) {
	const n, vlen = 3, 3 * 1024
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = make([]float64, vlen)
	}
	for _, tc := range []struct {
		protocol string
		extra    int
	}{{"sr", 0}, {"sr-nack", 0}, {"ec", 1}} {
		ring := buildRing(t, clock.NewVirtual(), n, 0.02, vlen/n*8)
		mrs := func() (counts []int) {
			for _, s := range ring.Sessions() {
				counts = append(counts, s.Pair.B.Dev.NumMRs())
			}
			return counts
		}
		before := mrs()
		for round := 1; round <= 2; round++ {
			if _, err := ring.Allreduce(inputs, tc.protocol); err != nil {
				t.Fatalf("%s round %d: %v", tc.protocol, round, err)
			}
			for link, got := range mrs() {
				if got != before[link]+tc.extra {
					t.Fatalf("%s round %d: link %d holds %d MRs, want %d+%d", tc.protocol, round, link, got, before[link], tc.extra)
				}
			}
		}
		ring.Close()
	}
}

// --- tree broadcast -------------------------------------------------------

func buildTree(t *testing.T, clk clock.Clock, n int, loss float64, maxBytes int) *FunctionalTree {
	t.Helper()
	coreCfg := funcCoreCfg(clk)
	if coreCfg.Clock == nil {
		coreCfg.Clock = clock.NewReal()
	}
	edge := 0
	dial := func(parent, child int) (*reliability.Session, error) {
		cfg := fabric.Config{Latency: time.Millisecond, DropProb: loss,
			Seed: 42 + int64(edge)*7919, Clock: coreCfg.Clock}
		edge++
		return reliability.NewSession(coreCfg, funcRelCfg(), cfg, cfg, time.Millisecond)
	}
	tree, err := BuildFunctionalTreeWith(n, coreCfg.Clock, dial, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func runFunctionalBroadcast(t *testing.T, clk clock.Clock, n, size int, loss float64, protocol string) {
	t.Helper()
	tree := buildTree(t, clk, n, loss, size)
	defer tree.Close()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*31 + i>>7)
	}
	out, err := tree.Broadcast(data, protocol)
	if err != nil {
		t.Fatal(err)
	}
	for i, buf := range out {
		if !bytes.Equal(buf, data) {
			t.Fatalf("node %d received wrong data", i)
		}
	}
	checkCtrlTraffic(t, tree.Sessions())
}

func TestFunctionalBroadcastSRLossless(t *testing.T) {
	runFunctionalBroadcast(t, nil, 4, 64<<10, 0, "sr")
}

func TestFunctionalBroadcastSRLossyVirtual(t *testing.T) {
	runFunctionalBroadcast(t, clock.NewVirtual(), 6, 96<<10, 0.05, "sr")
}

func TestFunctionalBroadcastECLossyVirtual(t *testing.T) {
	runFunctionalBroadcast(t, clock.NewVirtual(), 5, 64<<10, 0.05, "ec")
}

func TestFunctionalTreeValidation(t *testing.T) {
	if _, err := BuildFunctionalTreeWith(1, nil, nil, 1024); err == nil {
		t.Fatal("1-node tree accepted")
	}
	tree := buildTree(t, clock.NewVirtual(), 3, 0, 4096)
	defer tree.Close()
	if _, err := tree.Broadcast(make([]byte, 8192), "sr"); err == nil {
		t.Fatal("payload exceeding staging buffer accepted")
	}
	if _, err := tree.Broadcast(make([]byte, 4096), "ecc"); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf(`Broadcast(_, "ecc") = %v, want the unknown-scheme error`, err)
	}
	if _, err := tree.Broadcast(make([]byte, 4096), "sr-nack"); err != nil {
		t.Fatalf(`Broadcast(_, "sr-nack"): %v`, err)
	}
}
