package bitmap

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		if !b.Set(i) {
			t.Fatalf("Set(%d) reported already-set on first set", i)
		}
		if b.Set(i) {
			t.Fatalf("Set(%d) reported newly-set on second set", i)
		}
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	b.Reset()
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d still set after Reset", i)
		}
	}
}

func TestCountAndFull(t *testing.T) {
	b := New(100)
	for i := 0; i < 100; i++ {
		b.Set(i)
		if got := b.Count(); got != i+1 {
			t.Fatalf("Count after %d sets = %d", i+1, got)
		}
	}
	if !b.Full() {
		t.Fatal("bitmap with all bits set reports !Full")
	}
	b.Reset()
	if b.Count() != 0 || b.Full() {
		t.Fatal("Reset did not clear all bits")
	}
}

func TestFullEmptyBitmap(t *testing.T) {
	b := New(0)
	if !b.Full() {
		t.Fatal("zero-length bitmap should be trivially Full")
	}
	if b.firstZero() != -1 {
		t.Fatal("zero-length bitmap FirstZero should be -1")
	}
}

func TestFirstZeroAndCumulative(t *testing.T) {
	b := New(70)
	if b.firstZero() != 0 {
		t.Fatalf("FirstZero of empty = %d", b.firstZero())
	}
	for i := 0; i < 66; i++ {
		b.Set(i)
	}
	if got := b.firstZero(); got != 66 {
		t.Fatalf("FirstZero = %d, want 66", got)
	}
	if got := b.CumulativeCount(); got != 66 {
		t.Fatalf("CumulativeCount = %d, want 66", got)
	}
	// a hole before the frontier
	holed := New(70)
	for i := 0; i < 66; i++ {
		if i != 3 {
			holed.Set(i)
		}
	}
	if got := holed.CumulativeCount(); got != 3 {
		t.Fatalf("CumulativeCount with hole at 3 = %d", got)
	}
	for i := 0; i < 70; i++ {
		b.Set(i)
	}
	if got := b.firstZero(); got != -1 {
		t.Fatalf("FirstZero of full = %d", got)
	}
	if got := b.CumulativeCount(); got != 70 {
		t.Fatalf("CumulativeCount of full = %d", got)
	}
}

// firstZero must ignore the padding bits of the last word.
func TestFirstZeroPadding(t *testing.T) {
	b := New(65)
	for i := 0; i < 65; i++ {
		b.Set(i)
	}
	if got := b.firstZero(); got != -1 {
		t.Fatalf("FirstZero with only padding clear = %d, want -1", got)
	}
}

func TestMissing(t *testing.T) {
	b := New(20)
	for i := 0; i < 20; i++ {
		if i%3 != 0 {
			b.Set(i)
		}
	}
	got := b.Missing(nil, 0, 20)
	want := []int{0, 3, 6, 9, 12, 15, 18}
	if len(got) != len(want) {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Missing = %v, want %v", got, want)
		}
	}
	// clamped ranges
	if len(b.Missing(nil, -5, 3)) != 1 {
		t.Fatal("Missing did not clamp negative from")
	}
	if got := b.Missing(nil, 18, 100); len(got) != 1 || got[0] != 18 {
		t.Fatalf("Missing with clamped to = %v, want [18]", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	check := func(seed int64, nbitsRaw uint16) bool {
		nbits := int(nbitsRaw)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		b := New(nbits)
		for i := 0; i < nbits; i++ {
			if rng.Intn(2) == 1 {
				b.Set(i)
			}
		}
		snap := b.Snapshot(nil)
		for i := 0; i < nbits; i++ {
			if b.Test(i) != (snap[i/8]>>(uint(i)%8)&1 == 1) {
				return false
			}
		}
		return len(snap) == (nbits+7)/8
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotMasksPadding(t *testing.T) {
	b := New(10)
	for i := 0; i < 10; i++ {
		b.Set(i)
	}
	// A recycled destination full of garbage must come back with the
	// padding bits beyond nbits clear.
	if got := b.Snapshot([]byte{0xFF, 0xFF, 0xFF}); !bytes.Equal(got, []byte{0xFF, 0x03}) {
		t.Fatalf("Snapshot of full 10-bit bitmap = %x, want ff03", got)
	}
}

func TestConcurrentSet(t *testing.T) {
	const nbits = 1 << 14
	b := New(nbits)
	var wg sync.WaitGroup
	var firstSets [8]int
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := 0
			for i := 0; i < nbits; i++ {
				if b.Set(i) {
					n++
				}
			}
			firstSets[w] = n
		}(w)
	}
	wg.Wait()
	if !b.Full() {
		t.Fatal("concurrent sets left holes")
	}
	total := 0
	for _, n := range firstSets {
		total += n
	}
	if total != nbits {
		t.Fatalf("first-set reports sum to %d, want exactly %d", total, nbits)
	}
}

func TestMessageGeometry(t *testing.T) {
	m := NewMessage(33, 16) // 3 chunks: 16, 16, 1
	if m.Chunks.Len() != 3 {
		t.Fatalf("chunks = %d, want 3", m.Chunks.Len())
	}
	// filling the short tail chunk completes it alone
	fresh, done := m.MarkPacket(32)
	if !fresh || !done {
		t.Fatalf("tail packet: fresh=%v done=%v", fresh, done)
	}
	if !m.Chunks.Test(2) || m.Chunks.Test(0) {
		t.Fatal("chunk bitmap wrong after tail completion")
	}
}

func TestMessageChunkCompletionExactlyOnce(t *testing.T) {
	m := NewMessage(32, 16)
	completions := 0
	for pkt := 0; pkt < 16; pkt++ {
		if _, done := m.MarkPacket(pkt); done {
			completions++
		}
		// duplicates never complete and are not newly set
		if fresh, done := m.MarkPacket(pkt); fresh || done {
			t.Fatalf("duplicate of packet %d: fresh=%v done=%v", pkt, fresh, done)
		}
	}
	if completions != 1 {
		t.Fatalf("chunk completed %d times, want 1", completions)
	}
	if m.Complete() {
		t.Fatal("message complete with half its packets")
	}
	for pkt := 16; pkt < 32; pkt++ {
		m.MarkPacket(pkt)
	}
	if !m.Complete() {
		t.Fatal("message not complete after all packets")
	}
	m.Reset()
	if m.Complete() || m.Packets.Count() != 0 {
		t.Fatal("Reset did not clear message state")
	}
}

// Property: regardless of arrival order, each chunk completes exactly
// once and the message completes iff all packets arrived.
func TestMessageArrivalOrderProperty(t *testing.T) {
	check := func(seed int64, pktsRaw, ppcRaw uint8) bool {
		pkts := int(pktsRaw)%200 + 1
		ppc := int(ppcRaw)%17 + 1
		rng := rand.New(rand.NewSource(seed))
		m := NewMessage(pkts, ppc)
		order := rng.Perm(pkts)
		completions := 0
		for _, p := range order {
			if _, done := m.MarkPacket(p); done {
				completions++
			}
		}
		return completions == m.Chunks.Len() && m.Complete()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageConcurrentMark(t *testing.T) {
	const pkts = 4096
	m := NewMessage(pkts, 16)
	var wg sync.WaitGroup
	var completed [4]int
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			n := 0
			for _, p := range rng.Perm(pkts) {
				if _, done := m.MarkPacket(p); done {
					n++
				}
			}
			completed[w] = n
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range completed {
		total += n
	}
	if total != m.Chunks.Len() {
		t.Fatalf("chunk completions = %d, want %d", total, m.Chunks.Len())
	}
	if !m.Complete() {
		t.Fatal("message incomplete after concurrent marking")
	}
}

func TestPanics(t *testing.T) {
	b := New(8)
	for _, fn := range []func(){
		func() { b.Set(-1) },
		func() { b.Set(8) },
		func() { b.Test(9) },
		func() { New(-1) },
		func() { NewMessage(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestCounterConsistency drives random Set/Reset/duplicate traffic and
// cross-checks the O(1) Full/Count and the hinted firstZero against a
// brute-force reference after every operation.
func TestCounterConsistency(t *testing.T) {
	check := func(seed int64, nbitsRaw uint16) bool {
		nbits := int(nbitsRaw)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		b := New(nbits)
		ref := make([]bool, nbits)
		for op := 0; op < 300; op++ {
			i := rng.Intn(nbits)
			if rng.Intn(40) == 0 {
				b.Reset()
				clear(ref)
			} else {
				if b.Set(i) == ref[i] {
					return false // newly-set report disagrees with reference
				}
				ref[i] = true
			}
			count, firstZero := 0, -1
			for j, set := range ref {
				if set {
					count++
				} else if firstZero < 0 {
					firstZero = j
				}
			}
			if b.Count() != count || b.Full() != (count == nbits) {
				return false
			}
			if b.firstZero() != firstZero {
				return false
			}
			cum := firstZero
			if cum < 0 {
				cum = nbits
			}
			if b.CumulativeCount() != cum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFirstZeroHintAdvancesAndLowers exercises the monotonic word hint
// directly: repeated polls of an in-order delivery, then a Reset, which
// must lower the hint so the reopened holes are found.
func TestFirstZeroHintAdvancesAndLowers(t *testing.T) {
	b := New(300)
	for i := 0; i < 192; i++ {
		b.Set(i)
		want := i + 1
		for poll := 0; poll < 3; poll++ { // repeated polls hit the hint path
			if got := b.firstZero(); got != want {
				t.Fatalf("after Set(%d) poll %d: FirstZero = %d, want %d", i, poll, got, want)
			}
		}
	}
	if got := b.scanHint.Load(); got == 0 {
		t.Fatal("hint never advanced past word 0 during in-order delivery")
	}
	b.Reset() // every bit far below the hinted frontier is a hole again
	if got := b.firstZero(); got != 0 {
		t.Fatalf("FirstZero after Reset = %d, want 0", got)
	}
	for i := 0; i < 300; i++ {
		b.Set(i)
	}
	if got := b.firstZero(); got != -1 {
		t.Fatalf("FirstZero on full bitmap = %d, want -1", got)
	}
	if !b.Full() {
		t.Fatal("Full() false after setting every bit")
	}
}

// TestMissingWordSkipping covers the all-ones fast path and holes that
// straddle word boundaries.
func TestMissingWordSkipping(t *testing.T) {
	b := New(64 * 6)
	holes := map[int]bool{0: true, 63: true, 64: true, 191: true, 320: true}
	for i := 0; i < b.Len(); i++ {
		if !holes[i] {
			b.Set(i)
		}
	}
	got := b.Missing(nil, 0, b.Len())
	want := []int{0, 63, 64, 191, 320}
	if len(got) != len(want) {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Missing = %v, want %v", got, want)
		}
	}
	// sub-word from/to clamping across the skip path
	if got := b.Missing(nil, 1, 191); len(got) != 2 || got[0] != 63 || got[1] != 64 {
		t.Fatalf("Missing[1,191) = %v, want [63 64]", got)
	}
}

// TestMessageConcurrentMarkWithDuplicates floods MarkPacket from many
// goroutines — every packet delivered by every goroutine plus extra
// random duplicates — while a poller concurrently reads the completion
// surface. Duplicate deliveries must be absorbed exactly like the DPA
// dedup contract promises: one newlySet and one chunkCompleted each.
func TestMessageConcurrentMarkWithDuplicates(t *testing.T) {
	const pkts = 2048 + 13 // odd tail chunk
	const workers = 8
	m := NewMessage(pkts, 16)
	var wg sync.WaitGroup
	newly := make([]int, workers)
	completed := make([]int, workers)
	stop := make(chan struct{})
	var pollerWg sync.WaitGroup
	pollerWg.Add(1)
	go func() { // reliability-layer poll loop against the same message
		defer pollerWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cum := m.Packets.CumulativeCount()
			if cum < 0 || cum > pkts {
				t.Errorf("CumulativeCount out of range: %d", cum)
				return
			}
			m.Chunks.Full()
			m.Packets.Missing(nil, 0, pkts)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			mark := func(p int) {
				fresh, done := m.MarkPacket(p)
				if fresh {
					newly[w]++
				}
				if done {
					completed[w]++
				}
			}
			for _, p := range rng.Perm(pkts) {
				mark(p)
				if rng.Intn(4) == 0 {
					mark(rng.Intn(pkts)) // wire-level duplicate
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pollerWg.Wait()
	totalNew, totalDone := 0, 0
	for w := 0; w < workers; w++ {
		totalNew += newly[w]
		totalDone += completed[w]
	}
	if totalNew != pkts {
		t.Fatalf("newlySet total = %d, want %d", totalNew, pkts)
	}
	if totalDone != m.Chunks.Len() {
		t.Fatalf("chunkCompleted total = %d, want %d", totalDone, m.Chunks.Len())
	}
	if !m.Complete() || !m.Packets.Full() {
		t.Fatal("message incomplete after concurrent duplicate-heavy delivery")
	}
	if got := m.Packets.firstZero(); got != -1 {
		t.Fatalf("FirstZero = %d on complete message", got)
	}
}

// BenchmarkBitmapMissing measures the NACK-construction scan on a
// mostly-full bitmap (the common reliability-layer case: few holes).
func BenchmarkBitmapMissing(b *testing.B) {
	const nbits = 1 << 16
	bm := New(nbits)
	for i := 0; i < nbits; i++ {
		if i%2048 != 7 { // 32 holes
			bm.Set(i)
		}
	}
	var dst []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = bm.Missing(dst[:0], 0, nbits)
	}
	if len(dst) != nbits/2048 {
		b.Fatalf("missing %d holes, want %d", len(dst), nbits/2048)
	}
}

// BenchmarkBitmapFullPoll is the per-tick completion check the
// reliability layer spins on — O(1) since the remaining counter.
func BenchmarkBitmapFullPoll(b *testing.B) {
	const nbits = 1 << 20
	bm := New(nbits)
	for i := 0; i < nbits-1; i++ {
		bm.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bm.Full() {
			b.Fatal("bitmap should have one hole")
		}
	}
}

// BenchmarkFirstZeroHinted measures the repeated-poll pattern: the
// frontier sits deep in the bitmap and polls must not rescan from 0.
func BenchmarkFirstZeroHinted(b *testing.B) {
	const nbits = 1 << 20
	bm := New(nbits)
	for i := 0; i < nbits/2; i++ {
		bm.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bm.firstZero() != nbits/2 {
			b.Fatal("wrong frontier")
		}
	}
}

func BenchmarkMarkPacket(b *testing.B) {
	m := NewMessage(1<<16, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.MarkPacket(i & (1<<16 - 1))
		if i&(1<<16-1) == 1<<16-1 {
			m.Reset()
		}
	}
}
