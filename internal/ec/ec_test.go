package ec

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	_ "unsafe" // go:linkname

	"sdrrdma/internal/gf256"
)

// gfTier is gf256's kernel tier: 0 the portable body, up to the one
// CPUID chose at init. gf256 exports no way to set it — product code
// must not — so the tests that pin RS bytes on every body the host can
// run reach the unexported variable by linkname.
//
//go:linkname gfTier sdrrdma/internal/gf256.active
var gfTier uint8

// forEachKernel runs fn as one subtest per gf256 kernel body this host
// can run. fn must build its codes itself: NewRS packs tables for the
// tier in force.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	eachKernel(func() { t.Run(gf256.Kernel(), fn) })
}

// eachKernel runs fn once per gf256 kernel body this host can run, with
// that body in force.
func eachKernel(fn func()) {
	best := gfTier
	defer func() { gfTier = best }()
	for gfTier = 0; gfTier <= best; gfTier++ {
		fn()
	}
}

func makeShards(rng *rand.Rand, n, size int) [][]byte {
	shards := make([][]byte, n)
	for i := range shards {
		shards[i] = make([]byte, size)
		rng.Read(shards[i])
	}
	return shards
}

func roundTrip(t *testing.T, c Code, lose []int, size int, wantErr bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	k, m := c.K(), c.M()
	data := makeShards(rng, k, size)
	parity := makeShards(rng, m, size)
	orig := make([][]byte, k)
	for i := range data {
		orig[i] = append([]byte(nil), data[i]...)
	}
	if err := c.Encode(data, parity); err != nil {
		t.Fatalf("%T Encode: %v", c, err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	present := make([]bool, k+m)
	for i := range present {
		present[i] = true
	}
	for _, l := range lose {
		present[l] = false
		for b := range shards[l] {
			shards[l][b] = 0xEE // corrupt lost shards to catch stale reads
		}
	}
	err := c.Reconstruct(shards, present)
	if wantErr {
		if err != errUnrecoverable {
			t.Fatalf("%T lose=%v: err=%v, want ErrUnrecoverable", c, lose, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%T Reconstruct(lose=%v): %v", c, lose, err)
	}
	for i := 0; i < k; i++ {
		if !bytes.Equal(shards[i], orig[i]) {
			t.Fatalf("%T lose=%v: data shard %d corrupted after reconstruct", c, lose, i)
		}
	}
}

func TestXORBasicRecovery(t *testing.T) {
	c, err := NewXOR(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// one data block per group: recoverable
	roundTrip(t, c, []int{0, 1, 2, 3}, 512, false)
	// single loss
	roundTrip(t, c, []int{5}, 512, false)
	// parity-only losses: trivially fine
	roundTrip(t, c, []int{8, 9, 10, 11}, 512, false)
	// two data blocks in the same group (0 and 4 are both ≡0 mod 4)
	roundTrip(t, c, []int{0, 4}, 512, true)
	// data + its own parity in one group
	roundTrip(t, c, []int{1, 9}, 512, true)
	// no loss at all
	roundTrip(t, c, nil, 64, false)
}

func TestXORRejectsBadGeometry(t *testing.T) {
	if _, err := NewXOR(7, 3); err == nil {
		t.Fatal("NewXOR(7,3) should fail: m does not divide k")
	}
	if _, err := NewXOR(0, 1); err == nil {
		t.Fatal("NewXOR(0,1) should fail")
	}
}

func TestRSBasicRecovery(t *testing.T) {
	c, err := NewRS(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// any m losses are recoverable, regardless of position
	roundTrip(t, c, []int{0, 1, 2, 3}, 512, false)
	roundTrip(t, c, []int{0, 4, 8, 11}, 512, false)
	roundTrip(t, c, []int{8, 9, 10, 11}, 512, false)
	roundTrip(t, c, []int{7}, 64, false)
	roundTrip(t, c, nil, 64, false)
	// m+1 losses: unrecoverable
	roundTrip(t, c, []int{0, 1, 2, 3, 4}, 512, true)
}

func TestRSPaperConfig(t *testing.T) {
	// The paper's chosen balanced configuration EC(32, 8) (§5.2.1).
	c, err := NewRS(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		nLose := rng.Intn(9) // 0..8 losses, all recoverable
		lose := rng.Perm(40)[:nLose]
		roundTrip(t, c, lose, 1024, false)
	}
	for trial := 0; trial < 10; trial++ {
		nLose := 9 + rng.Intn(8)
		lose := rng.Perm(40)[:nLose]
		roundTrip(t, c, lose, 1024, true)
	}
}

func TestRSRejectsBadGeometry(t *testing.T) {
	if _, err := NewRS(200, 100); err == nil {
		t.Fatal("NewRS(200,100) should fail: exceeds field size")
	}
	if _, err := NewRS(0, 4); err == nil {
		t.Fatal("NewRS(0,4) should fail")
	}
	if _, err := NewRS(223, 33); err == nil {
		t.Fatal("NewRS(223,33) should fail: shard 255 would duplicate shard 0")
	}
}

// Property: RS recovers from ANY loss pattern with ≤ m losses; XOR
// recovers iff no modulo group loses 2+ blocks. CanRecover must agree
// with Reconstruct success.
func TestRecoveryProperty(t *testing.T) {
	forEachKernel(t, testRecoveryProperty)
}

func testRecoveryProperty(t *testing.T) {
	rsCode, _ := NewRS(6, 3)
	xorCode, _ := NewXOR(6, 3)
	check := func(seed int64, lossMask uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range []Code{rsCode, xorCode} {
			k, m := c.K(), c.M()
			data := makeShards(rng, k, 32)
			parity := makeShards(rng, m, 32)
			orig := make([][]byte, k)
			for i := range data {
				orig[i] = append([]byte(nil), data[i]...)
			}
			if err := c.Encode(data, parity); err != nil {
				return false
			}
			shards := append(append([][]byte{}, data...), parity...)
			present := make([]bool, k+m)
			for i := range present {
				present[i] = lossMask&(1<<uint(i)) == 0
			}
			can := c.CanRecover(present)
			err := c.Reconstruct(shards, append([]bool(nil), present...))
			if can != (err == nil) {
				return false
			}
			if err == nil {
				for i := 0; i < k; i++ {
					if present[i] && !bytes.Equal(shards[i], orig[i]) {
						return false
					}
				}
				// verify recovered ones too
				for i := 0; i < k; i++ {
					if !bytes.Equal(shards[i], orig[i]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeShardMismatch(t *testing.T) {
	c, _ := NewRS(4, 2)
	rng := rand.New(rand.NewSource(1))
	data := makeShards(rng, 4, 64)
	parity := makeShards(rng, 2, 64)
	parity[1] = parity[1][:32]
	if err := c.Encode(data, parity); err == nil {
		t.Fatal("Encode accepted mismatched shard sizes")
	}
	if err := c.Encode(data[:3], parity); err == nil {
		t.Fatal("Encode accepted wrong shard count")
	}
}

func TestMDSSuccessProb(t *testing.T) {
	// p=0 → always recoverable; p=1 → never (with k>0 data at risk)
	if got := MDSSuccessProb(32, 8, 0); got != 1 {
		t.Fatalf("P(k=32,m=8,p=0) = %g", got)
	}
	if got := MDSSuccessProb(32, 8, 1); got > 1e-12 {
		t.Fatalf("P(k=32,m=8,p=1) = %g", got)
	}
	// monotonically decreasing in p
	prev := 1.0
	for _, p := range []float64{1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.3} {
		got := MDSSuccessProb(32, 8, p)
		if got > prev+1e-12 {
			t.Fatalf("MDS success prob not monotone at p=%g", p)
		}
		prev = got
	}
	// cross-check against direct Monte Carlo at p=0.05
	rng := rand.New(rand.NewSource(11))
	const trials = 200000
	ok := 0
	for i := 0; i < trials; i++ {
		losses := 0
		for j := 0; j < 40; j++ {
			if rng.Float64() < 0.05 {
				losses++
			}
		}
		if losses <= 8 {
			ok++
		}
	}
	mc := float64(ok) / trials
	if got := MDSSuccessProb(32, 8, 0.05); math.Abs(got-mc) > 0.01 {
		t.Fatalf("MDSSuccessProb = %g, Monte-Carlo = %g", got, mc)
	}
}

func TestXORSuccessProb(t *testing.T) {
	if got := XORSuccessProb(32, 8, 0); got != 1 {
		t.Fatalf("P(p=0) = %g", got)
	}
	// Monte-Carlo cross-check at p=0.02, k=32 m=8 (n=5 per group)
	rng := rand.New(rand.NewSource(13))
	const trials = 200000
	ok := 0
	for i := 0; i < trials; i++ {
		good := true
		for g := 0; g < 8 && good; g++ {
			losses := 0
			for b := 0; b < 5; b++ { // 4 data + 1 parity per group
				if rng.Float64() < 0.02 {
					losses++
				}
			}
			if losses > 1 {
				good = false
			}
		}
		if good {
			ok++
		}
	}
	mc := float64(ok) / trials
	if got := XORSuccessProb(32, 8, 0.02); math.Abs(got-mc) > 0.01 {
		t.Fatalf("XORSuccessProb = %g, Monte-Carlo = %g", got, mc)
	}
	// MDS must dominate XOR at equal (k, m): strictly stronger code.
	for _, p := range []float64{1e-4, 1e-3, 1e-2, 0.05} {
		if mds, xor := MDSSuccessProb(32, 8, p), XORSuccessProb(32, 8, p); mds < xor-1e-12 {
			t.Fatalf("MDS (%g) weaker than XOR (%g) at p=%g", mds, xor, p)
		}
	}
}

// Fig 11's crossover: for a 128 MiB buffer (L = 64 submessages of
// 32 × 64 KiB chunks), XOR's SR fallback becomes tail-relevant
// (fallback probability above the 1e-3 that moves p99.9) around chunk
// drop rate 1e-3, while MDS stays robust beyond 1e-2 and only becomes
// ineffective at very high drop rates (§5.2.1–5.2.2).
func TestFig11FallbackOnsetShape(t *testing.T) {
	const L = 64
	fallback := func(p float64, f func(int, int, float64) float64) float64 {
		return 1 - math.Pow(f(32, 8, p), L)
	}
	xorOnset := fallback(1e-3, XORSuccessProb)
	mdsOnset := fallback(1e-3, MDSSuccessProb)
	if xorOnset < 1e-3 {
		t.Fatalf("XOR fallback prob at p=1e-3 = %g, want tail-relevant (>1e-3)", xorOnset)
	}
	if mdsOnset > xorOnset/10 {
		t.Fatalf("MDS fallback %g not ≪ XOR fallback %g at p=1e-3", mdsOnset, xorOnset)
	}
	if v := fallback(1e-2, MDSSuccessProb); v > 1e-3 {
		t.Fatalf("MDS fallback prob at p=1e-2 = %g, want robust (<1e-3)", v)
	}
	if v := fallback(0.15, MDSSuccessProb); v < 0.5 {
		t.Fatalf("MDS fallback prob at p=0.15 = %g, want ineffective (>0.5)", v)
	}
}

// onPortable runs fn on the portable gf256 body, the reference every
// assembly body is compared with. Build codes inside fn.
func onPortable(fn func()) {
	best := gfTier
	defer func() { gfTier = best }()
	gfTier = 0
	fn()
}

// diffCodes builds the codes the differential tests run, the paper's
// RS(32,8) and XOR(32,8) and two small ones, for the tier in force.
func diffCodes() []Code { return []Code{mustRS(32, 8), mustXOR(32, 8), mustRS(8, 4), mustXOR(8, 2)} }

// TestEncodeMatchesPortable encodes one 64 KiB chunk, one that ends off
// every block boundary and one long enough for several bounded kernel
// calls per shard on every body, and compares each parity byte with
// the portable body's.
func TestEncodeMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{64 << 10, 64<<10 + 24, 192 << 10}
	var data, want [][][]byte // per code and size
	onPortable(func() {
		for _, c := range diffCodes() {
			for _, size := range sizes {
				d, p := makeShards(rng, c.K(), size), makeShards(rng, c.M(), size)
				if err := c.Encode(d, p); err != nil {
					t.Fatalf("%T portable encode: %v", c, err)
				}
				data, want = append(data, d), append(want, p)
			}
		}
	})
	forEachKernel(t, func(t *testing.T) {
		i := 0
		for _, c := range diffCodes() {
			for _, size := range sizes {
				got := makeShards(rng, c.M(), size)
				if err := c.Encode(data[i], got); err != nil {
					t.Fatalf("%T encode: %v", c, err)
				}
				for r := range got {
					if !bytes.Equal(got[r], want[i][r]) {
						t.Fatalf("%T size=%d: parity row %d differs from the portable body's", c, size, r)
					}
				}
				i++
			}
		}
	})
}

// TestReconstructLargeShards repairs RS and XOR loss patterns, parity
// among the lost, on shards of 96 KiB + 8 on every body.
func TestReconstructLargeShards(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		const size = 96<<10 + 8
		roundTrip(t, mustRS(32, 8), []int{0, 5, 17, 31, 33}, size, false)
		roundTrip(t, mustXOR(32, 8), []int{3, 12, 21, 38}, size, false)
	})
}

// lossPattern draws a presence mask c can recover from, with at least
// one data shard lost: up to m shards for RS, at most one block per
// modulo group for XOR.
func lossPattern(c Code, rng *rand.Rand) []bool {
	k, m := c.K(), c.M()
	present := make([]bool, k+m)
	for {
		for i := range present {
			present[i] = true
		}
		if _, xor := c.(*XORCode); xor {
			for g := 0; g < m; g++ {
				if rng.Intn(4) > 0 {
					member := g + m*rng.Intn(k/m+1) // data g, g+m, …, then parity k+g
					if member >= k {
						member = k + g
					}
					present[member] = false
				}
			}
		} else {
			for n := 1 + rng.Intn(m); n > 0; n-- {
				present[rng.Intn(k+m)] = false
			}
		}
		if slices.Contains(present[:k], false) {
			return present
		}
	}
}

func cloneShards(shards [][]byte) [][]byte {
	out := make([][]byte, len(shards))
	for i, s := range shards {
		out[i] = append([]byte(nil), s...)
	}
	return out
}

// checkReconstructSpans encodes random size-byte shards, loses a
// recoverable pattern whose lost buffers hold stale bytes, and decodes
// once over whole shards and once over spans: inside the spans the
// lost data shards must hold what the whole-shard decode wrote, the
// original data, and every other byte and the mask must be untouched.
func checkReconstructSpans(t *testing.T, c Code, size int, spans [][2]int, rng *rand.Rand) {
	t.Helper()
	k, m := c.K(), c.M()
	data, parity := makeShards(rng, k, size), makeShards(rng, m, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatalf("%T encode: %v", c, err)
	}
	orig := cloneShards(data)
	present := lossPattern(c, rng)
	shards := append(append([][]byte{}, data...), parity...)
	for j, p := range present {
		if !p {
			rng.Read(shards[j])
		}
	}
	before, whole := cloneShards(shards), cloneShards(shards)
	if err := c.Reconstruct(whole, slices.Clone(present)); err != nil {
		t.Fatalf("%T Reconstruct: %v", c, err)
	}
	mask := slices.Clone(present)
	if err := c.ReconstructSpans(shards, mask, spans); err != nil {
		t.Fatalf("%T ReconstructSpans(%v): %v", c, spans, err)
	}
	if !slices.Equal(mask, present) {
		t.Fatalf("%T ReconstructSpans changed the presence mask", c)
	}
	for j, want := range before {
		if j < k && !present[j] {
			if !bytes.Equal(whole[j], orig[j]) {
				t.Fatalf("%T size=%d: whole-shard decode of shard %d is wrong", c, size, j)
			}
			for _, sp := range spans {
				copy(want[sp[0]:sp[1]], whole[j][sp[0]:sp[1]])
			}
		}
		if !bytes.Equal(shards[j], want) {
			t.Fatalf("%T size=%d spans=%v: shard %d (lost=%v) differs from the whole-shard decode inside the spans or from its old bytes outside",
				c, size, spans, j, !present[j])
		}
	}
}

// TestReconstructSpansMatchesWhole decodes RS and XOR loss patterns over
// span lists a receiver can hand in — none, empty, shorter than a SIMD
// block, unaligned, adjacent, overlapping and unsorted, whole — on
// shards shorter than a block up to several bounded kernel calls long
// (a call reads at most 4 KiB per shard of RS(32,8)), on every kernel
// body.
func TestReconstructSpansMatchesWhole(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for _, size := range []int{16, 31, 100, 4096, 3<<12 + 24} {
			clip := func(spans ...[2]int) [][2]int {
				for i, sp := range spans {
					spans[i] = [2]int{min(sp[0], size), min(sp[1], size)}
				}
				return spans
			}
			cases := [][][2]int{
				nil,
				clip([2]int{7, 7}),
				clip([2]int{3, 20}),
				clip([2]int{5, 4001}),
				clip([2]int{0, 33}, [2]int{33, 97}),
				clip([2]int{50, 90}, [2]int{10, 60}),
				clip([2]int{4096, 8192}, [2]int{1024, 2048}, [2]int{9000, 12312}),
				clip([2]int{0, size}),
			}
			for _, spans := range cases {
				for _, c := range diffCodes() {
					checkReconstructSpans(t, c, size, spans, rng)
				}
			}
		}
	})
}

// TestReconstructSpansRejectsBadSpans: a span outside the shards, or
// reversed, fails the call before any byte is written.
func TestReconstructSpansRejectsBadSpans(t *testing.T) {
	for _, c := range []Code{mustRS(8, 4), mustXOR(8, 2)} {
		rng := rand.New(rand.NewSource(6))
		shards := makeShards(rng, c.K()+c.M(), 64)
		present := make([]bool, c.K()+c.M())
		for i := range present {
			present[i] = i != 1
		}
		before := cloneShards(shards)
		for _, spans := range [][][2]int{{{0, 65}}, {{-1, 4}}, {{9, 8}}, {{0, 8}, {60, 70}}} {
			if err := c.ReconstructSpans(shards, present, spans); err == nil {
				t.Fatalf("%T accepted spans %v over 64-byte shards", c, spans)
			}
			for j := range shards {
				if !bytes.Equal(shards[j], before[j]) {
					t.Fatalf("%T wrote shard %d before rejecting spans %v", c, j, spans)
				}
			}
		}
	}
}

// FuzzReconstructSpans checks ReconstructSpans against whole-shard
// Reconstruct on every kernel body: code picks one of diffCodes, the
// shards are n bytes, and each two little-endian uint16s of cuts,
// reduced mod n+1 and ordered, make one span.
func FuzzReconstructSpans(f *testing.F) {
	cuts := func(bounds ...uint16) []byte {
		var b []byte
		for _, x := range bounds {
			b = append(b, byte(x), byte(x>>8))
		}
		return b
	}
	f.Add(uint8(0), 64<<10, cuts(4096, 8192, 20480, 24576), int64(1)) // whole packets
	f.Add(uint8(1), 64<<10, cuts(), int64(2))                         // no spans
	f.Add(uint8(2), 4097, cuts(3, 20), int64(3))                      // shorter than a SIMD block
	f.Add(uint8(3), 1000, cuts(5, 333, 333, 901), int64(4))           // unaligned, adjacent
	f.Add(uint8(0), 31, cuts(0, 31), int64(5))                        // shards shorter than a block
	f.Add(uint8(2), 777, cuts(600, 100, 50, 700, 9, 9), int64(6))     // reversed, overlapping, empty
	f.Fuzz(func(t *testing.T, code uint8, n int, cuts []byte, seed int64) {
		if n <= 0 || n > 1<<17 || len(cuts) > 64 {
			t.Skip()
		}
		var spans [][2]int
		for i := 0; i+4 <= len(cuts); i += 4 {
			a := int(cuts[i]) | int(cuts[i+1])<<8
			b := int(cuts[i+2]) | int(cuts[i+3])<<8
			a, b = a%(n+1), b%(n+1)
			spans = append(spans, [2]int{min(a, b), max(a, b)})
		}
		eachKernel(func() {
			c := diffCodes()[int(code)%4]
			checkReconstructSpans(t, c, n, spans, rand.New(rand.NewSource(seed)))
		})
	})
}

// TestConcurrentEncodes drives many Encode calls on one shared RSCode at
// once — the WriteEC pattern when several endpoints encode
// simultaneously — under the race detector.
func TestConcurrentEncodes(t *testing.T) {
	c := mustRS(16, 4)
	const size = 32 << 10
	const goroutines = 8
	datas := make([][][]byte, goroutines)
	wants := make([][][]byte, goroutines)
	for g := range datas {
		rng := rand.New(rand.NewSource(int64(g)))
		datas[g] = makeShards(rng, c.K(), size)
		wants[g] = makeShards(rng, c.M(), size)
		if err := c.Encode(datas[g], wants[g]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			parity := makeShards(rand.New(rand.NewSource(int64(g)+100)), c.M(), size)
			for iter := 0; iter < 4; iter++ {
				if err := c.Encode(datas[g], parity); err != nil {
					t.Error(err)
					return
				}
				for i := range parity {
					if !bytes.Equal(parity[i], wants[g][i]) {
						t.Errorf("concurrent encode diverged (goroutine %d)", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentReconstructs is the decode twin: one shared RSCode
// repairs different erasure patterns from many goroutines at once, so
// the per-call decode workspace must not be shared state on the code.
func TestConcurrentReconstructs(t *testing.T) {
	c := mustRS(16, 4)
	const size = 32 << 10
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			data := makeShards(rng, c.K(), size)
			parity := makeShards(rng, c.M(), size)
			if err := c.Encode(data, parity); err != nil {
				t.Error(err)
				return
			}
			shards := append(append([][]byte{}, data...), parity...)
			for iter := 0; iter < 4; iter++ {
				present := make([]bool, len(shards))
				for i := range present {
					present[i] = true
				}
				lose := rng.Perm(len(shards))[:1+(g+iter)%c.M()]
				want := map[int][]byte{}
				for _, l := range lose {
					present[l] = false
					if l < c.K() {
						want[l] = append([]byte(nil), shards[l]...)
						clear(shards[l])
					}
				}
				if err := c.Reconstruct(shards, present); err != nil {
					t.Error(err)
					return
				}
				for l, w := range want {
					if !bytes.Equal(shards[l], w) {
						t.Errorf("concurrent reconstruct diverged (goroutine %d, shard %d)", g, l)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRSParityGolden pins the RS(32,8) parity bytes of a fixed pattern
// to the FNV-64a the row-at-a-time encoder of PR 11 produced: the code
// matrix, and with it every wire byte and verification digest, is
// unchanged by the fused kernel, whichever of its bodies runs.
func TestRSParityGolden(t *testing.T) {
	forEachKernel(t, testRSParityGolden)
}

func testRSParityGolden(t *testing.T) {
	c := mustRS(32, 8)
	const size = 4096 + 3
	data, parity := make([][]byte, 32), make([][]byte, 8)
	for i := range data {
		data[i] = make([]byte, size)
		for j := range data[i] {
			data[i][j] = byte(i*131 + j*7 + j>>8)
		}
	}
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, p := range parity {
		h.Write(p)
	}
	if got, want := h.Sum64(), uint64(0x33b52b7ce9d1bfed); got != want {
		t.Fatalf("RS(32,8) parity digest = %#x, want %#x: the wire bytes changed", got, want)
	}
}

// TestRSRowGroups covers codes whose parity (and decode) rows span
// several fused passes, up to the limit k+m = 255 (the order of α; a
// 256th evaluation point would repeat the first): every loss count
// 0..m round-trips, m+1 does not.
func TestRSRowGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, km := range [][2]int{{16, 12}, {222, 33}} {
		c := mustRS(km[0], km[1])
		for nLose := 0; nLose <= km[1]; nLose++ {
			// data shards only: exactly nLose decode rows, parity as input
			roundTrip(t, c, rng.Perm(km[0])[:nLose], 600, false)
		}
		roundTrip(t, c, rng.Perm(km[0] + km[1])[:km[1]+1], 600, true)
	}
}

// TestReconstructUndersizedShard hands Reconstruct a buffer for a lost
// shard that is shorter than the shards it is rebuilt from. Reconstruct
// does not compare shard lengths, so gf256.MulRows' length check is what
// stands between that caller bug and the assembly kernels writing past
// the buffer: it must fail loudly with nothing written, on every body.
func TestReconstructUndersizedShard(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		const size, short = 512, 500
		c := mustRS(8, 4)
		rng := rand.New(rand.NewSource(5))
		data, parity := makeShards(rng, 8, size), makeShards(rng, 4, size)
		if err := c.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
		shards := append(append([][]byte{}, data...), parity...)
		present := make([]bool, 12)
		for i := range present {
			present[i] = i != 2 && i != 5
		}
		// Lost shard 5's buffer is the front of a larger array whose
		// rest must survive.
		back := makeShards(rng, 1, size)[0]
		orig := append([]byte(nil), back...)
		shards[5] = back[:short:short]
		failed := func() (failed bool) {
			defer func() { failed = failed || recover() != nil }()
			return c.Reconstruct(shards, present) != nil
		}()
		if !failed {
			t.Fatal("Reconstruct accepted a lost-shard buffer shorter than the other shards")
		}
		if !bytes.Equal(back, orig) {
			t.Fatal("Reconstruct wrote into or past the undersized buffer before failing")
		}
	})
}

// TestRSAllocs holds the hot calls to their allocation budget: Encode
// allocates nothing, Reconstruct and ReconstructSpans recycle their
// decode workspace.
func TestRSAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := mustRS(32, 8)
	rng := rand.New(rand.NewSource(3))
	data, parity := makeShards(rng, 32, 4096), makeShards(rng, 8, 4096)
	if n := testing.AllocsPerRun(20, func() { _ = c.Encode(data, parity) }); n != 0 {
		t.Fatalf("Encode allocates %v times per call, want 0", n)
	}
	shards := append(append([][]byte{}, data...), parity...)
	present := make([]bool, 40)
	n := testing.AllocsPerRun(20, func() {
		for i := range present {
			present[i] = i != 3 && i != 17 && i != 35
		}
		_ = c.Reconstruct(shards, present)
	})
	if n > 2 {
		t.Fatalf("steady-state Reconstruct allocates %v times per call, want ≤ 2", n)
	}
	for i := range present {
		present[i] = i != 3 && i != 17 && i != 35
	}
	spans := [][2]int{{0, 1024}, {2048, 3000}}
	if n := testing.AllocsPerRun(20, func() { _ = c.ReconstructSpans(shards, present, spans) }); n > 1 {
		t.Fatalf("steady-state ReconstructSpans allocates %v times per call, want ≤ 1", n)
	}
}

func BenchmarkRSEncode32x8_64KiB(b *testing.B) {
	benchEncode(b, mustRS(32, 8), 64<<10)
}

func BenchmarkXOREncode32x8_64KiB(b *testing.B) {
	benchEncode(b, mustXOR(32, 8), 64<<10)
}

func mustRS(k, m int) *RSCode   { c, _ := NewRS(k, m); return c }
func mustXOR(k, m int) *XORCode { c, _ := NewXOR(k, m); return c }

func benchEncode(b *testing.B, c Code, chunk int) {
	rng := rand.New(rand.NewSource(1))
	data := makeShards(rng, c.K(), chunk)
	parity := makeShards(rng, c.M(), chunk)
	b.SetBytes(int64(c.K() * chunk))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSReconstruct32x8_64KiB(b *testing.B) {
	benchReconstruct(b, mustRS(32, 8))
}

// BenchmarkRSReconstructSpans32x8_64KiB is the decode shape the wan_ec
// workload measures: 5 of 32 data chunks lost, each missing one packet,
// at 4 distinct positions, so the decode rewrites 4 one-packet spans
// (4 KiB at a 4 KiB MTU) of each lost chunk. Bytes are those the spans
// read from the k shards.
func BenchmarkRSReconstructSpans32x8_64KiB(b *testing.B) {
	c := mustRS(32, 8)
	rng := rand.New(rand.NewSource(1))
	const chunk, mtu = 64 << 10, 4 << 10
	data, parity := makeShards(rng, 32, chunk), makeShards(rng, 8, chunk)
	if err := c.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	present := make([]bool, 40)
	for j := range present {
		present[j] = !slices.Contains([]int{2, 9, 15, 22, 28}, j)
	}
	var spans [][2]int
	for _, p := range []int{1, 5, 9, 14} {
		spans = append(spans, [2]int{p * mtu, (p + 1) * mtu})
	}
	b.SetBytes(int64(32 * len(spans) * mtu))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReconstructSpans(shards, present, spans); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXORReconstruct32x8_64KiB(b *testing.B) {
	benchReconstruct(b, mustXOR(32, 8))
}

func benchReconstruct(b *testing.B, c Code) {
	rng := rand.New(rand.NewSource(1))
	const chunk = 64 << 10
	data := makeShards(rng, c.K(), chunk)
	parity := makeShards(rng, c.M(), chunk)
	if err := c.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	shards := append(append([][]byte{}, data...), parity...)
	b.SetBytes(int64(c.K() * chunk))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		present := make([]bool, c.K()+c.M())
		for j := range present {
			present[j] = true
		}
		present[3] = false // one loss per group at most: both codes recover
		if err := c.Reconstruct(shards, present); err != nil {
			b.Fatal(err)
		}
	}
}
