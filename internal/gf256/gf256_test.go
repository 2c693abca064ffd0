package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFieldAxioms(t *testing.T) {
	// associativity, commutativity, distributivity over random triples
	check := func(a, b, c byte) bool {
		if mul(a, b) != mul(b, a) {
			return false
		}
		if mul(mul(a, b), c) != mul(a, mul(b, c)) {
			return false
		}
		if mul(a, b^c) != mul(a, b)^mul(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for x := 0; x < 256; x++ {
		b := byte(x)
		if mul(b, 1) != b || mul(1, b) != b {
			t.Fatalf("1 is not identity for %d", x)
		}
		if mul(b, 0) != 0 || mul(0, b) != 0 {
			t.Fatalf("0·%d != 0", x)
		}
	}
}

func TestInverses(t *testing.T) {
	for x := 1; x < 256; x++ {
		b := byte(x)
		if mul(b, inverse(b)) != 1 {
			t.Fatalf("x·Inv(x) != 1 for %d", x)
		}
		if got := mul(mul(b, 37), inverse(37)); got != b {
			t.Fatalf("(x·37)/37 = %d, want %d", got, x)
		}
	}
}

func TestInvPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	inverse(0)
}

func TestExpCyclic(t *testing.T) {
	if exp(0) != 1 {
		t.Fatalf("α^0 = %d", exp(0))
	}
	if exp(255) != 1 {
		t.Fatalf("α^255 = %d, want 1 (multiplicative order 255)", exp(255))
	}
	seen := map[byte]bool{}
	for i := 0; i < 255; i++ {
		v := exp(i)
		if seen[v] {
			t.Fatalf("α^%d = %d repeats — α is not primitive", i, v)
		}
		seen[v] = true
	}
}

func TestVectorKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(100) + 1
		c := byte(rng.Intn(256))
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)

		wantMul := make([]byte, n)
		wantMulAdd := make([]byte, n)
		wantXOR := make([]byte, n)
		for i := 0; i < n; i++ {
			wantMul[i] = mul(c, src[i])
			wantMulAdd[i] = dst[i] ^ mul(c, src[i])
			wantXOR[i] = dst[i] ^ src[i]
		}

		got := append([]byte(nil), dst...)
		mulSlice(c, got, src)
		for i := range got {
			if got[i] != wantMul[i] {
				t.Fatalf("MulSlice(c=%d)[%d] = %d, want %d", c, i, got[i], wantMul[i])
			}
		}

		got = append([]byte(nil), dst...)
		MulAddSlice(c, got, src)
		for i := range got {
			if got[i] != wantMulAdd[i] {
				t.Fatalf("MulAddSlice(c=%d)[%d] = %d, want %d", c, i, got[i], wantMulAdd[i])
			}
		}

		got = append([]byte(nil), dst...)
		XORSlice(got, src)
		for i := range got {
			if got[i] != wantXOR[i] {
				t.Fatalf("XORSlice[%d] = %d, want %d", i, got[i], wantXOR[i])
			}
		}
	}
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { mulSlice(3, make([]byte, 4), make([]byte, 5)) },
		func() { MulAddSlice(3, make([]byte, 4), make([]byte, 5)) },
		func() { XORSlice(make([]byte, 4), make([]byte, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on length mismatch")
				}
			}()
			fn()
		}()
	}
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(8) + 1
		// random invertible matrix: retry until Invert succeeds
		var m, inv *Matrix
		for {
			m = newMatrix(n, n)
			rng.Read(m.Data)
			var err error
			inv, err = m.Invert()
			if err == nil {
				break
			}
		}
		prod := m.Mul(inv)
		for i, v := range prod.Data {
			if onDiag := i/n == i%n; v > 1 || (v == 1) != onDiag {
				t.Fatalf("M·M⁻¹ != I for n=%d", n)
			}
		}
	}
}

func TestSingularMatrix(t *testing.T) {
	m := newMatrix(2, 2)
	m.set(0, 0, 3)
	m.set(0, 1, 5)
	m.set(1, 0, 3)
	m.set(1, 1, 5) // duplicate row
	if _, err := m.Invert(); err == nil {
		t.Fatal("inverting a singular matrix succeeded")
	}
}

func TestVandermondeSubmatricesInvertible(t *testing.T) {
	// The MDS property relies on every k-row subset of the encoding
	// matrix being invertible. Spot-check random subsets.
	const k, m = 6, 4
	v := Vandermonde(k+m, k)
	top, err := v.SubMatrix(0, k, 0, k).Invert()
	if err != nil {
		t.Fatalf("top of Vandermonde not invertible: %v", err)
	}
	enc := v.Mul(top) // systematic form
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		rows := rng.Perm(k + m)[:k]
		sub := newMatrix(k, k)
		for i, r := range rows {
			copy(sub.Row(i), enc.Row(r))
		}
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("k-subset %v of systematic Vandermonde not invertible: %v", rows, err)
		}
	}
}

// mulAddSliceTable and xorSliceScalar are the byte-at-a-time references
// the word and SIMD kernels are compared with.
func mulAddSliceTable(c byte, dst, src []byte) {
	mt := mulTableRow(c)
	for i, s := range src {
		dst[i] ^= mt[s]
	}
}

func xorSliceScalar(dst, src []byte) {
	for i := range src {
		dst[i] ^= src[i]
	}
}

func TestMatrixShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	newMatrix(2, 3).Mul(newMatrix(2, 3))
}

// TestWordKernelsMatchScalarAcrossSizes drives the word-parallel
// kernels across every constant and across sizes straddling the word
// threshold and word boundaries (tails of 1..31 bytes), comparing each
// against the byte-at-a-time reference.
func TestWordKernelsMatchScalarAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sizes := []int{1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 255, 256, 1000, 4096, 4099}
	for _, n := range sizes {
		src := make([]byte, n)
		orig := make([]byte, n)
		rng.Read(src)
		rng.Read(orig)
		for c := 0; c < 256; c++ {
			want := append([]byte(nil), orig...)
			mulAddSliceTable(byte(c), want, src)
			got := append([]byte(nil), orig...)
			MulAddSlice(byte(c), got, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulAddSlice(c=%d, n=%d) diverges from table reference", c, n)
			}
		}
		want := append([]byte(nil), orig...)
		xorSliceScalar(want, src)
		got := append([]byte(nil), orig...)
		XORSlice(got, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("XORSlice(n=%d) diverges from scalar reference", n)
		}
	}
}

// TestWordKernelsUnalignedViews exercises the kernels on sub-slices at
// every offset 0..15 of a backing array, since callers hand in views
// into larger buffers (shards of a chunk, MTU payloads mid-message).
func TestWordKernelsUnalignedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	back := make([]byte, 512)
	src := make([]byte, 512)
	rng.Read(src)
	for off := 0; off < 16; off++ {
		n := 400
		rng.Read(back)
		want := append([]byte(nil), back[off:off+n]...)
		mulAddSliceTable(0xB7, want, src[off:off+n])
		got := append([]byte(nil), back...)
		MulAddSlice(0xB7, got[off:off+n], src[off:off+n])
		if !bytes.Equal(got[off:off+n], want) {
			t.Fatalf("MulAddSlice at offset %d diverges", off)
		}
		if !bytes.Equal(got[:off], back[:off]) || !bytes.Equal(got[off+n:], back[off+n:]) {
			t.Fatalf("MulAddSlice at offset %d wrote outside its view", off)
		}
	}
}

func benchKernelSizes(b *testing.B, run func(dst, src []byte)) {
	for _, n := range []int{64, 4 << 10, 64 << 10, 1 << 20} {
		b.Run(sizeName(n), func(b *testing.B) {
			src := make([]byte, n)
			dst := make([]byte, n)
			rand.New(rand.NewSource(1)).Read(src)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(dst, src)
			}
		})
	}
}

func sizeName(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMiB", n>>20)
	}
	if n >= 1<<10 {
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// BenchmarkXORSlice / BenchmarkMulAddSlice track the word-parallel
// kernels; the *Scalar variants are the seed byte-at-a-time paths the
// acceptance criteria compare against.
func BenchmarkXORSlice(b *testing.B) {
	benchKernelSizes(b, XORSlice)
}

func BenchmarkXORSliceScalar(b *testing.B) {
	benchKernelSizes(b, xorSliceScalar)
}

func BenchmarkMulAddSlice(b *testing.B) {
	benchKernelSizes(b, func(dst, src []byte) { MulAddSlice(0x57, dst, src) })
}

func BenchmarkMulAddSliceTable(b *testing.B) {
	benchKernelSizes(b, func(dst, src []byte) { mulAddSliceTable(0x57, dst, src) })
}

// Legacy names kept so the bench trajectory stays comparable.
func BenchmarkMulAddSlice64K(b *testing.B) {
	src := make([]byte, 64<<10)
	dst := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x57, dst, src)
	}
}

func BenchmarkXORSlice64K(b *testing.B) {
	src := make([]byte, 64<<10)
	dst := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(src)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		XORSlice(dst, src)
	}
}
