package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// mulRowsScalar is the Mul-by-Mul reference for RowTables.MulRows.
func mulRowsScalar(coef, out, in [][]byte, lo, hi int) {
	for i, row := range coef {
		for p := lo; p < hi; p++ {
			var s byte
			for j, c := range row {
				s ^= Mul(c, in[j][p])
			}
			out[i][p] = s
		}
	}
}

func randRows(rng *rand.Rand, rows, n int) [][]byte {
	out := make([][]byte, rows)
	for i := range out {
		out[i] = make([]byte, n)
		rng.Read(out[i])
	}
	return out
}

// TestMulRowsMatchesScalar checks the fused kernel against the scalar
// reference for every row count of one pass (1..8) and some spanning
// several, at lengths straddling the word, the accumulator block and a
// 64 KiB chunk, over a sub-range so bytes outside [lo,hi) must stay
// untouched.
func TestMulRowsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 19} {
		for _, n := range []int{1, 7, 8, 9, 511, 512, 513, 64<<10 + 3} {
			const cols = 5
			coef := randRows(rng, rows, cols)
			coef[0][0], coef[rows-1][cols-1] = 0, 1
			in := randRows(rng, cols, n)
			got := randRows(rng, rows, n)
			want := make([][]byte, rows)
			for i := range want {
				want[i] = append([]byte(nil), got[i]...)
			}
			lo, hi := 0, n
			if n > 16 {
				lo, hi = 3, n-5
			}
			var tabs RowTables
			tabs.Set(coef)
			tabs.MulRows(got, in, lo, hi)
			mulRowsScalar(coef, want, in, lo, hi)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("rows=%d n=%d: output row %d diverges from scalar reference", rows, n, i)
				}
			}
		}
	}
}

// TestMulRowsUnalignedViews hands the kernel sub-slice views at every
// offset 0..15 of larger backing arrays, as callers do with shards of a
// chunk, and checks nothing outside the views is written.
func TestMulRowsUnalignedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const rows, cols, n = 3, 4, 700
	coef := randRows(rng, rows, cols)
	var tabs RowTables
	tabs.Set(coef)
	for off := 0; off < 16; off++ {
		inBack := randRows(rng, cols, n+32)
		outBack := randRows(rng, rows, n+32)
		in, got, want, orig := make([][]byte, cols), make([][]byte, rows), make([][]byte, rows), make([][]byte, rows)
		for j := range in {
			in[j] = inBack[j][off : off+n]
		}
		for i := range got {
			orig[i] = append([]byte(nil), outBack[i]...)
			got[i] = outBack[i][off : off+n]
			want[i] = make([]byte, n)
		}
		tabs.MulRows(got, in, 0, n)
		mulRowsScalar(coef, want, in, 0, n)
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("offset %d: row %d diverges", off, i)
			}
			if !bytes.Equal(outBack[i][:off], orig[i][:off]) || !bytes.Equal(outBack[i][off+n:], orig[i][off+n:]) {
				t.Fatalf("offset %d: row %d wrote outside its view", off, i)
			}
		}
	}
}

// TestRowTablesReuse re-packs one RowTables with a different shape, the
// per-Reconstruct pattern, and checks no stale entries leak through.
func TestRowTablesReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tabs RowTables
	for _, shape := range [][2]int{{8, 12}, {2, 5}, {11, 3}, {5, 12}} {
		rows, cols := shape[0], shape[1]
		coef, in := randRows(rng, rows, cols), randRows(rng, cols, 100)
		got, want := randRows(rng, rows, 100), randRows(rng, rows, 100)
		tabs.Set(coef)
		tabs.MulRows(got, in, 0, 100)
		mulRowsScalar(coef, want, in, 0, 100)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("shape %v: row %d diverges after reuse", shape, i)
			}
		}
	}
}

func TestMulRowsShapePanics(t *testing.T) {
	var tabs RowTables
	tabs.Set([][]byte{{1, 2}, {3, 4}})
	for _, fn := range []func(){
		func() { tabs.MulRows(make([][]byte, 1), make([][]byte, 2), 0, 0) },
		func() { tabs.MulRows(make([][]byte, 2), make([][]byte, 3), 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on shape mismatch")
				}
			}()
			fn()
		}()
	}
}

// BenchmarkMulRows32x8 is the RS(32,8) encode shape: 32 input columns
// of 64 KiB into 8 fused output rows; bytes/s counts input bytes.
func BenchmarkMulRows32x8(b *testing.B) {
	benchMulRows(b, 8)
}

// BenchmarkMulRows32x2 is a typical decode shape (2 lost shards).
func BenchmarkMulRows32x2(b *testing.B) {
	benchMulRows(b, 2)
}

func benchMulRows(b *testing.B, rows int) {
	rng := rand.New(rand.NewSource(1))
	const cols, n = 32, 64 << 10
	coef, in, out := randRows(rng, rows, cols), randRows(rng, cols, n), randRows(rng, rows, n)
	var tabs RowTables
	tabs.Set(coef)
	b.SetBytes(cols * n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tabs.MulRows(out, in, 0, n)
	}
}

func BenchmarkRowTablesSet32x8(b *testing.B) {
	coef := randRows(rand.New(rand.NewSource(1)), 8, 32)
	var tabs RowTables
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tabs.Set(coef)
	}
}
