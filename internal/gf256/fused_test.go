package gf256

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// eachTier calls run once per mulGroup body this host can run, portable
// first, with Set packing that tier's tables and name as Kernel names it.
func eachTier(run func(name string)) {
	best := active
	defer func() { active = best }()
	for active = portable; active <= best; active++ {
		run(Kernel())
	}
}

// forEachTier runs fn as one subtest per tier.
func forEachTier(t *testing.T, fn func(t *testing.T)) {
	eachTier(func(name string) { t.Run(name, fn) })
}

// TestKernelDetection compares the tier CPUID chose with the flags the
// OS reports. A detection bug that leaves the host on the portable body
// passes every correctness test and loses the whole speed-up.
func TestKernelDetection(t *testing.T) {
	t.Logf("gf256 kernel: %s", Kernel())
	if detect() != active {
		t.Fatalf("detect() = %d now, %d at init", detect(), active)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo to compare with")
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	want := "portable"
	switch {
	case flags["avx2"] && flags["gfni"] && flags["avx512f"]:
		want = "gfni512"
	case flags["avx2"] && flags["gfni"]:
		want = "gfni"
	case flags["avx2"]:
		want = "avx2"
	}
	if Kernel() != want {
		t.Fatalf("CPUID chose %q, /proc/cpuinfo flags say %q", Kernel(), want)
	}
}

// mulRowsScalar is the mul-by-mul reference for RowTables.MulRows.
func mulRowsScalar(coef, out, in [][]byte) {
	for i, row := range coef {
		for p := range out[i] {
			var s byte
			for j, c := range row {
				s ^= mul(c, in[j][p])
			}
			out[i][p] = s
		}
	}
}

// views returns rows[i][lo:hi] for every row, capacity capped at hi, so
// a kernel handed the views can reach nothing outside [lo,hi) in bounds.
func views(rows [][]byte, lo, hi int) [][]byte {
	out := make([][]byte, len(rows))
	for i, r := range rows {
		out[i] = r[lo:hi:hi]
	}
	return out
}

func cloneRows(rows [][]byte) [][]byte {
	out := make([][]byte, len(rows))
	for i, r := range rows {
		out[i] = append([]byte(nil), r...)
	}
	return out
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
// several, at lengths straddling the word, two zmm blocks, the
// accumulator block and a 64 KiB chunk, on views of a sub-range of
// every shard, so bytes outside the views must stay untouched. The odd
// column count runs the zmm body's column pairs and its single-column
// remainder.
func TestMulRowsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 19} {
		for _, n := range []int{1, 7, 8, 9, 127, 128, 129, 511, 512, 513, 64<<10 + 3} {
			const cols = 5
			coef := randRows(rng, rows, cols)
			coef[0][0], coef[rows-1][cols-1] = 0, 1
			in := randRows(rng, cols, n)
			orig := randRows(rng, rows, n)
			lo, hi := 0, n
			if n > 16 {
				lo, hi = 3, n-5
			}
			want := cloneRows(orig)
			mulRowsScalar(coef, views(want, lo, hi), views(in, lo, hi))
			eachTier(func(tier string) {
				got := cloneRows(orig)
				var tabs RowTables
				tabs.Set(coef)
				tabs.MulRows(views(got, lo, hi), views(in, lo, hi))
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("%s rows=%d n=%d: output row %d diverges from scalar reference", tier, rows, n, i)
					}
				}
			})
		}
	}
}

// TestMulRowsUnalignedViews hands the kernel sub-slice views at every
// offset 0..15 of larger backing arrays, as callers do with shards of a
// chunk, and checks nothing outside the views is written.
func TestMulRowsUnalignedViews(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
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
			tabs.MulRows(got, in)
			mulRowsScalar(coef, want, in)
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("offset %d: row %d diverges", off, i)
				}
				if !bytes.Equal(outBack[i][:off], orig[i][:off]) || !bytes.Equal(outBack[i][off+n:], orig[i][off+n:]) {
					t.Fatalf("offset %d: row %d wrote outside its view", off, i)
				}
			}
		}
	})
}

// TestRowTablesReuse re-packs one RowTables with a different shape, the
// per-Reconstruct pattern, and checks no stale entries leak through.
func TestRowTablesReuse(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		var tabs RowTables
		for _, shape := range [][2]int{{8, 12}, {2, 5}, {11, 3}, {5, 12}} {
			rows, cols := shape[0], shape[1]
			coef, in := randRows(rng, rows, cols), randRows(rng, cols, 100)
			got, want := randRows(rng, rows, 100), randRows(rng, rows, 100)
			tabs.Set(coef)
			tabs.MulRows(got, in)
			mulRowsScalar(coef, want, in)
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("shape %v: row %d diverges after reuse", shape, i)
				}
			}
		}
	})
}

// TestMulRowsShapePanics pins the only guard in front of the assembly:
// a wrong shard count, or a shard shorter or longer than the first
// output, panics with the package's message on every tier, before a
// byte is written.
func TestMulRowsShapePanics(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		var tabs RowTables
		tabs.Set([][]byte{{1, 2}, {3, 4}})
		const n = 100
		shards := func(rows int, short int) [][]byte {
			s := randRows(rand.New(rand.NewSource(8)), rows, n)
			if short >= 0 {
				s[short] = s[short][:n-1]
			}
			return s
		}
		long := shards(2, -1)
		long[1] = append(long[1], 0)
		lastBlock := views(shards(2, -1), n-40, n)
		lastBlock[1] = lastBlock[1][:39]
		for name, tc := range map[string]struct{ out, in [][]byte }{
			"one output short of the rows": {make([][]byte, 1), make([][]byte, 2)},
			"one input beyond the columns": {make([][]byte, 2), make([][]byte, 3)},
			"short input":                  {shards(2, -1), shards(2, 1)},
			"long input":                   {shards(2, -1), long},
			"short output":                 {shards(2, 1), shards(2, -1)},
			"short first output":           {shards(2, 0), shards(2, -1)},
			"short output, last block":     {lastBlock, views(shards(2, -1), n-40, n)},
		} {
			before := cloneRows(tc.out)
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "gf256: ") {
						t.Fatalf("%s: recovered %q, want a gf256: panic", name, msg)
					}
				}()
				tabs.MulRows(tc.out, tc.in)
			}()
			for i, o := range tc.out {
				if !bytes.Equal(o, before[i]) {
					t.Fatalf("%s: output row %d written before the panic", name, i)
				}
			}
		}
	})
}

// FuzzMulRows compares every tier with the scalar reference on shard
// views of arbitrary sub-ranges [lo,hi) of n bytes at arbitrary offsets
// of larger arrays, with 64 guard bytes either side of every output; no
// byte outside an output's view and no byte of an input may change. The
// seed corpus, which plain `go test` runs, covers 1–19 rows, 1–40
// columns, view offsets 0–63 and the lengths around the assembly's ymm
// and zmm blocks, the per-call sub-range and a 64 KiB chunk.
func FuzzMulRows(f *testing.F) {
	lengths := []int{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097, 64<<10 + 3}
	for i := 0; i < 64; i++ {
		n := lengths[i%len(lengths)]
		lo, hi := 0, n
		if (i+i/len(lengths))%3 != 0 && n > 0 { // two in three over a strict sub-range
			lo = i % n
			hi = lo + (n-lo)*(i%7+1)/8
		}
		f.Add(uint8(1+i%19), uint8(1+i%40), uint8(i%64), n, lo, hi, int64(i))
	}
	f.Fuzz(func(t *testing.T, rows, cols, off uint8, n, lo, hi int, seed int64) {
		if rows == 0 || cols == 0 || n < 0 || n > 1<<17 || lo < 0 || lo > hi || hi > n {
			t.Skip()
		}
		const guard = 64
		rng := rand.New(rand.NewSource(seed))
		coef := randRows(rng, int(rows), int(cols))
		// Shard j is bytes [lo,hi) of n at offset off+j of its backing
		// array, so the shards of one call are not mutually aligned either.
		inBack := randRows(rng, int(cols), 2*guard+int(off)+int(cols)+n)
		outBack := randRows(rng, int(rows), 2*guard+int(off)+int(rows)+n)
		shards := func(backs [][]byte) [][]byte {
			v := make([][]byte, len(backs))
			for j, back := range backs {
				v[j] = back[guard+int(off)+j:][lo:hi:hi]
			}
			return v
		}
		in, inOrig := shards(inBack), cloneRows(inBack)
		want := cloneRows(outBack)
		mulRowsScalar(coef, shards(want), in)
		eachTier(func(tier string) {
			got := cloneRows(outBack)
			var tabs RowTables
			tabs.Set(coef)
			tabs.MulRows(shards(got), in)
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: output row %d (array of %d B, view at %d) differs from the scalar reference inside or outside [%d,%d) of it",
						tier, i, len(got[i]), guard+int(off)+i, lo, hi)
				}
			}
			for j := range in {
				if !bytes.Equal(inBack[j], inOrig[j]) {
					t.Fatalf("%s: input column %d was written", tier, j)
				}
			}
		})
	})
}

// BenchmarkMulRows32x8 is the RS(32,8) encode shape: 32 input columns
// of 64 KiB into 8 fused output rows, once per tier; bytes/s counts
// input bytes.
func BenchmarkMulRows32x8(b *testing.B) {
	benchMulRows(b, 8)
}

// BenchmarkMulRows32x5 is the mean decode shape at wan_ec's 1 % packet
// loss: about 15 % of 64 KiB chunks lose a packet, ≈ 4.8 of 32 shards.
func BenchmarkMulRows32x5(b *testing.B) {
	benchMulRows(b, 5)
}

// BenchmarkMulRows32x2 is a light decode shape (2 lost shards).
func BenchmarkMulRows32x2(b *testing.B) {
	benchMulRows(b, 2)
}

func benchMulRows(b *testing.B, rows int) {
	rng := rand.New(rand.NewSource(1))
	const cols, n = 32, 64 << 10
	coef, in, out := randRows(rng, rows, cols), randRows(rng, cols, n), randRows(rng, rows, n)
	eachTier(func(name string) {
		b.Run(name, func(b *testing.B) {
			var tabs RowTables
			tabs.Set(coef)
			b.SetBytes(cols * n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tabs.MulRows(out, in)
			}
		})
	})
}

// BenchmarkRowTablesSet32x8 is what ec.NewRS and every Reconstruct pay
// to pack a matrix, in each tier's form.
func BenchmarkRowTablesSet32x8(b *testing.B) {
	coef := randRows(rand.New(rand.NewSource(1)), 8, 32)
	eachTier(func(name string) {
		b.Run(name, func(b *testing.B) {
			var tabs RowTables
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tabs.Set(coef)
			}
		})
	})
}
