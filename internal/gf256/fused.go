package gf256

import "encoding/binary"

// fusedRows is the number of output rows one pass of the fused kernel
// produces: one byte lane of a uint64 (portable body) or one ymm or zmm
// accumulator (assembly bodies) per row.
const fusedRows = 8

// fusedBlock is the number of byte positions the portable body
// accumulates before the scatter. 512 uint64 accumulators (4 KiB) plus
// the 2 KiB tables of the columns being folded in stay L1-resident.
const fusedBlock = 512

// tier names a body of the mulGroup kernel. They are ordered: a host
// that can run one can run every tier below it.
type tier uint8

const (
	portable tier = iota // the Go body in this file; every architecture
	avx2                 // amd64: VPSHUFB against two 16-entry nibble tables per coefficient
	gfni                 // amd64: VGF2P8AFFINEQB against one 8×8 bit matrix per coefficient (VEX, ymm)
	gfni512              // amd64: gfni's matrices at zmm width, two columns per VPTERNLOGQ (EVEX, AVX-512F)
)

// active is the tier Set packs tables for, chosen once from CPUID.
// Nothing but tests assigns it again: they run portable..active.
var active = detect()

// Kernel names the body shard bytes go through on this host:
// "gfni512", "gfni", "avx2" or "portable".
func Kernel() string { return [...]string{"portable", "avx2", "gfni", "gfni512"}[active] }

const (
	// simdBlock and zmmBlock are the bytes one ymm and one zmm register
	// hold: the assembly bodies load and store whole blocks only.
	simdBlock = 32
	zmmBlock  = 64
	// simdCallBytes bounds the input one assembly call reads. Assembly
	// cannot be preempted, so this bounds what a call adds to a GC
	// stop-the-world (≈ 10–20 µs at the measured GB/s).
	simdCallBytes = 128 << 10
)

// simdCoef[k] holds, for SIMD tier k, one entry of simdEntry[k] bytes
// per coefficient c, so Set copies entries instead of multiplying.
// avx2: c·x for x = 0..15, then c·(x<<4) — the product of an input byte
// is the XOR of one lookup per nibble. gfni, gfni512: the matrix of the
// GF(2)-linear map x ↦ c·x, byte 7-i holding the input bits that feed
// output bit i, as VGF2P8AFFINEQB reads it.
var (
	gfniMatrices = make([]byte, 256*8)
	simdEntry    = [...]int{avx2: 32, gfni: 8, gfni512: 8}
	simdCoef     = [...][]byte{avx2: make([]byte, 256*32), gfni: gfniMatrices, gfni512: gfniMatrices}
)

// initSIMDTables fills simdCoef where a SIMD tier can run. It is called
// once the log/exp tables mul needs are built.
func initSIMDTables() {
	for c := 0; c < 256 && active != portable; c++ {
		nib, mat := simdCoef[avx2][c*32:], simdCoef[gfni][c*8:]
		for x := 0; x < 16; x++ {
			nib[x], nib[16+x] = mul(byte(c), byte(x)), mul(byte(c), byte(x<<4))
		}
		for j := 0; j < 8; j++ {
			for i, p := 0, mul(byte(c), 1<<j); i < 8; i++ {
				mat[7-i] |= p >> i & 1 << j
			}
		}
	}
}

// RowTables is an r×n coefficient matrix in the form the fused kernel
// consumes: per group of up to 8 rows and per input column j, what the
// active tier needs to turn one input byte (portable) or one block
// (SIMD tiers) of column j into its contribution to all 8 output rows,
// so a matrix–vector product reads its inputs once per 8 rows instead
// of once per row. The zero value is ready for Set.
type RowTables struct {
	rows, cols int
	// tier is the form Set packed; MulRows dispatches on it, so tables
	// and body always agree.
	tier tier
	// portable: group g, column j at tabs[g*cols+j], a 256-entry table
	// whose entry x packs the group's products coef[i][j]·x into the
	// byte lanes of one word.
	tabs [][256]uint64
	// SIMD tiers: group g, column j, row i at simd[((g*cols+j)*8+i)*entry:],
	// rows past the last of a short group zero; and the coefficients
	// themselves, row-major, for shards shorter than one block.
	simd, coef []byte
}

// Set packs the coefficient rows coef[0..r), each of length n, reusing
// t's storage. Only the active tier's form is built: the SIMD forms are
// copied per coefficient from simdCoef; the portable tables are filled
// by doubling — multiplication by a constant is GF(2)-linear in the
// bits of x, so T[2^b ^ x] = T[2^b] ^ T[x] — from 8 field
// multiplications per row instead of 256.
func (t *RowTables) Set(coef [][]byte) {
	t.rows, t.cols, t.tier = len(coef), 0, active
	if len(coef) > 0 {
		t.cols = len(coef[0])
	}
	groups := (t.rows + fusedRows - 1) / fusedRows
	if t.tier != portable {
		t.setSIMD(coef, groups)
		return
	}
	n := groups * t.cols
	if cap(t.tabs) < n {
		t.tabs = make([][256]uint64, n)
	}
	t.tabs = t.tabs[:n]
	for k := range t.tabs {
		tab, g, j := &t.tabs[k], k/t.cols*fusedRows, k%t.cols
		tab[0] = 0
		for b := 0; b < 8; b++ {
			var base uint64
			for i, row := range coef[g:min(g+fusedRows, t.rows)] {
				base |= uint64(mul(row[j], 1<<b)) << (8 * i)
			}
			for x := 0; x < 1<<b; x++ {
				tab[1<<b|x] = tab[x] ^ base
			}
		}
	}
}

func (t *RowTables) setSIMD(coef [][]byte, groups int) {
	entry, src := simdEntry[t.tier], simdCoef[t.tier]
	n := groups * t.cols * fusedRows * entry
	if cap(t.simd) < n {
		t.simd = make([]byte, n)
	}
	t.simd, t.coef = t.simd[:n], t.coef[:0]
	for _, row := range coef {
		t.coef = append(t.coef, row[:t.cols]...)
	}
	dst := t.simd
	for g := 0; g < t.rows; g += fusedRows {
		for j := 0; j < t.cols; j++ {
			for i := g; i < g+fusedRows; i, dst = i+1, dst[entry:] {
				var c byte
				if i < t.rows {
					c = coef[i][j]
				}
				copy(dst[:entry], src[int(c)*entry:])
			}
		}
	}
}

// MulRows sets out[i][p] = Σ_j coef[i][j]·in[j][p] for every byte p of
// the r output rows, in one pass over the n inputs per 8 rows. Outputs
// are overwritten and must not alias inputs. MulRows panics, before
// writing anything, unless every input and output has the same length:
// the assembly bodies check no bounds, so this is the only guard
// between a short shard and a write past it.
func (t *RowTables) MulRows(out, in [][]byte) {
	if len(out) != t.rows || len(out) > 0 && len(in) != t.cols {
		panic("gf256: MulRows shape mismatch")
	}
	if len(out) == 0 {
		return
	}
	size := len(out[0])
	for _, shards := range [2][][]byte{in, out} {
		for _, s := range shards {
			if len(s) != size {
				panic("gf256: MulRows shard length mismatch")
			}
		}
	}
	switch {
	case t.tier == portable:
		for g := 0; g < t.rows; g += fusedRows {
			mulGroup(t.tabs[g/fusedRows*t.cols:][:t.cols], out[g:min(g+fusedRows, t.rows)], in, size)
		}
	case size < simdBlock || t.cols == 0:
		// No block fits (or nothing to sum), and the SIMD tiers carry no
		// byte-wise tables: the matrix algebra's row operation instead.
		for i, o := range out {
			clear(o)
			for j, s := range in {
				MulAddSlice(t.coef[i*t.cols+j], o, s)
			}
		}
	default:
		// One bounded assembly call per sub-range and group. A tail
		// shorter than a block joins the sub-range before it, so every
		// call holds a whole block for its overlapped final store. Shards
		// shorter than a zmm block take the ymm GFNI body.
		body, block := t.tier, simdBlock
		if body == gfni512 {
			if size >= zmmBlock {
				block = zmmBlock
			} else {
				body = gfni
			}
		}
		stride := t.cols * fusedRows * simdEntry[t.tier]
		span := max(block, simdCallBytes/t.cols&^(block-1))
		for p := 0; p < size; {
			q := p + span
			if size-q < block {
				q = size
			}
			for g := 0; g < t.rows; g += fusedRows {
				tab, o := &t.simd[g/fusedRows*stride], out[g:min(g+fusedRows, t.rows)]
				switch body {
				case gfni512:
					mulGroupGFNI512(tab, o, in, p, q)
				case gfni:
					mulGroupGFNI(tab, o, in, p, q)
				default:
					mulGroupAVX2(tab, o, in, p, q)
				}
			}
			p = q
		}
	}
}

// mulGroup is MulRows for one group of ≤ 8 rows with column tables
// tabs: the portable body, and the reference the assembly bodies
// (mulGroupAVX2, mulGroupGFNI, mulGroupGFNI512) are tested against.
func mulGroup(tabs [][256]uint64, out, in [][]byte, size int) {
	var acc [fusedBlock]uint64
	for lo := 0; lo < size; lo += fusedBlock {
		a := acc[:min(size-lo, fusedBlock)]
		clear(a)
		j := 0
		for ; j+4 <= len(in); j += 4 {
			t0, t1, t2, t3 := &tabs[j], &tabs[j+1], &tabs[j+2], &tabs[j+3]
			s0, s1, s2, s3 := in[j][lo:lo+len(a)], in[j+1][lo:lo+len(a)], in[j+2][lo:lo+len(a)], in[j+3][lo:lo+len(a)]
			for p := range a {
				a[p] ^= t0[s0[p]] ^ t1[s1[p]] ^ t2[s2[p]] ^ t3[s3[p]]
			}
		}
		for ; j < len(in); j++ {
			tab := &tabs[j]
			for p, x := range in[j][lo : lo+len(a)] {
				a[p] ^= tab[x]
			}
		}
		p := 0
		for ; p+8 <= len(a); p += 8 {
			transpose8x8((*[8]uint64)(a[p:]))
		}
		for i, o := range out {
			o = o[lo : lo+len(a)]
			for q := 0; q+8 <= len(o); q += 8 {
				binary.LittleEndian.PutUint64(o[q:], a[q+i])
			}
			for q := p; q < len(o); q++ {
				o[q] = byte(a[q] >> (8 * i))
			}
		}
	}
}

// transpose8x8 transposes w as an 8×8 byte matrix (word = row, byte
// lane = column) by swapping off-diagonal blocks of 4, 2 and 1 lanes:
// eight positions × eight rows in, eight rows × eight positions out.
func transpose8x8(w *[8]uint64) {
	const m4, m2, m1 = 0x00000000FFFFFFFF, 0x0000FFFF0000FFFF, 0x00FF00FF00FF00FF
	for i := 0; i < 4; i++ {
		a, b := w[i], w[i+4]
		w[i], w[i+4] = a&m4|b<<32, a>>32|b&^m4
	}
	for _, i := range [4]int{0, 1, 4, 5} {
		a, b := w[i], w[i+2]
		w[i], w[i+2] = a&m2|b&m2<<16, a>>16&m2|b&^m2
	}
	for i := 0; i < 8; i += 2 {
		a, b := w[i], w[i+1]
		w[i], w[i+1] = a&m1|b&m1<<8, a>>8&m1|b&^m1
	}
}
