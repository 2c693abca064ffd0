package gf256

import "encoding/binary"

// fusedRows is the number of output rows one pass of the fused kernel
// produces: one byte lane of a uint64 per row.
const fusedRows = 8

// fusedBlock is the number of byte positions accumulated before the
// scatter. 512 uint64 accumulators (4 KiB) plus the 2 KiB tables of the
// columns being folded in stay L1-resident.
const fusedBlock = 512

// RowTables is an r×n coefficient matrix in the form the fused kernel
// consumes: for each group of up to 8 rows and each input column j, a
// 256-entry table whose entry x packs the group's products coef[i][j]·x
// into the byte lanes of one word. One lookup per input byte then
// yields that byte's contribution to 8 output rows, so a matrix–vector
// product reads its inputs once per 8 rows instead of once per row.
// The zero value is ready for Set.
type RowTables struct {
	rows, cols int
	tabs       [][256]uint64 // group g, column j at tabs[g*cols+j]
}

// Set packs the coefficient rows coef[0..r), each of length n, reusing
// t's storage. Multiplication by a constant is GF(2)-linear in the bits
// of x, so each table is filled by doubling — T[2^b ^ x] = T[2^b] ^ T[x]
// — from 8 field multiplications per row instead of 256.
func (t *RowTables) Set(coef [][]byte) {
	t.rows, t.cols = len(coef), 0
	if len(coef) > 0 {
		t.cols = len(coef[0])
	}
	n := (t.rows + fusedRows - 1) / fusedRows * t.cols
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
				base |= uint64(Mul(row[j], 1<<b)) << (8 * i)
			}
			for x := 0; x < 1<<b; x++ {
				tab[1<<b|x] = tab[x] ^ base
			}
		}
	}
}

// MulRows sets out[i][p] = Σ_j coef[i][j]·in[j][p] for p in [lo,hi):
// bytes [lo,hi) of all r output rows, in one pass over the n inputs per
// 8 rows. Outputs are overwritten and must not alias inputs.
func (t *RowTables) MulRows(out, in [][]byte, lo, hi int) {
	if len(out) != t.rows || len(out) > 0 && len(in) != t.cols {
		panic("gf256: MulRows shape mismatch")
	}
	for g := 0; g < t.rows; g += fusedRows {
		mulGroup(t.tabs[g/fusedRows*t.cols:][:t.cols], out[g:min(g+fusedRows, t.rows)], in, lo, hi)
	}
}

// mulGroup is MulRows for one group of ≤ 8 rows with column tables tabs.
func mulGroup(tabs [][256]uint64, out, in [][]byte, lo, hi int) {
	var acc [fusedBlock]uint64
	for ; lo < hi; lo += fusedBlock {
		a := acc[:min(hi-lo, fusedBlock)]
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
