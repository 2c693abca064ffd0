// Package ec implements the two erasure-coding schemes the paper layers
// on top of the SDR bitmap (§4.1.2, §5.1.1, Appendix B):
//
//   - XORCode: the simple RAID-style code where the i-th of m parity
//     blocks is the XOR of all data blocks whose index j satisfies
//     j mod m == i. It tolerates at most one lost block per modulo
//     group but encodes at near-memory-bandwidth speed.
//   - RSCode: a systematic Reed–Solomon (Maximum Distance Separable)
//     code over GF(2^8) that recovers from any m lost blocks among the
//     k+m total, the stand-in for Intel ISA-L used in Fig 11 — with
//     ISA-L's kernel shape where the CPU allows: shard bytes go through
//     gf256.RowTables.MulRows, a GFNI or AVX2 assembly body on amd64
//     and portable Go elsewhere (gf256.Kernel says which), all of them
//     producing the same parity.
//
// Both operate on equal-length byte shards, matching SDR chunks, on the
// caller's goroutine; Fig 11 derives the cores that hide encoding
// behind injection from that single-core rate. Encode works through
// whole shards; a decode rewrites only the byte spans it is given, so a
// receiver that lost a few packets of a chunk rebuilds those packets'
// bytes, not the chunk. XOR shard bytes go through gf256.XORSlice, the
// standard library's SIMD XOR.
package ec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"sdrrdma/internal/gf256"
)

// Code is a (k, m) erasure code over equal-length shards.
type Code interface {
	// K returns the number of data shards per submessage.
	K() int
	// M returns the number of parity shards per submessage.
	M() int
	// Encode computes the m parity shards from the k data shards.
	// All shards must have identical length; parity shards are
	// overwritten.
	Encode(data, parity [][]byte) error
	// CanRecover reports whether the data can be reconstructed given
	// the presence mask over the k+m shards (data first, then parity).
	CanRecover(present []bool) bool
	// Reconstruct recovers the missing *data* shards in place, given
	// shards (k data followed by m parity, all the same length; missing
	// entries must still be allocated buffers) and the presence mask:
	// ReconstructSpans over whole shards, after which every data shard
	// is marked present. Present shards are left untouched.
	Reconstruct(shards [][]byte, present []bool) error
	// ReconstructSpans writes the bytes of the missing data shards that
	// lie in spans, each a half-open byte range [lo, hi) of every
	// shard, and leaves every other byte, present shards and the mask
	// untouched. Inside the spans it writes exactly what Reconstruct
	// would. Spans may be empty, unsorted, adjacent or overlapping; an
	// empty list writes nothing.
	ReconstructSpans(shards [][]byte, present []bool, spans [][2]int) error
}

// errUnrecoverable is returned by Reconstruct when too many shards were
// lost for the code to recover — the SDR reliability layer reacts by
// falling back to Selective Repeat for the submessage (§4.1.2).
var errUnrecoverable = errors.New("ec: too many shards lost to reconstruct")

// checkSpans is the shape check of a decode: n shards of one length,
// a mask of n entries and spans inside the shards. It runs before
// anything is written, so a short buffer fails the call instead of
// being written past.
func checkSpans(shards [][]byte, present []bool, n int, spans [][2]int) error {
	if len(shards) != n || len(present) != n {
		return fmt.Errorf("ec: decode wants %d shards and presence flags, got %d and %d", n, len(shards), len(present))
	}
	size := len(shards[0])
	for _, s := range shards {
		if len(s) != size {
			return fmt.Errorf("ec: shard size mismatch: %d vs %d", len(s), size)
		}
	}
	for _, sp := range spans {
		if sp[0] < 0 || sp[0] > sp[1] || sp[1] > size {
			return fmt.Errorf("ec: span [%d,%d) outside %d-byte shards", sp[0], sp[1], size)
		}
	}
	return nil
}

// whole is the one span of a whole-shard decode: every byte of shards
// (checkSpans rejects an empty shard list).
func whole(shards [][]byte) (w [1][2]int) {
	if len(shards) > 0 {
		w[0][1] = len(shards[0])
	}
	return w
}

// markData marks the k data shards present once a whole-shard decode
// rebuilt them (err nil) and returns err.
func markData(err error, present []bool, k int) error {
	if err == nil {
		for j := range present[:k] {
			present[j] = true
		}
	}
	return err
}

func checkShardGeometry(data, parity [][]byte, k, m int) error {
	if len(data) != k || len(parity) != m {
		return fmt.Errorf("ec: got %d data + %d parity shards, want %d + %d",
			len(data), len(parity), k, m)
	}
	size := len(data[0])
	for _, group := range [2][][]byte{data, parity} {
		for _, s := range group {
			if len(s) != size {
				return fmt.Errorf("ec: shard size mismatch: %d vs %d", len(s), size)
			}
		}
	}
	if size == 0 {
		return errors.New("ec: empty shards")
	}
	return nil
}

// --- XOR code -----------------------------------------------------------

// XORCode is the modulo-group XOR code from §5.1.1.
type XORCode struct {
	k, m int
}

// NewXOR builds an XOR(k, m) code. m must divide k so that every modulo
// group has k/m data blocks, matching the paper's Appendix B analysis
// (n = k/m + 1 blocks per group including parity).
func NewXOR(k, m int) (*XORCode, error) {
	if k <= 0 || m <= 0 || k%m != 0 {
		return nil, fmt.Errorf("ec: XOR requires m | k, got k=%d m=%d", k, m)
	}
	return &XORCode{k: k, m: m}, nil
}

func (c *XORCode) K() int { return c.k }
func (c *XORCode) M() int { return c.m }

// Encode computes parity[i] = XOR of data[j] for j mod m == i.
func (c *XORCode) Encode(data, parity [][]byte) error {
	if err := checkShardGeometry(data, parity, c.k, c.m); err != nil {
		return err
	}
	for i, p := range parity {
		copy(p, data[i])
		for j := i + c.m; j < c.k; j += c.m {
			gf256.XORSlice(p, data[j])
		}
	}
	return nil
}

// groupLoss counts missing blocks per modulo group; group g holds data
// blocks {j : j mod m == g} and parity block g.
func (c *XORCode) groupLoss(present []bool) []int {
	loss := make([]int, c.m)
	for j := 0; j < c.k; j++ {
		if !present[j] {
			loss[j%c.m]++
		}
	}
	for g := 0; g < c.m; g++ {
		if !present[c.k+g] {
			loss[g]++
		}
	}
	return loss
}

// CanRecover reports true iff every modulo group lost at most one block.
func (c *XORCode) CanRecover(present []bool) bool {
	if len(present) != c.k+c.m {
		return false
	}
	for _, l := range c.groupLoss(present) {
		if l > 1 {
			return false
		}
	}
	return true
}

// Reconstruct repairs at most one missing data block per modulo group
// from its group's parity and surviving data blocks.
func (c *XORCode) Reconstruct(shards [][]byte, present []bool) error {
	w := whole(shards)
	return markData(c.ReconstructSpans(shards, present, w[:]), present, c.k)
}

// ReconstructSpans is Reconstruct restricted to spans: each missing
// block's bytes in a span are its group's parity XOR the group's
// surviving data blocks there.
func (c *XORCode) ReconstructSpans(shards [][]byte, present []bool, spans [][2]int) error {
	if err := checkSpans(shards, present, c.k+c.m, spans); err != nil {
		return err
	}
	if !c.CanRecover(present) {
		return errUnrecoverable
	}
	for missing := 0; missing < c.k; missing++ {
		if present[missing] {
			continue
		}
		g := missing % c.m
		for _, sp := range spans {
			out := shards[missing][sp[0]:sp[1]]
			copy(out, shards[c.k+g][sp[0]:sp[1]]) // start from parity
			for j := g; j < c.k; j += c.m {
				if j != missing {
					gf256.XORSlice(out, shards[j][sp[0]:sp[1]])
				}
			}
		}
	}
	return nil
}

// --- Reed–Solomon (MDS) code ---------------------------------------------

// RSCode is a systematic Reed–Solomon code: any k of the k+m shards
// reconstruct the data. One RSCode is safe for concurrent Encode and
// decode calls.
type RSCode struct {
	k, m int
	// enc is the (k+m)×k systematic encoding matrix: identity on top,
	// parity rows below.
	enc *gf256.Matrix
	// encTabs is the parity rows of enc packed for the fused kernel.
	encTabs gf256.RowTables
	// scratch recycles the per-call decode workspace, which depends on
	// the erasure pattern and so cannot live on the shared code.
	scratch sync.Pool // of *decodeScratch
}

// decodeScratch is the workspace of one decode with e data shards
// lost.
type decodeScratch struct {
	read, lost []int           // the k shards read (present data, then e parity) and the lost data shards
	mat        []byte          // the e×e system of the parity rows read over the lost columns, and its inverse after it
	coef       []byte          // the e decode rows over the shards read, row-major
	rows       [][]byte        // views of coef
	tabs       gf256.RowTables // rows, packed
	in, out    [][]byte        // the shards read and the lost shards, cut to one span
}

// NewRS builds an RS(k, m) code. k+m must not exceed 255: shard r is
// the evaluation at α^r, and α has order 255, so a 256th shard would
// repeat the first and the code would no longer be MDS.
func NewRS(k, m int) (*RSCode, error) {
	if k <= 0 || m < 0 || k+m > 255 {
		return nil, fmt.Errorf("ec: RS requires 0<k, 0<=m, k+m<=255; got k=%d m=%d", k, m)
	}
	v := gf256.Vandermonde(k+m, k)
	topInv, err := v.SubMatrix(0, k, 0, k).Invert()
	if err != nil {
		return nil, fmt.Errorf("ec: building systematic matrix: %w", err)
	}
	c := &RSCode{k: k, m: m, enc: v.Mul(topInv)}
	rows := make([][]byte, m)
	for i := range rows {
		rows[i] = c.enc.Row(k + i)
	}
	c.encTabs.Set(rows)
	c.scratch.New = func() any { return new(decodeScratch) }
	return c, nil
}

func (c *RSCode) K() int { return c.k }
func (c *RSCode) M() int { return c.m }

// Encode computes the m parity shards — the GF(2^8) product of the
// parity rows of enc with the data columns, 8 rows per pass over the
// data.
func (c *RSCode) Encode(data, parity [][]byte) error {
	if err := checkShardGeometry(data, parity, c.k, c.m); err != nil {
		return err
	}
	c.encTabs.MulRows(parity, data)
	return nil
}

// CanRecover reports true iff at least k of the k+m shards are present.
func (c *RSCode) CanRecover(present []bool) bool {
	if len(present) != c.k+c.m {
		return false
	}
	n := 0
	for _, p := range present {
		if p {
			n++
		}
	}
	return n >= c.k
}

// Reconstruct recovers missing data shards from any k present shards.
func (c *RSCode) Reconstruct(shards [][]byte, present []bool) error {
	w := whole(shards)
	return markData(c.ReconstructSpans(shards, present, w[:]), present, c.k)
}

// ReconstructSpans recovers the missing data shards' bytes in spans
// from the first k present shards: the present data shards and e
// parity shards, e the number of data shards lost. The code is
// systematic, so the decode reduces to the e×e system A of those
// parity rows over the lost columns: with P the same rows over the
// present data columns,
//
//	lost = A⁻¹ · (parity read + P · present data)
//
// so one small inversion gives the e decode rows over the k shards
// read, applied per span, 8 rows per pass. Every square submatrix of
// an MDS code's parity rows is invertible, and the code determines the
// lost bytes, so they are what inverting the k×k rows of enc for the
// shards read would give.
func (c *RSCode) ReconstructSpans(shards [][]byte, present []bool, spans [][2]int) error {
	if err := checkSpans(shards, present, c.k+c.m, spans); err != nil {
		return err
	}
	if !c.CanRecover(present) {
		return errUnrecoverable
	}
	s := c.scratch.Get().(*decodeScratch)
	defer c.scratch.Put(s)
	s.read, s.lost = s.read[:0], s.lost[:0]
	for r := 0; len(s.read) < c.k; r++ {
		if present[r] {
			s.read = append(s.read, r)
		} else if r < c.k {
			s.lost = append(s.lost, r)
		}
	}
	if len(s.lost) == 0 || len(spans) == 0 {
		return nil
	}
	if err := s.solve(c); err != nil {
		return err
	}
	for _, sp := range spans {
		s.in, s.out = cut(s.in, shards, s.read, sp), cut(s.out, shards, s.lost, sp)
		s.tabs.MulRows(s.out, s.in)
	}
	return nil
}

// solve packs the decode rows of the lost shards over the shards read
// into s.tabs.
func (s *decodeScratch) solve(c *RSCode) error {
	k, e := c.k, len(s.lost)
	used := s.read[k-e:] // the parity rows read
	s.mat = slices.Grow(s.mat[:0], 2*e*e)[:2*e*e]
	sys := gf256.Matrix{Rows: e, Cols: e, Data: s.mat[:e*e]}
	inv := gf256.Matrix{Rows: e, Cols: e, Data: s.mat[e*e:]}
	for x, r := range used {
		for y, j := range s.lost {
			sys.Data[x*e+y] = c.enc.Row(r)[j]
		}
	}
	if err := sys.InvertInto(&inv); err != nil {
		// Cannot happen for an MDS code; report rather than panic.
		return fmt.Errorf("ec: decode matrix singular: %w", err)
	}
	s.coef, s.rows = slices.Grow(s.coef[:0], e*k)[:e*k], s.rows[:0]
	for y := range s.lost {
		// A⁻¹'s row times the parity rows, over every data column, then
		// kept at the present ones (read[x] ≥ x, so in place), then
		// A⁻¹'s row itself for the parity read.
		row := s.coef[y*k:][:k]
		clear(row)
		for x, r := range used {
			gf256.MulAddSlice(inv.Row(y)[x], row, c.enc.Row(r))
		}
		for x, j := range s.read[:k-e] {
			row[x] = row[j]
		}
		copy(row[k-e:], inv.Row(y))
		s.rows = append(s.rows, row)
	}
	s.tabs.Set(s.rows)
	return nil
}

// cut sets dst to bytes sp of shards[i] for each i in idx.
func cut(dst, shards [][]byte, idx []int, sp [2]int) [][]byte {
	dst = dst[:0]
	for _, i := range idx {
		dst = append(dst, shards[i][sp[0]:sp[1]])
	}
	return dst
}

// --- Appendix B success probabilities ------------------------------------

// MDSSuccessProb returns the probability that a data submessage encoded
// with MDS(k, m) is recoverable when each of the k+m chunks drops
// independently with probability p (Appendix B.0.1):
//
//	P = Σ_{i=0}^{m} C(k+m, i) p^i (1-p)^(k+m-i)
func MDSSuccessProb(k, m int, p float64) float64 {
	total := 0.0
	n := k + m
	for i := 0; i <= m; i++ {
		total += binomPMF(n, i, p)
	}
	if total > 1 {
		total = 1
	}
	return total
}

// XORSuccessProb returns the probability that a data submessage encoded
// with XOR(k, m) is recoverable under i.i.d. chunk drop probability p
// (Appendix B.0.2). With n = k/m + 1 blocks per modulo group:
//
//	P = [(1-p)^n + n·p·(1-p)^(n-1)]^m
func XORSuccessProb(k, m int, p float64) float64 {
	n := float64(k/m) + 1
	group := math.Pow(1-p, n) + n*p*math.Pow(1-p, n-1)
	return math.Pow(group, float64(m))
}

// binomPMF returns C(n, i) p^i (1-p)^(n-i), computed in log space for
// numerical stability at the paper's extreme drop rates (1e-8).
func binomPMF(n, i int, p float64) float64 {
	if p == 0 {
		if i == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if i == n {
			return 1
		}
		return 0
	}
	logC := lgamma(n+1) - lgamma(i+1) - lgamma(n-i+1)
	return math.Exp(logC + float64(i)*math.Log(p) + float64(n-i)*math.Log(1-p))
}

func lgamma(x int) float64 {
	v, _ := math.Lgamma(float64(x))
	return v
}
