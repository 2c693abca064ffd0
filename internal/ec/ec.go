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
// Both operate on equal-length byte shards, matching SDR chunks, and
// work through whole shards on the caller's goroutine; Fig 11 derives
// the cores that hide encoding behind injection from that single-core
// rate. XOR shard bytes go through gf256.XORSlice, the standard
// library's SIMD XOR.
package ec

import (
	"errors"
	"fmt"
	"math"
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
	// shards (k data followed by m parity; missing entries must still
	// be allocated buffers) and the presence mask. Present shards are
	// left untouched.
	Reconstruct(shards [][]byte, present []bool) error
}

// errUnrecoverable is returned by Reconstruct when too many shards were
// lost for the code to recover — the SDR reliability layer reacts by
// falling back to Selective Repeat for the submessage (§4.1.2).
var errUnrecoverable = errors.New("ec: too many shards lost to reconstruct")

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
	if len(shards) != c.k+c.m || len(present) != c.k+c.m {
		return fmt.Errorf("ec: XOR Reconstruct wants %d shards", c.k+c.m)
	}
	if !c.CanRecover(present) {
		return errUnrecoverable
	}
	for missing := 0; missing < c.k; missing++ {
		if present[missing] {
			continue
		}
		g := missing % c.m
		out := shards[missing]
		copy(out, shards[c.k+g]) // start from parity
		for j := g; j < c.k; j += c.m {
			if j != missing {
				gf256.XORSlice(out, shards[j])
			}
		}
		present[missing] = true
	}
	return nil
}

// --- Reed–Solomon (MDS) code ---------------------------------------------

// RSCode is a systematic Reed–Solomon code: any k of the k+m shards
// reconstruct the data. One RSCode is safe for concurrent Encode and
// Reconstruct calls.
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

// decodeScratch is the workspace of one Reconstruct call.
type decodeScratch struct {
	sub, inv  *gf256.Matrix   // rows of enc for the k shards used, and its inverse
	tabs      gf256.RowTables // the decode rows, packed
	avail     [][]byte        // the k shards used
	rows, out [][]byte        // decode rows of the lost data shards, and those shards
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
	c.scratch.New = func() any {
		return &decodeScratch{sub: gf256.NewMatrix(k, k), inv: gf256.NewMatrix(k, k),
			avail: make([][]byte, 0, k)}
	}
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

// Reconstruct recovers missing data shards from any k present shards:
// the rows of enc for those k shards are inverted, and the inverse's
// rows for the lost shards are applied to the k shards, 8 per pass.
func (c *RSCode) Reconstruct(shards [][]byte, present []bool) error {
	if len(shards) != c.k+c.m || len(present) != c.k+c.m {
		return fmt.Errorf("ec: RS Reconstruct wants %d shards", c.k+c.m)
	}
	if !c.CanRecover(present) {
		return errUnrecoverable
	}
	s := c.scratch.Get().(*decodeScratch)
	defer c.scratch.Put(s)
	s.rows, s.out = s.rows[:0], s.out[:0]
	for j := 0; j < c.k; j++ {
		if !present[j] {
			s.rows = append(s.rows, s.inv.Row(j)) // a view: filled by InvertInto below
			s.out = append(s.out, shards[j])
		}
	}
	if len(s.out) == 0 {
		return nil
	}
	s.avail = s.avail[:0]
	for r := 0; len(s.avail) < c.k; r++ {
		if present[r] {
			copy(s.sub.Row(len(s.avail)), c.enc.Row(r))
			s.avail = append(s.avail, shards[r])
		}
	}
	if err := s.sub.InvertInto(s.inv); err != nil {
		// Cannot happen for an MDS matrix; report rather than panic.
		return fmt.Errorf("ec: decode matrix singular: %w", err)
	}
	s.tabs.Set(s.rows)
	s.tabs.MulRows(s.out, s.avail)
	for j := 0; j < c.k; j++ {
		present[j] = true
	}
	return nil
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
