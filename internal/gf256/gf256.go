// Package gf256 implements arithmetic over the finite field GF(2^8)
// with the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D), the
// field used by Reed–Solomon codes such as those in Intel ISA-L that
// the paper benchmarks against (§5.1.1). It provides scalar and vector
// operations, the matrix routines needed by a systematic MDS code, and
// the fused multi-row kernel (RowTables) that applies such a matrix to
// shard data.
//
// That kernel has three bodies behind one seam, chosen once at package
// init from CPUID and reported by Kernel: GFNI (one VGF2P8AFFINEQB per
// 32 input bytes and output row — ISA-L's kernel shape), AVX2 (two
// VPSHUFB nibble lookups), both amd64 assembly, and the portable Go
// body every other build runs and the other two are tested against.
// All three produce the same bytes. There is nothing to configure.
package gf256

import (
	"crypto/subtle"
	"encoding/binary"
)

// polynomial is the primitive reduction polynomial of the field.
const polynomial = 0x11D

var (
	expTable [512]byte // exp[i] = α^i, doubled to skip the mod-255 in mul
	logTable [256]byte // log[x] = i s.t. α^i = x, log[0] unused
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= polynomial
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// mul returns a·b in GF(2^8).
func mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// inverse returns the multiplicative inverse of a; it panics on zero.
func inverse(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// exp returns α^n for n >= 0.
func exp(n int) byte { return expTable[n%255] }

// mulSlice sets dst[i] = c·src[i]; dst and src must have equal length
// and may be the same slice. It scales matrix rows, which are short, so
// it is the plain byte loop.
func mulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	mt := mulTableRow(c)
	for i, s := range src {
		dst[i] = mt[s]
	}
}

// MulAddSlice sets dst[i] ^= c·src[i], one row operation of the matrix
// algebra (Matrix.Mul, Matrix.InvertInto). Bulk shard data does not go
// through it: a matrix–vector product over shards is RowTables.MulRows,
// which reads each input once for up to 8 output rows.
//
// The word path loads 8 source bytes as one uint64 (encoding/binary
// view), looks each byte up in the constant's 256-entry product row,
// assembles the 8 products into a word, and folds it into dst with a
// single 64-bit read-modify-write — one memory round trip per 8 bytes
// instead of 8 byte-sized ones.
func MulAddSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		XORSlice(dst, src)
		return
	}
	mt := mulTableRow(c)
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		w := binary.NativeEndian.Uint64(src[i:])
		p := uint64(mt[byte(w)]) |
			uint64(mt[byte(w>>8)])<<8 |
			uint64(mt[byte(w>>16)])<<16 |
			uint64(mt[byte(w>>24)])<<24 |
			uint64(mt[byte(w>>32)])<<32 |
			uint64(mt[byte(w>>40)])<<40 |
			uint64(mt[byte(w>>48)])<<48 |
			uint64(mt[byte(w>>56)])<<56
		binary.NativeEndian.PutUint64(dst[i:], binary.NativeEndian.Uint64(dst[i:])^p)
	}
	for ; i < n; i++ {
		dst[i] ^= mt[src[i]]
	}
}

// XORSlice sets dst[i] ^= src[i] — the paper's "≈100 lines of C++ with
// AVX-512" XOR kernel. The body is the standard library's, which is
// SIMD assembly on amd64, arm64, ppc64 and loong64 and a word loop
// elsewhere; dst overlapping itself exactly is within its contract.
func XORSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf256: XORSlice length mismatch")
	}
	subtle.XORBytes(dst, dst, src)
}

// mulTables caches the 256-entry product row for each constant c, so
// vector kernels do one table lookup per byte.
var mulTables [256]*[256]byte

func init() {
	for c := 0; c < 256; c++ {
		var row [256]byte
		for x := 0; x < 256; x++ {
			row[x] = mul(byte(c), byte(x))
		}
		mulTables[c] = &row
	}
	initSIMDTables()
}

func mulTableRow(c byte) *[256]byte { return mulTables[c] }
