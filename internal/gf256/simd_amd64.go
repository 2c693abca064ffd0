package gf256

// detect picks the fastest mulGroup body this CPU and OS can run. The
// ymm bodies are VEX-encoded, so they need AVX with the OS saving ymm
// state (OSXSAVE, XCR0 bits 1–2) and AVX2; the ymm GFNI body needs the
// GFNI bit on top. The zmm GFNI body is EVEX-encoded: it needs
// AVX512F as well, with the OS saving the opmask and all 32 zmm
// registers too (XCR0 bits 5–7).
func detect() tier {
	const osxsave, avx, avx2Bit, avx512fBit, gfniBit = 1 << 27, 1 << 28, 1 << 5, 1 << 16, 1 << 8
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	// XGETBV faults without OSXSAVE, so the order of the tests matters.
	if maxLeaf < 7 || ecx1&(osxsave|avx) != osxsave|avx {
		return portable
	}
	xcr0 := xgetbv()
	switch _, ebx7, ecx7, _ := cpuid(7, 0); {
	case xcr0&6 != 6 || ebx7&avx2Bit == 0:
		return portable
	case ecx7&gfniBit == 0:
		return avx2
	case ebx7&avx512fBit == 0 || xcr0&0xE6 != 0xE6:
		return gfni
	}
	return gfni512
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0.
func xgetbv() uint32

// mulGroupAVX2, mulGroupGFNI and mulGroupGFNI512 are MulRows for one
// group of ≤ 8 rows whose tables start at tab, over bytes [lo,hi) with
// hi-lo ≥ 32 (≥ 64 for mulGroupGFNI512). They check no bounds
// (RowTables.MulRows has), load and store unaligned 32-byte (64-byte)
// blocks inside [lo,hi) only, the last one overlapping its predecessor
// when hi-lo is not a multiple of the block, and need len(in) ≥ 1.
//
//go:noescape
func mulGroupAVX2(tab *byte, out, in [][]byte, lo, hi int)

//go:noescape
func mulGroupGFNI(tab *byte, out, in [][]byte, lo, hi int)

//go:noescape
func mulGroupGFNI512(tab *byte, out, in [][]byte, lo, hi int)
