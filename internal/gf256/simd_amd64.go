package gf256

// detect picks the fastest mulGroup body this CPU and OS can run. Both
// assembly bodies are VEX-encoded on ymm registers, so both need AVX
// with the OS saving ymm state (OSXSAVE, XCR0 bits 1–2) and AVX2; the
// GFNI body needs the GFNI bit on top, and no AVX-512.
func detect() tier {
	const osxsave, avx, avx2Bit, gfniBit = 1 << 27, 1 << 28, 1 << 5, 1 << 8
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	// XGETBV faults without OSXSAVE, so the order of the tests matters.
	if maxLeaf < 7 || ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&6 != 6 {
		return portable
	}
	switch _, ebx7, ecx7, _ := cpuid(7, 0); {
	case ebx7&avx2Bit == 0:
		return portable
	case ecx7&gfniBit == 0:
		return avx2
	}
	return gfni
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0.
func xgetbv() uint32

// mulGroupAVX2 and mulGroupGFNI are MulRows for one group of ≤ 8 rows
// whose tables start at tab, over bytes [lo,hi) with hi-lo ≥ 32. They
// check no bounds (RowTables.MulRows has), load and store unaligned
// 32-byte blocks inside [lo,hi) only, the last one overlapping its
// predecessor when hi-lo is not a multiple of 32, and need len(in) ≥ 1.
//
//go:noescape
func mulGroupAVX2(tab *byte, out, in [][]byte, lo, hi int)

//go:noescape
func mulGroupGFNI(tab *byte, out, in [][]byte, lo, hi int)
