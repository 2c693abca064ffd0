//go:build !amd64

package gf256

// detect reports the portable body: the SIMD ones are amd64 assembly.
func detect() tier { return portable }

// Never called: Set packs SIMD tables only for a tier detect returned.
func mulGroupAVX2(tab *byte, out, in [][]byte, lo, hi int)    { panic("gf256: no AVX2 body") }
func mulGroupGFNI(tab *byte, out, in [][]byte, lo, hi int)    { panic("gf256: no GFNI body") }
func mulGroupGFNI512(tab *byte, out, in [][]byte, lo, hi int) { panic("gf256: no GFNI512 body") }
