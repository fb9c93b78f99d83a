package cpuid

// AVX2 reports whether the CPU and the OS run AVX2 code.
func AVX2() bool

// AVX512 reports whether the CPU and the OS run AVX-512 code of the
// subsets F, DQ, BW and VL, and AVX2 code.
func AVX512() bool
