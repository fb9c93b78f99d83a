package cpuid

// AVX2 reports whether the CPU and the OS run AVX2 code.
func AVX2() bool
