//go:build !amd64

package cpuid

// AVX2 reports whether the CPU and the OS run AVX2 code: off amd64, never.
func AVX2() bool { return false }

// AVX512 reports whether the CPU and the OS run AVX-512 code: off amd64,
// never.
func AVX512() bool { return false }
