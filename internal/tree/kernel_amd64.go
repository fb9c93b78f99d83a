package tree

import "vlasov6d/internal/cpuid"

// haveAVX2 says the CPU and OS run the AVX2 block kernel.
var haveAVX2 = cpuid.AVX2()

// kernelBlock is kernelBatched on four targets at once, one per AVX2 lane,
// bit-identical to four kernelBatched calls wherever e2·invRs2 ≥
// 2^gTabMinExp (see kernel_amd64.s). y, z and m are at least as long as x.
//
//go:noescape
func kernelBlock(x, y, z, m []float64, tab *[2]float64, b *block)
