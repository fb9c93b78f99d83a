package cpuid

import "testing"

// TestAVX512ImpliesAVX2: the eight-lane kernels run where AVX512 holds and
// fall back on the four-lane ones, so AVX512 must never hold without AVX2.
func TestAVX512ImpliesAVX2(t *testing.T) {
	if AVX512() && !AVX2() {
		t.Fatal("AVX512 without AVX2")
	}
	t.Logf("AVX2 %v, AVX512 %v", AVX2(), AVX512())
}
