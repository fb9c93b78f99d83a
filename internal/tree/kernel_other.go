//go:build !amd64

package tree

// haveAVX2: there is no vector kernel off amd64; every target takes
// kernelBatched.
const haveAVX2 = false

func kernelBlock(x, y, z, m []float64, tab *[2]float64, b *block) {
	panic("tree: no vector kernel on this architecture")
}
