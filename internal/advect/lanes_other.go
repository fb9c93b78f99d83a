//go:build !amd64

package advect

// There is no vector kernel off amd64: laneKernel is false there, so
// StepLanes steps every line through Step/StepOpen.

func laneLimit(q, v [][4]float64, k *laneCoef) {
	panic("advect: no vector kernel on this architecture")
}

func laneFlux(q, v [][4]float64, k *laneCoef) {
	panic("advect: no vector kernel on this architecture")
}

func laneIn(rows [][4]float64, w []float64, laneStride int, mirrored bool) {
	panic("advect: no vector kernel on this architecture")
}

func laneOut(w []float64, laneStride int, mirrored bool, rows [][4]float64) {
	panic("advect: no vector kernel on this architecture")
}
