//go:build !amd64

package advect

// There is no vector kernel off amd64: laneKernel is false there, so
// StepLanes steps every line through Step/StepOpen.

func laneLimit(q, v [][4]float64, reject []uint8, k *laneCoef) bool {
	panic("advect: no vector kernel on this architecture")
}

func laneFlux(q, v [][4]float64, k *laneCoef) {
	panic("advect: no vector kernel on this architecture")
}
