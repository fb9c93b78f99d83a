//go:build !amd64

package advect

// There is no vector kernel off amd64: laneWidth is 0 there, so
// StepLanes steps every line through Step/StepOpen.

func laneLimit(q, v [][4]float64, k *laneCoef[[4]float64]) {
	panic("advect: no vector kernel on this architecture")
}

func laneFlux(q, v [][4]float64, k *laneCoef[[4]float64]) {
	panic("advect: no vector kernel on this architecture")
}

func laneIn(rows [][4]float64, w []float64, laneStride int, mirrored bool) {
	panic("advect: no vector kernel on this architecture")
}

func laneOut(w []float64, laneStride int, mirrored bool, rows [][4]float64) {
	panic("advect: no vector kernel on this architecture")
}

func laneLoad(rows [][4]float64, src *float64, step int) {
	panic("advect: no vector kernel on this architecture")
}

func laneStore(dst *float64, step int, rows [][4]float64) {
	panic("advect: no vector kernel on this architecture")
}

func laneLimit8(q, v [][8]float64, k *laneCoef[[8]float64]) {
	panic("advect: no vector kernel on this architecture")
}

func laneFlux8(q, v [][8]float64, k *laneCoef[[8]float64]) {
	panic("advect: no vector kernel on this architecture")
}

func laneIn8(rows [][8]float64, w []float64, laneStride int, mirrored bool) {
	panic("advect: no vector kernel on this architecture")
}

func laneOut8(w []float64, laneStride int, mirrored bool, rows [][8]float64) {
	panic("advect: no vector kernel on this architecture")
}

func laneLoad8(rows [][8]float64, src *float64, step int) {
	panic("advect: no vector kernel on this architecture")
}

func laneStore8(dst *float64, step int, rows [][8]float64) {
	panic("advect: no vector kernel on this architecture")
}

func laneSweep(k *laneCoef[[4]float64]) {
	panic("advect: no vector kernel on this architecture")
}

func laneSweep8(k *laneCoef[[8]float64]) {
	panic("advect: no vector kernel on this architecture")
}
