package advect

// laneLimit computes, for interfaces i = 0..len(v)−1 of four padded lines
// held lane-interleaved in q, advance's swept average
// v = w0·m2 + w1·m1 + w2·c0 + w3·p1 + w4·p2 of the stencil q[i..i+4] into
// v[i], the limiter included: a lane that fails advance's accept test takes
// mpBound, every other lane keeps v. See lanes_amd64.s.
//
//go:noescape
func laneLimit(q, v [][4]float64, k *laneCoef)

// laneFlux clips the fluxes v·ξ of the len(v) interfaces to [0, donor] and
// writes the n = len(v) − 1 updated cells over v[0..n−1], as advance does.
// See lanes_amd64.s.
//
//go:noescape
func laneFlux(q, v [][4]float64, k *laneCoef)

// laneIn sets rows[m][k] = w[m + k·laneStride], or with mirrored
// w[len(rows)−1−m + k·laneStride], four rows per 4×4 transpose; len(rows)
// is a multiple of 4. See lanes_amd64.s.
//
//go:noescape
func laneIn(rows [][4]float64, w []float64, laneStride int, mirrored bool)

// laneOut is laneIn the other way: w[m + k·laneStride], or with mirrored
// w[len(rows)−1−m + k·laneStride], = rows[m][k].
//
//go:noescape
func laneOut(w []float64, laneStride int, mirrored bool, rows [][4]float64)
