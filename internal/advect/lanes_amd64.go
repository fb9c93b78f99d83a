package advect

// laneLimit computes, for interfaces i = 0..len(v)−1 of four padded lines
// held lane-interleaved in q, advance's swept average
// v = w0·m2 + w1·m1 + w2·c0 + w3·p1 + w4·p2 of the stencil q[i..i+4] into
// v[i], the limiter included: a lane that fails advance's accept test takes
// mpBound, every other lane keeps v. See lanes_amd64.s.
//
//go:noescape
func laneLimit(q, v [][4]float64, k *laneCoef[[4]float64])

// laneFlux clips the fluxes v·ξ of the len(v) interfaces to [0, donor] and
// writes the n = len(v) − 1 updated cells over v[0..n−1], as advance does.
// See lanes_amd64.s.
//
//go:noescape
func laneFlux(q, v [][4]float64, k *laneCoef[[4]float64])

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

// laneLoad sets rows[m] to the four values at src + m·step, a pad row per
// 32-byte move; step (in values) may be negative. Every row must lie
// inside src's slice. See lanes_amd64.s.
//
//go:noescape
func laneLoad(rows [][4]float64, src *float64, step int)

// laneStore is laneLoad the other way: the four values at dst + m·step =
// rows[m].
//
//go:noescape
func laneStore(dst *float64, step int, rows [][4]float64)

// laneLimit8 is laneLimit on eight lanes, one line per AVX-512 lane. See
// lanes8_amd64.s.
//
//go:noescape
func laneLimit8(q, v [][8]float64, k *laneCoef[[8]float64])

// laneFlux8 is laneFlux on eight lanes. See lanes8_amd64.s.
//
//go:noescape
func laneFlux8(q, v [][8]float64, k *laneCoef[[8]float64])

// laneIn8 is laneIn on eight lanes, eight rows per 8×8 transpose;
// len(rows) is a multiple of 8. See lanes8_amd64.s.
//
//go:noescape
func laneIn8(rows [][8]float64, w []float64, laneStride int, mirrored bool)

// laneOut8 is laneIn8 the other way. See lanes8_amd64.s.
//
//go:noescape
func laneOut8(w []float64, laneStride int, mirrored bool, rows [][8]float64)

// laneLoad8 is laneLoad on eight lanes, a pad row per 64-byte move. See
// lanes8_amd64.s.
//
//go:noescape
func laneLoad8(rows [][8]float64, src *float64, step int)

// laneStore8 is laneLoad8 the other way.
//
//go:noescape
func laneStore8(dst *float64, step int, rows [][8]float64)

// laneSweep sets k's swept-average weights and steepness from its
// fractions xi, each lane as SweptWeights and steepness do. See
// lanes_amd64.s.
//
//go:noescape
func laneSweep(k *laneCoef[[4]float64])

// laneSweep8 is laneSweep on eight lanes. See lanes8_amd64.s.
//
//go:noescape
func laneSweep8(k *laneCoef[[8]float64])
