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

// lineLimit8 is laneLimit8 on one line's pad q (the line mode): value j of
// row i of v is the swept average, limiter included, of interface 8i + j,
// whose stencil m2…p2 is q[8i+j … 8i+j+4], and every lane takes the
// weights and α of k's lane line. q must reach 8·len(v)+4 values. See
// lanes8_amd64.s.
//
//go:noescape
func lineLimit8(q *float64, v [][8]float64, k *laneCoef[[8]float64], line int)

// laneFlux8 is laneFlux on eight lanes. See lanes8_amd64.s.
//
//go:noescape
func laneFlux8(q, v [][8]float64, k *laneCoef[[8]float64])

// lineFlux8 clips the fluxes v[i]·ξ of interfaces i = 0..n of one line's
// pad q to [0, q[i+2]] and writes its n updated cells, eight a vector, to
// dst[0..n−1], or mirrored, cell j to dst[n−1−j], as advance does; n ≥ 8.
// See lanes8_amd64.s.
//
//go:noescape
func lineFlux8(q, v *float64, xi float64, dst *float64, n int, mirrored bool)

// lineIn8 sets dst[i] = src[i], or with mirrored dst[n−1−i] = src[i], for
// i < n, eight values a vector: a line into its pad; n ≥ 8. See
// lanes8_amd64.s.
//
//go:noescape
func lineIn8(dst, src *float64, n int, mirrored bool)

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
