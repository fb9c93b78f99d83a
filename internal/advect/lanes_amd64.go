package advect

// laneLimit computes, for interfaces i = 0..len(reject)−1 of four padded
// lines held lane-interleaved in q, the swept average
// v = w0·m2 + w1·m1 + w2·c0 + w3·p1 + w4·p2 of the stencil q[i..i+4] into
// v[i], and sets bit k of reject[i] where lane k fails advance's accept
// test. It reports whether any lane failed. See lanes_amd64.s.
//
//go:noescape
func laneLimit(q, v [][4]float64, reject []uint8, k *laneCoef) bool

// laneFlux clips the fluxes v·ξ of the len(v) interfaces to [0, donor] and
// writes the n = len(v) − 1 updated cells over v[0..n−1], as advance does.
// See lanes_amd64.s.
//
//go:noescape
func laneFlux(q, v [][4]float64, k *laneCoef)
