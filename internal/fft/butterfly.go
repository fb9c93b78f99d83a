package fft

// The radix-r passes of a Stockham stage (see stage). Each has two loop
// shapes: at stride s == 1 (the first stage of a line) consecutive
// butterflies differ in twiddle index p, so the loop runs over p and loads
// its twiddles per butterfly; otherwise p is the outer loop, the twiddles are
// hoisted, and the inner loop runs over s contiguous cells — without the
// multiplications at p == 0, where every twiddle is one. That covers the
// whole last stage (m == 1), which may run in place: each butterfly loads its
// r inputs before it stores to the same r cells.

const (
	sin60  = 0.86602540378443864676372317075294 // sin(2π/3)
	cos72  = 0.30901699437494742410229341718282 // cos(2π/5)
	cos144 = -0.80901699437494742410229341718282
	sin72  = 0.95105651629515357211643933337938
	sin144 = 0.58778525229247312916870595463907
)

// mulNegI returns −i·z.
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }

func bfly2(a0, a1 complex128) (b0, b1 complex128) { return a0 + a1, a0 - a1 }

func bfly3(a0, a1, a2 complex128) (b0, b1, b2 complex128) {
	t := a1 + a2
	u := a0 - complex(0.5*real(t), 0.5*imag(t))
	d := a1 - a2
	v := complex(sin60*imag(d), -sin60*real(d)) // −i·sin60·d
	return a0 + t, u + v, u - v
}

func bfly4(a0, a1, a2, a3 complex128) (b0, b1, b2, b3 complex128) {
	t0, t1 := a0+a2, a0-a2
	t2, t3 := a1+a3, mulNegI(a1-a3)
	return t0 + t2, t1 + t3, t0 - t2, t1 - t3
}

func bfly5(a0, a1, a2, a3, a4 complex128) (b0, b1, b2, b3, b4 complex128) {
	t1, t2 := a1+a4, a2+a3
	d1, d2 := a1-a4, a2-a3
	u1 := a0 + complex(cos72*real(t1)+cos144*real(t2), cos72*imag(t1)+cos144*imag(t2))
	u2 := a0 + complex(cos144*real(t1)+cos72*real(t2), cos144*imag(t1)+cos72*imag(t2))
	v1 := mulNegI(complex(sin72*real(d1)+sin144*real(d2), sin72*imag(d1)+sin144*imag(d2)))
	v2 := mulNegI(complex(sin144*real(d1)-sin72*real(d2), sin144*imag(d1)-sin72*imag(d2)))
	return a0 + t1 + t2, u1 + v1, u2 + v2, u2 - v2, u1 - v1
}

func pass2(x0, x1, dst, tw []complex128, m, s int) {
	if s == 1 && m > 1 {
		x1, tw, dst = x1[:len(x0)], tw[:len(x0)], dst[:2*len(x0)]
		for p, a0 := range x0 {
			b0, b1 := bfly2(a0, x1[p])
			dst[2*p], dst[2*p+1] = b0, b1*tw[p]
		}
		return
	}
	for p := 0; p < m; p++ {
		lo := p * s
		a0, a1 := x0[lo:lo+s], x1[lo:lo+s]
		y0, y1 := dst[2*lo:2*lo+s], dst[2*lo+s:2*lo+2*s]
		if p == 0 {
			for q := range a0 {
				y0[q], y1[q] = bfly2(a0[q], a1[q])
			}
			continue
		}
		w1 := tw[p]
		for q := range a0 {
			b0, b1 := bfly2(a0[q], a1[q])
			y0[q], y1[q] = b0, b1*w1
		}
	}
}

func pass3(x0, x1, x2, dst, tw []complex128, m, s int) {
	if s == 1 && m > 1 {
		x1, x2 = x1[:len(x0)], x2[:len(x0)]
		for p, a0 := range x0 {
			b0, b1, b2 := bfly3(a0, x1[p], x2[p])
			y, w := dst[3*p:3*p+3], tw[2*p:2*p+2]
			y[0], y[1], y[2] = b0, b1*w[0], b2*w[1]
		}
		return
	}
	for p := 0; p < m; p++ {
		lo := p * s
		a0, a1, a2 := x0[lo:lo+s], x1[lo:lo+s], x2[lo:lo+s]
		y0, y1, y2 := dst[3*lo:3*lo+s], dst[3*lo+s:3*lo+2*s], dst[3*lo+2*s:3*lo+3*s]
		if p == 0 {
			for q := range a0 {
				y0[q], y1[q], y2[q] = bfly3(a0[q], a1[q], a2[q])
			}
			continue
		}
		w1, w2 := tw[2*p], tw[2*p+1]
		for q := range a0 {
			b0, b1, b2 := bfly3(a0[q], a1[q], a2[q])
			y0[q], y1[q], y2[q] = b0, b1*w1, b2*w2
		}
	}
}

func pass4(x0, x1, x2, x3, dst, tw []complex128, m, s int) {
	if s == 1 && m > 1 {
		x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
		for p, a0 := range x0 {
			b0, b1, b2, b3 := bfly4(a0, x1[p], x2[p], x3[p])
			y, w := dst[4*p:4*p+4], tw[3*p:3*p+3]
			y[0], y[1], y[2], y[3] = b0, b1*w[0], b2*w[1], b3*w[2]
		}
		return
	}
	for p := 0; p < m; p++ {
		lo := p * s
		a0, a1, a2, a3 := x0[lo:lo+s], x1[lo:lo+s], x2[lo:lo+s], x3[lo:lo+s]
		y := dst[4*lo : 4*lo+4*s]
		y0, y1, y2, y3 := y[:s], y[s:2*s], y[2*s:3*s], y[3*s:]
		if p == 0 {
			for q := range a0 {
				y0[q], y1[q], y2[q], y3[q] = bfly4(a0[q], a1[q], a2[q], a3[q])
			}
			continue
		}
		w1, w2, w3 := tw[3*p], tw[3*p+1], tw[3*p+2]
		for q := range a0 {
			b0, b1, b2, b3 := bfly4(a0[q], a1[q], a2[q], a3[q])
			y0[q], y1[q], y2[q], y3[q] = b0, b1*w1, b2*w2, b3*w3
		}
	}
}

func pass5(x0, x1, x2, x3, x4, dst, tw []complex128, m, s int) {
	if s == 1 && m > 1 {
		x1, x2, x3, x4 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)], x4[:len(x0)]
		for p, a0 := range x0 {
			b0, b1, b2, b3, b4 := bfly5(a0, x1[p], x2[p], x3[p], x4[p])
			y, w := dst[5*p:5*p+5], tw[4*p:4*p+4]
			y[0], y[1], y[2], y[3], y[4] = b0, b1*w[0], b2*w[1], b3*w[2], b4*w[3]
		}
		return
	}
	for p := 0; p < m; p++ {
		lo := p * s
		a0, a1, a2, a3, a4 := x0[lo:lo+s], x1[lo:lo+s], x2[lo:lo+s], x3[lo:lo+s], x4[lo:lo+s]
		y := dst[5*lo : 5*lo+5*s]
		y0, y1, y2, y3, y4 := y[:s], y[s:2*s], y[2*s:3*s], y[3*s:4*s], y[4*s:]
		if p == 0 {
			for q := range a0 {
				y0[q], y1[q], y2[q], y3[q], y4[q] = bfly5(a0[q], a1[q], a2[q], a3[q], a4[q])
			}
			continue
		}
		w1, w2, w3, w4 := tw[4*p], tw[4*p+1], tw[4*p+2], tw[4*p+3]
		for q := range a0 {
			b0, b1, b2, b3, b4 := bfly5(a0[q], a1[q], a2[q], a3[q], a4[q])
			y0[q], y1[q], y2[q], y3[q], y4[q] = b0, b1*w1, b2*w2, b3*w3, b4*w4
		}
	}
}
