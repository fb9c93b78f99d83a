// Package nbody implements the particle side of the hybrid simulation: the
// CDM component evolved with the TreePM N-body method (§5.1.2), and the
// "neutrino-particle" mode used as the paper's §5.4 comparison baseline
// (the TianNu-style sampling of the neutrino distribution function).
//
// Positions are comoving (h⁻¹Mpc) in a periodic box; velocities are the
// canonical u = a²ẋ (km/s), matching the Vlasov convention, so both
// components share the same potential and the same time variable. Particle
// state is double precision, as the paper specifies for the N-body part.
package nbody

import (
	"fmt"
	"math"
)

// Particles is a structure-of-arrays store of equal-mass particles.
type Particles struct {
	N    int
	Mass float64 // mass per particle, internal units (10¹⁰ h⁻¹ M_sun)
	Box  [3]float64
	Pos  [3][]float64
	Vel  [3][]float64
}

// NewParticles allocates n particles of the given mass in a periodic box.
func NewParticles(n int, mass float64, box [3]float64) (*Particles, error) {
	if n < 1 {
		return nil, fmt.Errorf("nbody: invalid particle count %d", n)
	}
	if mass <= 0 {
		return nil, fmt.Errorf("nbody: invalid particle mass %v", mass)
	}
	for d, b := range box {
		if b <= 0 {
			return nil, fmt.Errorf("nbody: invalid box extent [%d]=%v", d, b)
		}
	}
	p := &Particles{N: n, Mass: mass, Box: box}
	for d := 0; d < 3; d++ {
		p.Pos[d] = make([]float64, n)
		p.Vel[d] = make([]float64, n)
	}
	return p, nil
}

// Clone returns a deep copy sharing no storage with p: a scratch particle
// set to kick, drift or deposit without touching the original.
func (p *Particles) Clone() *Particles {
	c := &Particles{N: p.N, Mass: p.Mass, Box: p.Box}
	for d := 0; d < 3; d++ {
		c.Pos[d] = append([]float64(nil), p.Pos[d]...)
		c.Vel[d] = append([]float64(nil), p.Vel[d]...)
	}
	return c
}

// Wrap maps x into [0, L) along dimension d.
func (p *Particles) Wrap(d int, x float64) float64 {
	l := p.Box[d]
	x = math.Mod(x, l)
	if x < 0 {
		x += l
	}
	return x
}

// Drift advances positions by Δt at scale factor a: dx/dt = u/a²
// (the paper's eq. 1 characteristic), wrapping periodically.
func (p *Particles) Drift(dt, a float64) {
	inva2 := dt / (a * a)
	for d := 0; d < 3; d++ {
		pos, vel := p.Pos[d], p.Vel[d]
		for i := range pos {
			pos[i] = p.Wrap(d, pos[i]+vel[i]*inva2)
		}
	}
}

// Kick advances canonical velocities by Δt with per-particle accelerations:
// du/dt = −∇φ = acc.
func (p *Particles) Kick(dt float64, acc [3][]float64) error {
	for d := 0; d < 3; d++ {
		if len(acc[d]) != p.N {
			return fmt.Errorf("nbody: acc[%d] length %d != %d", d, len(acc[d]), p.N)
		}
	}
	for d := 0; d < 3; d++ {
		vel, a := p.Vel[d], acc[d]
		for i := range vel {
			vel[i] += a[i] * dt
		}
	}
	return nil
}

// TotalMomentum returns the total canonical momentum per component.
func (p *Particles) TotalMomentum() [3]float64 {
	var mom [3]float64
	for d := 0; d < 3; d++ {
		s := 0.0
		for _, v := range p.Vel[d] {
			s += v
		}
		mom[d] = s * p.Mass
	}
	return mom
}

// CICDeposit adds the particles' mass density onto a periodic mesh of shape
// n covering the box, using cloud-in-cell weights. The deposited quantity is
// comoving mass density (mass per mesh-cell volume).
func (p *Particles) CICDeposit(mesh []float64, n [3]int) error {
	if len(mesh) != n[0]*n[1]*n[2] {
		return fmt.Errorf("nbody: mesh length %d != %d", len(mesh), n[0]*n[1]*n[2])
	}
	var h [3]float64
	for d := 0; d < 3; d++ {
		if n[d] < 1 {
			return fmt.Errorf("nbody: invalid mesh shape %v", n)
		}
		h[d] = p.Box[d] / float64(n[d])
	}
	cellVol := h[0] * h[1] * h[2]
	w := p.Mass / cellVol
	for i := 0; i < p.N; i++ {
		var i0, i1 [3]int
		var w0, w1 [3]float64
		for d := 0; d < 3; d++ {
			// Cell-centred CIC: s is the position in cell units offset so
			// that weights interpolate between cell centres.
			s := p.Pos[d][i]/h[d] - 0.5
			f := math.Floor(s)
			frac := s - f
			c := int(f)
			i0[d] = wrapIdx(c, n[d])
			i1[d] = wrapIdx(c+1, n[d])
			w0[d] = 1 - frac
			w1[d] = frac
		}
		for ax := 0; ax < 2; ax++ {
			ix, wx := pick(ax, i0[0], i1[0], w0[0], w1[0])
			for ay := 0; ay < 2; ay++ {
				iy, wy := pick(ay, i0[1], i1[1], w0[1], w1[1])
				base := (ix*n[1] + iy) * n[2]
				wxy := wx * wy
				for az := 0; az < 2; az++ {
					iz, wz := pick(az, i0[2], i1[2], w0[2], w1[2])
					mesh[base+iz] += w * wxy * wz
				}
			}
		}
	}
	return nil
}

// CICInterp gathers a mesh field at the particle positions with the same
// cloud-in-cell weights used for deposit (required for momentum-conserving
// PM forces) and writes the result into out.
func (p *Particles) CICInterp(field []float64, n [3]int, out []float64) error {
	if len(field) != n[0]*n[1]*n[2] {
		return fmt.Errorf("nbody: field length %d != %d", len(field), n[0]*n[1]*n[2])
	}
	if len(out) != p.N {
		return fmt.Errorf("nbody: out length %d != %d", len(out), p.N)
	}
	var h [3]float64
	for d := 0; d < 3; d++ {
		h[d] = p.Box[d] / float64(n[d])
	}
	for i := 0; i < p.N; i++ {
		var i0, i1 [3]int
		var w0, w1 [3]float64
		for d := 0; d < 3; d++ {
			s := p.Pos[d][i]/h[d] - 0.5
			f := math.Floor(s)
			frac := s - f
			c := int(f)
			i0[d] = wrapIdx(c, n[d])
			i1[d] = wrapIdx(c+1, n[d])
			w0[d] = 1 - frac
			w1[d] = frac
		}
		v := 0.0
		for ax := 0; ax < 2; ax++ {
			ix, wx := pick(ax, i0[0], i1[0], w0[0], w1[0])
			for ay := 0; ay < 2; ay++ {
				iy, wy := pick(ay, i0[1], i1[1], w0[1], w1[1])
				base := (ix*n[1] + iy) * n[2]
				wxy := wx * wy
				for az := 0; az < 2; az++ {
					iz, wz := pick(az, i0[2], i1[2], w0[2], w1[2])
					v += field[base+iz] * wxy * wz
				}
			}
		}
		out[i] = v
	}
	return nil
}

func pick(a, idx0, idx1 int, w0, w1 float64) (int, float64) {
	if a == 0 {
		return idx0, w0
	}
	return idx1, w1
}

func wrapIdx(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// MinimumImage returns the periodic minimum-image separation b−a along
// dimension d.
func (p *Particles) MinimumImage(d int, a, b float64) float64 {
	dx := b - a
	l := p.Box[d]
	if dx > l/2 {
		dx -= l
	} else if dx < -l/2 {
		dx += l
	}
	return dx
}
