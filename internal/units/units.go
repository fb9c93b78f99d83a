// Package units defines the physical constants and the internal unit system
// used throughout the simulation.
//
// The code works in comoving cosmological units:
//
//   - length:   h⁻¹ Mpc (comoving)
//   - velocity: km/s (canonical velocity u = a²ẋ, as in the paper's eq. 1)
//   - time:     (h⁻¹ Mpc)/(km/s) ≈ 977.8 h⁻¹ Gyr
//   - mass:     10¹⁰ h⁻¹ M_sun
//
// With this choice the gravitational constant takes the numerical value
// G = 43.0071 (km/s)² (h⁻¹ Mpc) / (10¹⁰ h⁻¹ M_sun) — the GADGET convention
// rescaled from kpc to Mpc lengths — which keeps typical densities and
// potentials near unity.
package units

import "math"

// Fundamental constants (CODATA / PDG values).
const (
	// CLight is the speed of light in km/s.
	CLight = 299792.458
	// GravCGS is Newton's constant in cm³ g⁻¹ s⁻².
	GravCGS = 6.6743e-8
	// KBoltzCGS is the Boltzmann constant in erg/K.
	KBoltzCGS = 1.380649e-16
	// EVErg is one electron-volt in erg.
	EVErg = 1.602176634e-12
	// MpcCM is one megaparsec in cm.
	MpcCM = 3.0856775814913673e24
	// MSunG is one solar mass in g.
	MSunG = 1.98892e33
	// KmCM is one kilometre in cm.
	KmCM = 1e5
)

// Internal unit system (GADGET-like).
const (
	// UnitLengthCM is the internal length unit (1 h⁻¹ Mpc) in cm (for h=1).
	UnitLengthCM = MpcCM
	// UnitVelocityCMS is the internal velocity unit (1 km/s) in cm/s.
	UnitVelocityCMS = KmCM
	// UnitMassG is the internal mass unit (10¹⁰ M_sun) in g (for h=1).
	UnitMassG = 1e10 * MSunG
)

// G is Newton's constant in internal units:
// (km/s)² (h⁻¹Mpc) (10¹⁰ h⁻¹M_sun)⁻¹.
const G = GravCGS * UnitMassG / (UnitLengthCM * UnitVelocityCMS * UnitVelocityCMS)

// HubbleInternal is H for h=1 (100 km/s/Mpc) expressed in internal inverse
// time units, i.e. 100 km/s / (1 h⁻¹Mpc · km/s) = 100.
const HubbleInternal = 100.0

// RhoCrit0 returns the present-day critical density 3H₀²/(8πG) in internal
// units (10¹⁰ h⁻¹ M_sun per (h⁻¹ Mpc)³). It is independent of h in these
// h-scaled units.
func RhoCrit0() float64 {
	h0 := HubbleInternal
	return 3 * h0 * h0 / (8 * math.Pi * G)
}

// NeutrinoThermalVelocity returns the characteristic thermal velocity (km/s)
// of a relic neutrino of mass mNu (eV) at scale factor a. The relic neutrino
// background temperature today is Tν0 = (4/11)^(1/3)·T_CMB; a neutrino of
// momentum p = y·kTν/c has velocity v ≈ p c²/(m c²) in the non-relativistic
// regime, and the Fermi-Dirac mean momentum is ⟨y⟩ ≈ 3.151.
//
// v_th(a) = 3.151 · (kTν0/a) / (mν c²) · c.
func NeutrinoThermalVelocity(mNuEV, a float64) float64 {
	const tNu0K = 2.7255 * 0.7137658555036082 // (4/11)^(1/3) × T_CMB
	kT := KBoltzCGS * tNu0K / a               // erg
	mc2 := mNuEV * EVErg                      // erg
	return 3.15137 * kT / mc2 * CLight
}

// OmegaNuFromMass returns the present-day neutrino density parameter Ων h²
// divided by h², i.e. Ων for a given total mass ΣMν (eV) and Hubble h:
// Ων = ΣMν / (93.14 eV · h²).
func OmegaNuFromMass(sumMNuEV, h float64) float64 {
	return sumMNuEV / (93.14 * h * h)
}

// FermiDirac returns the (unnormalised) relativistic Fermi-Dirac occupation
// for dimensionless momentum y = pc/(kTν): 1/(e^y + 1).
func FermiDirac(y float64) float64 {
	return 1 / (math.Exp(y) + 1)
}
