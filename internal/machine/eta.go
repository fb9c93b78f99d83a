package machine

// ETAEstimator is the online counterpart of the §7.2 time-to-solution
// model. TimeToSolution predicts a run's wall time *a priori* from
// hardware constants and the run geometry; the estimator does the same
// projection *a posteriori*, from a live run's own progress: feed it
// (wall-seconds, clock) samples as diagnostics arrive and it maintains an
// exponentially-weighted estimate of the clock-advance rate, from which
// ETASeconds projects the remaining wall time to the run's clock target.
// The control plane feeds it per-step diagnostics off the hot loop and
// serves the projection as the `eta_seconds` field of a job's status
// document — the operational face of the paper's TTS accounting.
//
// The estimator is deliberately rate-based rather than linear-fit-based:
// adaptive-dt runs advance their clock unevenly (a CFL-limited plasma run
// slows as the field steepens), and an EWMA of the instantaneous rate
// tracks that drift with O(1) state, no sample history, and no matrix
// solve per observation.
//
// Not safe for concurrent use; callers serialise Observe/ETASeconds (the
// serve layer guards it with the server mutex).
type ETAEstimator struct {
	target    float64
	rate      float64 // clock units per wall second, EWMA
	lastWall  float64
	lastClock float64
	samples   int
}

// etaAlpha is the EWMA weight of the newest instantaneous rate: low enough
// to ride out bursty async-observer delivery (many steps can arrive in one
// pipeline drain), high enough to track a genuinely slowing run within a
// few tens of observations.
const etaAlpha = 0.2

// NewETAEstimator returns an estimator projecting toward the given clock
// target (runner.Run's `until`).
func NewETAEstimator(target float64) *ETAEstimator {
	return &ETAEstimator{target: target}
}

// Observe feeds one progress sample: the run's elapsed wall time in
// seconds and its clock coordinate at that instant. Samples must arrive in
// wall order; a sample not advancing the wall clock (two observations from
// one pipeline drain) is folded into the next interval rather than
// producing an infinite rate.
func (e *ETAEstimator) Observe(wallSeconds, clock float64) {
	if e.samples == 0 {
		e.lastWall, e.lastClock = wallSeconds, clock
		e.samples = 1
		return
	}
	dw := wallSeconds - e.lastWall
	if dw <= 0 {
		return
	}
	inst := (clock - e.lastClock) / dw
	if e.samples == 1 {
		e.rate = inst
	} else {
		e.rate = etaAlpha*inst + (1-etaAlpha)*e.rate
	}
	e.lastWall, e.lastClock = wallSeconds, clock
	e.samples++
}

// ETASeconds projects the remaining wall seconds until the clock target.
// It reports ok=false until two wall-separated samples have established a
// positive rate — a queued or stalled run has no defensible ETA, and the
// caller should omit the field rather than invent one. A run already past
// its target reports zero.
func (e *ETAEstimator) ETASeconds() (float64, bool) {
	if e.samples < 2 || e.rate <= 0 {
		return 0, false
	}
	remaining := e.target - e.lastClock
	if remaining <= 0 {
		return 0, true
	}
	return remaining / e.rate, true
}

// Rate returns the current EWMA clock-advance rate in clock units per wall
// second (0 until two wall-separated samples have arrived) — the per-job
// throughput figure a trace span records alongside the ETA projection.
func (e *ETAEstimator) Rate() float64 {
	if e.samples < 2 {
		return 0
	}
	return e.rate
}
