// Package catalog is the scenario registry behind the service layer: it
// maps a serialisable JobSpec — a scenario name plus typed parameters and
// run options, the JSON a remote client POSTs — to a sched.Job ready for a
// Stream or a batch. Job factories stop being Go-only closures: every
// scenario in the repository (the plasma validation problems, the hybrid
// Vlasov/N-body runs and their control modes) is registered here with
// parameter validation and defaulting, so a daemon can accept work it has
// never been linked against.
//
// A Scenario declares its parameters (name, type, default, range or enum);
// Job validates a spec against the declaration, fills defaults, and builds
// the solver factory and — when the scenario supports checkpoint restore —
// the resume hook. Unknown scenarios, unknown parameters, type mismatches
// and out-of-range values are all descriptive errors at submission time,
// never panics on a worker goroutine.
package catalog

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"vlasov6d/internal/runner"
	"vlasov6d/internal/sched"
)

// Kind is a parameter's wire type.
type Kind int

const (
	// Float accepts any JSON number.
	Float Kind = iota
	// Int accepts a JSON number with no fractional part.
	Int
	// String accepts a JSON string (optionally restricted by Enum).
	String
)

func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Int:
		return "int"
	case String:
		return "string"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Param declares one scenario parameter: its wire type, default and valid
// range. The zero Min/Max leave a numeric parameter unbounded.
type Param struct {
	// Name is the JSON key.
	Name string `json:"name"`
	// Kind is the wire type.
	Kind Kind `json:"-"`
	// Type is Kind's name, for the JSON scenario listing.
	Type string `json:"type"`
	// Default fills a missing parameter (float64 for Float, int for Int,
	// string for String).
	Default any `json:"default"`
	// Min/Max bound a numeric parameter inclusively when HasRange is set.
	Min      float64 `json:"min,omitempty"`
	Max      float64 `json:"max,omitempty"`
	HasRange bool    `json:"-"`
	// Enum restricts a String parameter to the listed values.
	Enum []string `json:"enum,omitempty"`
	// Help is a one-line description for the scenario listing.
	Help string `json:"help,omitempty"`
}

// Values holds a spec's validated, defaulted parameters keyed by name.
type Values map[string]any

// Float returns a Float parameter (the zero value if absent — validation
// guarantees presence for declared parameters).
func (v Values) Float(name string) float64 { f, _ := v[name].(float64); return f }

// Int returns an Int parameter.
func (v Values) Int(name string) int { i, _ := v[name].(int); return i }

// Str returns a String parameter.
func (v Values) Str(name string) string { s, _ := v[name].(string); return s }

// Scenario is one registered workload shape.
type Scenario struct {
	// Name keys the scenario in JobSpec.Scenario.
	Name string `json:"name"`
	// Description is a one-line summary for the listing endpoint.
	Description string `json:"description"`
	// Params declares the accepted parameters.
	Params []Param `json:"params"`
	// DefaultUntil is the clock target used when the spec leaves Until
	// zero (scale factor for cosmological scenarios, ω_p·t for plasma).
	DefaultUntil float64 `json:"default_until"`
	// Build constructs the solver from validated values. workers is the
	// job's core share at construction time (0 = unbudgeted): factories
	// size IC generation with it instead of bursting to GOMAXPROCS.
	Build func(v Values, workers int) (runner.Solver, error) `json:"-"`
	// Restore rebuilds the solver from a checkpoint file (nil when the
	// scenario cannot resume). The values are the same validated set Build
	// saw, so the hook can reject a snapshot that does not match the spec.
	// It takes no core share: a resume has no IC pass to size, and under a
	// core budget the run's lease sets the solver's workers before its
	// first step.
	Restore func(v Values, path string) (runner.Solver, error) `json:"-"`
	// Check validates cross-parameter constraints a per-parameter range
	// cannot express (optional). It runs at spec validation time, so a
	// spec it rejects fails the submission, never a worker goroutine.
	Check func(v Values) error `json:"-"`
}

// Catalog is a set of registered scenarios. Construct with New (empty) or
// Default (every scenario in the repository). Safe for concurrent use.
type Catalog struct {
	mu        sync.RWMutex
	scenarios map[string]*Scenario
	order     []string
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{scenarios: make(map[string]*Scenario)}
}

// Register adds a scenario. Registering a duplicate or invalid declaration
// is an error — the catalog is the service's contract surface, typos in it
// must fail loudly at startup.
func (c *Catalog) Register(sc Scenario) error {
	if sc.Name == "" {
		return fmt.Errorf("catalog: scenario with empty name")
	}
	if sc.Build == nil {
		return fmt.Errorf("catalog: scenario %q has no Build", sc.Name)
	}
	if sc.DefaultUntil <= 0 {
		return fmt.Errorf("catalog: scenario %q: DefaultUntil %g must be positive", sc.Name, sc.DefaultUntil)
	}
	seen := make(map[string]bool, len(sc.Params))
	for i := range sc.Params {
		p := &sc.Params[i]
		if p.Name == "" {
			return fmt.Errorf("catalog: scenario %q: parameter with empty name", sc.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("catalog: scenario %q: duplicate parameter %q", sc.Name, p.Name)
		}
		seen[p.Name] = true
		p.Type = p.Kind.String()
		if _, err := coerce(*p, p.Default); err != nil {
			return fmt.Errorf("catalog: scenario %q: default for %q: %w", sc.Name, p.Name, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.scenarios[sc.Name]; dup {
		return fmt.Errorf("catalog: scenario %q already registered", sc.Name)
	}
	c.scenarios[sc.Name] = &sc
	c.order = append(c.order, sc.Name)
	return nil
}

// Get returns a scenario by name.
func (c *Catalog) Get(name string) (*Scenario, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sc, ok := c.scenarios[name]
	return sc, ok
}

// Scenarios lists the registered scenarios in registration order — the
// introspection surface a service exposes so clients can discover what
// they may submit.
func (c *Catalog) Scenarios() []Scenario {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Scenario, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, *c.scenarios[name])
	}
	return out
}

// JobSpec is the serialisable job language: what a client POSTs to submit
// work. Everything a sched.Job closure used to capture in Go is explicit
// JSON here.
type JobSpec struct {
	// Scenario names the registered scenario to instantiate.
	Scenario string `json:"scenario"`
	// Name identifies the job (and keys its checkpoint directory, so it
	// must be unique among live jobs when the service checkpoints).
	// Empty derives "<scenario>-<non-default params>".
	Name string `json:"name,omitempty"`
	// Params are the scenario parameters; missing ones take the declared
	// defaults, unknown ones are errors.
	Params map[string]any `json:"params,omitempty"`
	// Until overrides the scenario's default clock target.
	Until float64 `json:"until,omitempty"`
	// Priority orders dispatch: higher first (sched.Job.Priority).
	Priority int `json:"priority,omitempty"`
	// Retries overrides the scheduler's retry policy for this job
	// (null = scheduler default, 0 = never retry).
	Retries *int `json:"retries,omitempty"`
	// MaxSteps caps the run's step count (0 = unlimited).
	MaxSteps int `json:"max_steps,omitempty"`
	// FixedDT disables adaptive stepping and uses this dt, in the solver's
	// stepping coordinate: Δln a for hybrid, nbody and shotnoise, plasma
	// time for landau and twostream.
	FixedDT float64 `json:"fixed_dt,omitempty"`
}

// Canonical serialises the spec deterministically: fixed field order (the
// struct declaration), lexicographically sorted Params keys, no
// insignificant whitespace. Two equal specs always produce identical
// bytes, and Canonical(decode(Canonical(s))) == Canonical(s), so a journal
// that stores canonical bytes round-trips byte-stably across a
// write/replay/compact cycle and replayed bytes can be compared or hashed
// directly.
func (s JobSpec) Canonical() ([]byte, error) {
	// encoding/json already gives both guarantees: struct fields marshal in
	// declaration order and map keys sort lexicographically. The method
	// exists so callers depend on the contract, not the accident.
	return json.Marshal(s)
}

// Validate resolves a spec against the catalog: the scenario must exist,
// every parameter must be declared, typed and in range, and missing
// parameters take their defaults. It returns the resolved values and the
// scenario.
func (c *Catalog) Validate(spec JobSpec) (Values, *Scenario, error) {
	sc, ok := c.Get(spec.Scenario)
	if !ok {
		return nil, nil, fmt.Errorf("catalog: unknown scenario %q (have %s)",
			spec.Scenario, strings.Join(c.names(), ", "))
	}
	vals := make(Values, len(sc.Params))
	declared := make(map[string]Param, len(sc.Params))
	for _, p := range sc.Params {
		declared[p.Name] = p
		v, err := coerce(p, p.Default)
		if err != nil { // unreachable after Register's check; keep the guard
			return nil, nil, fmt.Errorf("catalog: %s: default %q: %w", sc.Name, p.Name, err)
		}
		vals[p.Name] = v
	}
	for name, raw := range spec.Params {
		p, ok := declared[name]
		if !ok {
			return nil, nil, fmt.Errorf("catalog: scenario %q has no parameter %q (have %s)",
				sc.Name, name, strings.Join(paramNames(sc.Params), ", "))
		}
		v, err := coerce(p, raw)
		if err != nil {
			return nil, nil, fmt.Errorf("catalog: %s: parameter %q: %w", sc.Name, name, err)
		}
		vals[name] = v
	}
	if spec.Until < 0 {
		return nil, nil, fmt.Errorf("catalog: %s: until %g must be non-negative", sc.Name, spec.Until)
	}
	if spec.MaxSteps < 0 {
		return nil, nil, fmt.Errorf("catalog: %s: max_steps %d must be non-negative", sc.Name, spec.MaxSteps)
	}
	if spec.FixedDT < 0 {
		return nil, nil, fmt.Errorf("catalog: %s: fixed_dt %g must be non-negative", sc.Name, spec.FixedDT)
	}
	if spec.Retries != nil && *spec.Retries < 0 {
		return nil, nil, fmt.Errorf("catalog: %s: retries %d must be non-negative", sc.Name, *spec.Retries)
	}
	if sc.Check != nil {
		if err := sc.Check(vals); err != nil {
			return nil, nil, fmt.Errorf("catalog: %s: %w", sc.Name, err)
		}
	}
	return vals, sc, nil
}

// Job resolves a spec into a runnable sched.Job: validated parameters,
// defaulted name and clock target, the budget-aware factory, and the
// restore hook when the scenario supports resume. The scheduler's own
// validation (retry override) still applies at submission.
func (c *Catalog) Job(spec JobSpec) (sched.Job, error) {
	vals, sc, err := c.Validate(spec)
	if err != nil {
		return sched.Job{}, err
	}
	name := spec.Name
	if name == "" {
		name = deriveName(sc, spec.Params, vals)
	}
	until := spec.Until
	if until == 0 {
		until = sc.DefaultUntil
	}
	var opts []runner.Option
	if spec.MaxSteps > 0 {
		opts = append(opts, runner.WithMaxSteps(spec.MaxSteps))
	}
	if spec.FixedDT > 0 {
		opts = append(opts, runner.WithFixedDT(spec.FixedDT))
	}
	job := sched.Job{
		Name:     name,
		Until:    until,
		Priority: spec.Priority,
		Retries:  spec.Retries,
		Opts:     opts,
		NewBudgeted: func(lease runner.WorkerLease) (runner.Solver, error) {
			return sc.Build(vals, leaseWorkers(lease))
		},
	}
	if sc.Restore != nil {
		job.Restore = func(path string) (runner.Solver, error) {
			return sc.Restore(vals, path)
		}
	}
	return job, nil
}

// leaseWorkers reads the construction-time share of a possibly-nil lease.
func leaseWorkers(lease runner.WorkerLease) int {
	if lease == nil {
		return 0
	}
	return lease.Workers()
}

// names lists the registered scenario names in registration order.
func (c *Catalog) names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.order...)
}

func paramNames(ps []Param) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// deriveName builds the default job name "<scenario>[-k=v...]" from the
// parameters the spec set explicitly, sorted for determinism. The sched
// layer sanitises it further for checkpoint paths.
func deriveName(sc *Scenario, explicit map[string]any, vals Values) string {
	if len(explicit) == 0 {
		return sc.Name
	}
	keys := make([]string, 0, len(explicit))
	for k := range explicit {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(sc.Name)
	for _, k := range keys {
		fmt.Fprintf(&b, "-%s=%v", k, vals[k])
	}
	return b.String()
}

// coerce validates one raw parameter value against its declaration and
// returns the canonical Go value (float64, int, string or bool). JSON
// numbers arrive as float64; an Int parameter additionally requires an
// integral value.
func coerce(p Param, raw any) (any, error) {
	switch p.Kind {
	case Float:
		f, ok := toFloat(raw)
		if !ok {
			return nil, fmt.Errorf("want float, got %T", raw)
		}
		if p.HasRange && (f < p.Min || f > p.Max) {
			return nil, fmt.Errorf("%g outside [%g, %g]", f, p.Min, p.Max)
		}
		return f, nil
	case Int:
		f, ok := toFloat(raw)
		if !ok {
			return nil, fmt.Errorf("want int, got %T", raw)
		}
		if f != math.Trunc(f) {
			return nil, fmt.Errorf("want int, got fractional %g", f)
		}
		if p.HasRange && (f < p.Min || f > p.Max) {
			return nil, fmt.Errorf("%g outside [%g, %g]", f, p.Min, p.Max)
		}
		return int(f), nil
	case String:
		s, ok := raw.(string)
		if !ok {
			return nil, fmt.Errorf("want string, got %T", raw)
		}
		if len(p.Enum) > 0 {
			for _, e := range p.Enum {
				if s == e {
					return s, nil
				}
			}
			return nil, fmt.Errorf("%q not one of %s", s, strings.Join(p.Enum, ", "))
		}
		return s, nil
	}
	return nil, fmt.Errorf("unknown parameter kind %v", p.Kind)
}

// toFloat widens the numeric types a decoded spec (or a Go caller passing
// literals) can carry.
func toFloat(raw any) (float64, bool) {
	switch n := raw.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	}
	return 0, false
}
