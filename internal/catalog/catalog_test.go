package catalog

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"vlasov6d/internal/hybrid"
	"vlasov6d/internal/nbody"
	"vlasov6d/internal/runner"
	"vlasov6d/internal/sched"
)

func TestDefaultCatalogLists(t *testing.T) {
	c := Default()
	scs := c.Scenarios()
	want := []string{"landau", "twostream", "hybrid", "nbody", "shotnoise"}
	if len(scs) != len(want) {
		t.Fatalf("%d scenarios, want %d", len(scs), len(want))
	}
	for i, name := range want {
		if scs[i].Name != name {
			t.Errorf("scenario %d is %q, want %q", i, scs[i].Name, name)
		}
		if scs[i].Description == "" || scs[i].DefaultUntil <= 0 {
			t.Errorf("scenario %q missing description or default target", scs[i].Name)
		}
	}
	// The listing must be JSON-serialisable (the introspection endpoint).
	if _, err := json.Marshal(scs); err != nil {
		t.Fatalf("scenario listing does not marshal: %v", err)
	}
}

func TestValidateDefaultsAndTypes(t *testing.T) {
	c := Default()
	vals, sc, err := c.Validate(JobSpec{Scenario: "landau"})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "landau" {
		t.Fatalf("resolved scenario %q", sc.Name)
	}
	if vals.Int("nx") != 32 || vals.Int("nv") != 64 || vals.Str("scheme") != "slmpp5" {
		t.Fatalf("defaults not filled: %+v", vals)
	}
	// JSON numbers arrive as float64; an integral one coerces to int.
	vals, _, err = c.Validate(JobSpec{Scenario: "landau",
		Params: map[string]any{"nx": float64(64), "k": float64(0.25)}})
	if err != nil {
		t.Fatal(err)
	}
	if vals.Int("nx") != 64 || vals.Float("k") != 0.25 {
		t.Fatalf("explicit params not applied: %+v", vals)
	}
}

func TestValidateRejects(t *testing.T) {
	c := Default()
	minusOne := -1
	cases := []struct {
		name string
		spec JobSpec
		frag string // expected error fragment
	}{
		{"unknown scenario", JobSpec{Scenario: "warpdrive"}, "unknown scenario"},
		{"unknown param", JobSpec{Scenario: "landau", Params: map[string]any{"mass": 1.0}}, "no parameter"},
		{"wrong type", JobSpec{Scenario: "landau", Params: map[string]any{"nx": "big"}}, "want int"},
		{"fractional int", JobSpec{Scenario: "landau", Params: map[string]any{"nx": 32.5}}, "fractional"},
		{"out of range", JobSpec{Scenario: "landau", Params: map[string]any{"nx": 4.0}}, "outside"},
		{"bad enum", JobSpec{Scenario: "landau", Params: map[string]any{"scheme": "psychic"}}, "not one of"},
		{"negative until", JobSpec{Scenario: "landau", Until: -1}, "until"},
		{"negative steps", JobSpec{Scenario: "landau", MaxSteps: -1}, "max_steps"},
		{"negative retries", JobSpec{Scenario: "landau", Retries: &minusOne}, "retries"},
		{"nnuside of one", JobSpec{Scenario: "shotnoise", Params: map[string]any{"nnuside": 1.0}}, "nnuside"},
	}
	for _, cse := range cases {
		_, _, err := c.Validate(cse.spec)
		if err == nil {
			t.Errorf("%s: accepted", cse.name)
			continue
		}
		if !strings.Contains(err.Error(), cse.frag) {
			t.Errorf("%s: error %q does not mention %q", cse.name, err, cse.frag)
		}
	}
}

func TestJobNameDerivation(t *testing.T) {
	c := Default()
	job, err := c.Job(JobSpec{Scenario: "landau"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Name != "landau" {
		t.Fatalf("bare spec name %q", job.Name)
	}
	job, err = c.Job(JobSpec{Scenario: "landau",
		Params: map[string]any{"nx": 64.0, "scheme": "mp5"}})
	if err != nil {
		t.Fatal(err)
	}
	if job.Name != "landau-nx=64-scheme=mp5" {
		t.Fatalf("derived name %q", job.Name)
	}
	job, err = c.Job(JobSpec{Scenario: "landau", Name: "mine"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Name != "mine" {
		t.Fatalf("explicit name %q", job.Name)
	}
}

func TestJobCarriesSpecOptions(t *testing.T) {
	c := Default()
	two := 2
	job, err := c.Job(JobSpec{Scenario: "landau", Priority: 5, Retries: &two, Until: 7})
	if err != nil {
		t.Fatal(err)
	}
	if job.Priority != 5 || job.Until != 7 {
		t.Fatalf("spec options lost: %+v", job)
	}
	if job.Retries == nil || *job.Retries != 2 {
		t.Fatalf("retry override lost: %v", job.Retries)
	}
	if job.Restore == nil {
		t.Fatal("landau job has no restore hook")
	}
}

// TestEveryScenarioRunsThroughScheduler drives a tiny configuration of
// every registered scenario through a real batch — the catalog's whole
// point is that a JSON spec is runnable work.
func TestEveryScenarioRunsThroughScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("builds real solvers incl. small hybrid configs")
	}
	c := Default()
	specs := []JobSpec{
		{Scenario: "landau", Params: map[string]any{"nx": 16.0, "nv": 16.0}, Until: 0.5},
		{Scenario: "twostream", Params: map[string]any{"nx": 16.0, "nv": 16.0}, Until: 0.5},
		{Scenario: "hybrid", Until: 0.1, MaxSteps: 2},
		{Scenario: "nbody", Until: 0.1, MaxSteps: 2},
		{Scenario: "shotnoise", Until: 0.1, MaxSteps: 2},
	}
	var jobs []sched.Job
	for _, spec := range specs {
		job, err := c.Job(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Scenario, err)
		}
		jobs = append(jobs, job)
	}
	results, err := sched.RunBatch(context.Background(), jobs, sched.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Status != sched.Done {
			t.Errorf("job %q: %v (%v)", r.Name, r.Status, r.Err)
		}
	}
}

// TestBudgetedConstruction verifies the catalog factory hands the lease's
// share to the solver at build time.
func TestBudgetedConstruction(t *testing.T) {
	c := Default()
	job, err := c.Job(JobSpec{Scenario: "landau", Until: 0.5,
		Params: map[string]any{"nx": 16.0, "nv": 16.0}})
	if err != nil {
		t.Fatal(err)
	}
	// A fixed-share fake lease: the factory should construct with it.
	s, err := job.NewBudgeted(fixedLease(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(runner.WorkerBudgeted); !ok {
		t.Fatal("plasma solver lost WorkerBudgeted")
	}
	// And a nil lease must still build (unbudgeted stream).
	if _, err := job.NewBudgeted(nil); err != nil {
		t.Fatal(err)
	}
}

type fixedLease int

func (f fixedLease) Workers() int { return int(f) }

func TestCanonicalByteStable(t *testing.T) {
	spec := JobSpec{
		Scenario: "landau",
		Name:     "probe",
		Params:   map[string]any{"nv": 24, "nx": 16, "amplitude": 0.01},
		Until:    5,
		Priority: 3,
	}
	a, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	// Same spec, params inserted in a different order: identical bytes.
	spec2 := spec
	spec2.Params = map[string]any{"amplitude": 0.01, "nx": 16, "nv": 24}
	b, err := spec2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("insertion order leaked into canonical form:\n%s\n%s", a, b)
	}
	// Round trip through decode: still identical — what a journal replay
	// re-canonicalising a stored spec relies on.
	var back JobSpec
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	c, err := back.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(c) {
		t.Fatalf("canonical form not a fixed point:\n%s\n%s", a, c)
	}
}

// FuzzJobSpec feeds arbitrary bytes through the decode the submit handler
// uses (unknown fields rejected) and then Validate against the default
// catalog: neither may panic, and a spec that decodes must reach the
// canonical fixed point a journal replay relies on.
func FuzzJobSpec(f *testing.F) {
	c := Default()
	for _, sc := range c.Scenarios() {
		params := make(map[string]any, len(sc.Params))
		for _, p := range sc.Params {
			params[p.Name] = p.Default
		}
		seed, err := JobSpec{Scenario: sc.Name, Params: params, Until: sc.DefaultUntil}.Canonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	decode := func(data []byte) (JobSpec, error) {
		var s JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		return s, dec.Decode(&s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decode(data)
		if err != nil {
			return
		}
		c.Validate(s) // rejecting is fine; panicking is not
		a, err := s.Canonical()
		if err != nil {
			t.Fatalf("decoded spec does not canonicalise: %v", err)
		}
		back, err := decode(a)
		if err != nil {
			t.Fatalf("canonical form %s does not decode: %v", a, err)
		}
		b, err := back.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("canonical form not a fixed point:\n%s\n%s", a, b)
		}
	})
}

// TestCosmologicalResumeMatchesLive drives the Restore hook sched calls to
// resume a hybrid, nbody or shotnoise job: a run of four steps with a
// snapshot every two, and a resume from its step-2 snapshot that takes the
// last two under the same cadence, must end on the same state bit for bit.
func TestCosmologicalResumeMatchesLive(t *testing.T) {
	c := Default()
	for _, name := range []string{"hybrid", "nbody", "shotnoise"} {
		t.Run(name, func(t *testing.T) {
			v, sc, err := c.Validate(JobSpec{Scenario: name})
			if err != nil {
				t.Fatal(err)
			}
			run := func(s runner.Solver, steps int) *runner.Report {
				t.Helper()
				rep, err := runner.Run(context.Background(), s, sc.DefaultUntil,
					runner.WithMaxSteps(steps), runner.WithCheckpoint(t.TempDir(), 2))
				if err != nil {
					t.Fatal(err)
				}
				if rep.Steps != steps {
					t.Fatalf("%d steps, want %d", rep.Steps, steps)
				}
				return rep
			}
			s, err := sc.Build(v, 1)
			if err != nil {
				t.Fatal(err)
			}
			rep := run(s, 4)
			if len(rep.Checkpoints) != 2 {
				t.Fatalf("checkpoints %v, want steps 2 and 4", rep.Checkpoints)
			}
			r, err := sc.Restore(v, rep.Checkpoints[0])
			if err != nil {
				t.Fatal(err)
			}
			run(r, 2)
			live, resumed := s.(*hybrid.Simulation), r.(*hybrid.Simulation)
			if math.Float64bits(resumed.A) != math.Float64bits(live.A) {
				t.Fatalf("a = %v resumed, %v live", resumed.A, live.A)
			}
			if (resumed.Grid == nil) != (live.Grid == nil) {
				t.Fatal("one run has a ν grid, the other none")
			}
			if live.Grid != nil {
				for i, f := range live.Grid.Data {
					if math.Float32bits(resumed.Grid.Data[i]) != math.Float32bits(f) {
						t.Fatalf("f[%d] = %v resumed, %v live", i, resumed.Grid.Data[i], f)
					}
				}
			}
			sameParticles(t, "CDM", resumed.Part, live.Part)
			sameParticles(t, "ν", resumed.NuPart, live.NuPart)
		})
	}
}

func sameParticles(t *testing.T, kind string, got, want *nbody.Particles) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s particles in one run only", kind)
	}
	if want == nil {
		return
	}
	for d := 0; d < 3; d++ {
		for _, pair := range [][2][]float64{{got.Pos[d], want.Pos[d]}, {got.Vel[d], want.Vel[d]}} {
			for i, w := range pair[1] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(w) {
					t.Fatalf("%s particle %d, axis %d: %v resumed, %v live", kind, i, d, pair[0][i], w)
				}
			}
		}
	}
}
