package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {100, 5}, {25, 2}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

// The tail is the highest of p75/p90/p99 with at least ten samples beyond.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{30, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {999, 90}, {1000, 99}, {7641, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// A span's self time is its duration minus what its children cover:
// overlapping children count once, children are clipped to the parent, and
// grandchildren are charged to their own parent only.
func TestSelfTime(t *testing.T) {
	at := func(ms int64) int64 { return ms * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "run", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "step", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Name: "step", Start: at(30), End: at(60)},  // overlaps span 2 by 10 ms
		{ID: 4, Parent: 1, Name: "ckpt", Start: at(90), End: at(120)}, // sticks out by 20 ms
		{ID: 5, Parent: 2, Name: "inner", Start: at(15), End: at(20)}, // grandchild of run
		{ID: 6, Parent: 9, Name: "orphan", Start: at(0), End: at(7)},  // parent not recorded
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 40 * time.Millisecond, // 100 − (10..60 = 50) − (90..100 = 10)
		2: 25 * time.Millisecond,
		3: 30 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 5 * time.Millisecond,
		6: 7 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

// declared reads the metric and workload names BENCHMARK.json promises.
func declared(t *testing.T) (workloadNames, e2e, layers []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	for _, w := range doc.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json says %q, the program reports %q", m.Name, m.Unit, units[m.Name])
		}
	}
	for _, m := range doc.PerLayer {
		layers = append(layers, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json says %q, the program reports %q", m.Name, m.Unit, units[m.Name])
		}
	}
	return
}

// Every workload at smoke size, untraced and traced: generators, the
// correctness checks, the metric set BENCHMARK.json declares, the result
// line and the trace file.
func TestSmokeWorkloads(t *testing.T) {
	names, e2e, layers := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(names), len(workloads))
	}
	t.Chdir(t.TempDir())
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			e := &env{workload: name, seed: 7, seconds: 300 * time.Millisecond, trace: trace, smoke: true}
			res, err := execute(e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					name, trace, res.Correct, res.Attempted, res.Failed, e.chk.msgs)
			}
			want := e2e
			if trace {
				want = layers
			}
			var got []string
			for k := range res.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			sorted := append([]string(nil), want...)
			sort.Strings(sorted)
			if len(got) != len(sorted) {
				t.Fatalf("%s trace=%v: %d metrics reported, %d declared", name, trace, len(got), len(sorted))
			}
			for i := range got {
				if got[i] != sorted[i] {
					t.Fatalf("%s trace=%v: reported %q where %q is declared", name, trace, got[i], sorted[i])
				}
			}
			if !trace {
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v", name, k, m.Value)
					}
				}
				continue
			}
			checkTraceFile(t, name)
		}
	}
	line, err := json.Marshal(&result{Correct: true, Attempted: 1, Metrics: map[string]metric{"setup_s": {1.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}`; string(line) != want {
		t.Errorf("result line %s, want %s", line, want)
	}
}

func checkTraceFile(t *testing.T, workload string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(outDir, "trace-"+workload+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Spans    []span
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload != workload || len(doc.Spans) == 0 {
		t.Fatalf("trace of %s: workload %q, %d spans", workload, doc.Workload, len(doc.Spans))
	}
	ids := map[int64]bool{}
	for _, s := range doc.Spans {
		ids[s.ID] = true
	}
	for _, s := range doc.Spans {
		if s.ID == 0 || s.Name == "" || s.Run == "" || s.End < s.Start || (s.Parent != 0 && !ids[s.Parent]) {
			t.Fatalf("trace of %s: malformed span %+v", workload, s)
		}
	}
}
