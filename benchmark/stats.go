package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; an empty
// sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// samplesBeyond is how many of n samples lie above the p-th percentile.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}

// tailPercentile picks the highest of p75/p90/p99 that still has at least
// ten samples beyond it (0 when even p75 does not): the rule the
// choosing-metrics guide gives for a tail that is a statistic, not one
// outlier. The workloads fix their tail percentile statically so a run that
// lands on 39 instead of 40 samples does not change what bench.op_ms_tail
// means; this function is how those static choices were made, and every run
// logs what it would pick beside the fixed choice.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 90, 75} {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durMS converts durations to millisecond samples.
func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one run share Run; Parent is the
// span that caused this one (0 = root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_nano"`
	End    int64  `json:"end_unix_nano"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs share the call sites.
type recorder struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

// reserve allocates a span id, so that children can name a parent whose
// end is not known yet; the parent is recorded later with addAs.
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// addAs records a finished span under a reserved id.
func (r *recorder) addAs(id int64, run, name string, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
}

// add records a finished span.
func (r *recorder) add(run, name string, parent int64, start, end time.Time) {
	r.addAs(r.reserve(), run, name, parent, start, end)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (overlapping children are counted
// once, children are clipped to the parent).
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// spanDurs collects the durations of every span with the given name.
func spanDurs(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeTrace writes the spans of one traced run as JSON.
func writeTrace(path, workload string, seed int64, spans []span) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return os.WriteFile(path, data, 0o644)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the contract with the driver.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks counts operations attempted and failed, keeping the first few
// failure messages for the log.
type checks struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

// ok records one attempted operation or check; cond false counts a failure.
func (c *checks) ok(cond bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !cond {
		c.failed++
		if len(c.msgs) < 20 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
}

// timeReps runs fn reps times and returns the per-call durations.
func timeReps(reps int, fn func() error) ([]time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	return ds, nil
}

// medianDur is the median of a duration sample.
func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(median(durNS(ds)))
}

func durNS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}
