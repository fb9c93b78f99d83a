package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceStartEnd(t *testing.T) {
	tr := NewTrace(0)
	id := tr.Start("admission", map[string]string{"tenant": "alice"})
	if id == 0 {
		t.Fatalf("Start returned zero handle")
	}
	tr.End(id, map[string]string{"status": "accepted"})
	spans, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(spans) != 1 {
		t.Fatalf("len(spans) = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "admission" {
		t.Fatalf("name = %q", s.Name)
	}
	if s.EndUnixNano == 0 || s.EndUnixNano < s.StartUnixNano {
		t.Fatalf("bad span times: start=%d end=%d", s.StartUnixNano, s.EndUnixNano)
	}
	if s.Attrs["tenant"] != "alice" || s.Attrs["status"] != "accepted" {
		t.Fatalf("attrs not merged: %v", s.Attrs)
	}
}

func TestTraceObserveWhole(t *testing.T) {
	tr := NewTrace(0)
	start := time.Now().Add(-time.Second)
	end := time.Now()
	tr.Observe("queue", start, end, nil)
	spans, _ := tr.Snapshot()
	if len(spans) != 1 || spans[0].Name != "queue" {
		t.Fatalf("spans = %v", spans)
	}
	if d := spans[0].DurationSeconds(); d < 0.9 || d > 1.1 {
		t.Fatalf("duration = %v, want ~1s", d)
	}
}

func TestTraceEvictionCountsDrops(t *testing.T) {
	tr := NewTrace(8)
	for i := 0; i < 20; i++ {
		tr.Observe("checkpoint", time.Now(), time.Now(), nil)
	}
	spans, dropped := tr.Snapshot()
	if len(spans) != 8 {
		t.Fatalf("len(spans) = %d, want cap 8", len(spans))
	}
	if dropped != 12 {
		t.Fatalf("dropped = %d, want 12", dropped)
	}
}

func TestTraceEndAfterEvictionIsNoop(t *testing.T) {
	tr := NewTrace(8)
	id := tr.Start("run", nil)
	for i := 0; i < 10; i++ {
		tr.Observe("checkpoint", time.Now(), time.Now(), nil)
	}
	tr.End(id, nil) // evicted; must not panic or corrupt
	tr.End(0, nil)  // zero handle is always a no-op
	if tr.Len() != 8 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestTraceSnapshotIsDeepCopy(t *testing.T) {
	tr := NewTrace(0)
	tr.Observe("run", time.Now(), time.Now(), map[string]string{"attempt": "1"})
	spans, _ := tr.Snapshot()
	spans[0].Attrs["attempt"] = "tampered"
	again, _ := tr.Snapshot()
	if again[0].Attrs["attempt"] != "1" {
		t.Fatalf("snapshot aliases internal attrs")
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := tr.Start("run", nil)
				tr.End(id, nil)
				tr.Observe("checkpoint", time.Now(), time.Now(), nil)
				tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	spans, dropped := tr.Snapshot()
	if int64(len(spans))+dropped != 1600 {
		t.Fatalf("retained %d + dropped %d != 1600", len(spans), dropped)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram("x_seconds", "help", []float64{0.01, 0.1, 1})
	// Exactly on a bound lands in that bucket (le is inclusive).
	h.Observe(0.01)
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(10) // +Inf only
	var b strings.Builder
	h.WriteProm(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE x_seconds histogram\n",
		"x_seconds_bucket{le=\"0.01\"} 2\n",
		"x_seconds_bucket{le=\"0.1\"} 2\n",
		"x_seconds_bucket{le=\"1\"} 3\n",
		"x_seconds_bucket{le=\"+Inf\"} 4\n",
		"x_seconds_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if got, want := h.Sum(), 0.01+0.005+0.5+10; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestHistogramDedupAndInfBounds(t *testing.T) {
	h := NewHistogram("y", "help", []float64{1, 1, 0.5, math.Inf(1)})
	if len(h.upper) != 2 {
		t.Fatalf("upper = %v, want [0.5 1]", h.upper)
	}
	h.Observe(math.NaN()) // dropped
	if h.count.Load() != 0 {
		t.Fatalf("NaN was counted")
	}
}

func TestHistogramConcurrentMonotone(t *testing.T) {
	h := NewHistogram("z_seconds", "help", DurationBuckets())
	const goroutines, perG = 4, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := 0.0001 * float64(g+1)
			for i := 0; i < perG; i++ {
				h.Observe(v)
			}
		}(g)
	}
	// Scrape repeatedly while observers run: every exposition must be
	// internally cumulative-monotone and have _count == +Inf bucket.
	var prevCount int64
	for i := 0; i < 50; i++ {
		var b strings.Builder
		h.WriteProm(&b)
		count, inf := parseExposition(t, b.String(), "z_seconds")
		if count != inf {
			t.Fatalf("scrape %d: _count %d != +Inf bucket %d", i, count, inf)
		}
		if count < prevCount {
			t.Fatalf("scrape %d: _count went backwards %d -> %d", i, prevCount, count)
		}
		prevCount = count
	}
	wg.Wait()
	if got := h.count.Load(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	if got, want := h.Sum(), 5000*(0.0001+0.0002+0.0003+0.0004); math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// parseExposition checks cumulative monotonicity across the _bucket lines of
// family name and returns (_count value, +Inf bucket value).
func parseExposition(t *testing.T, text, name string) (count, inf int64) {
	t.Helper()
	var prev int64 = -1
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, name+"_bucket{"):
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Fatalf("bad bucket line %q", line)
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket value %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("buckets not cumulative: %q after %d", line, prev)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				inf = v
			}
		case strings.HasPrefix(line, name+"_count "):
			v, err := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			count = v
		}
	}
	return count, inf
}
