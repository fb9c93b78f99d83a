package serve

import (
	"encoding/json"
	"fmt"
	"testing"
)

// TestRingSequenceAndEviction pins the ring's replay contract: dense
// monotonic sequences from 1, oldest-first eviction, and a since() that
// reports exactly how many events fell off the tail.
func TestRingSequenceAndEviction(t *testing.T) {
	r := newEventRingFrom(4, 1)
	if got, missed := r.since(0); got != nil || missed != 0 {
		t.Fatalf("empty ring since(0) = %v, %d", got, missed)
	}
	for i := 1; i <= 6; i++ {
		if seq := r.append("diag", []byte(fmt.Sprintf("%d", i))); seq != int64(i) {
			t.Fatalf("append %d assigned seq %d", i, seq)
		}
	}
	if r.head() != 6 || r.firstRetained() != 3 {
		t.Fatalf("head %d firstRetained %d, want 6 and 3", r.head(), r.firstRetained())
	}

	// Resume from 0: events 1-2 are gone and must be counted, 3-6 replay.
	evs, missed := r.since(0)
	if missed != 2 {
		t.Fatalf("missed %d, want 2", missed)
	}
	for i, ev := range evs {
		if ev.seq != int64(3+i) || string(ev.data) != fmt.Sprintf("%d", 3+i) {
			t.Fatalf("replayed event %d = seq %d data %q", i, ev.seq, ev.data)
		}
	}

	// Resume from inside the retained window: exact continuation, no gap.
	evs, missed = r.since(4)
	if missed != 0 || len(evs) != 2 || evs[0].seq != 5 || evs[1].seq != 6 {
		t.Fatalf("since(4) = %v events, missed %d", len(evs), missed)
	}

	// Fully caught up: nothing to replay.
	if evs, missed = r.since(6); len(evs) != 0 || missed != 0 {
		t.Fatalf("since(head) = %v events, missed %d", len(evs), missed)
	}
}

func TestRingTrimTo(t *testing.T) {
	r := newEventRingFrom(8, 1)
	for i := 1; i <= 8; i++ {
		r.append("diag", nil)
	}
	r.trimTo(2)
	if r.firstRetained() != 7 || r.head() != 8 {
		t.Fatalf("after trimTo(2): firstRetained %d head %d", r.firstRetained(), r.head())
	}
	// Sequences keep advancing past a trim.
	if seq := r.append("done", nil); seq != 9 {
		t.Fatalf("post-trim append assigned %d", seq)
	}
	if _, missed := r.since(0); missed != 6 {
		t.Fatalf("post-trim since(0) missed %d, want 6", missed)
	}
}

// TestMarshalEventFallback pins satellite: an unencodable payload must
// degrade to a readable "error" event, never kill the stream.
func TestMarshalEventFallback(t *testing.T) {
	typ, data := marshalEvent("diag", map[string]any{"bad": make(chan int)})
	if typ != "error" {
		t.Fatalf("fallback type %q", typ)
	}
	var body map[string]string
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("fallback payload not JSON: %v", err)
	}
	if body["error"] == "" {
		t.Fatalf("fallback payload missing error: %v", body)
	}
	if body["schema"] != eventSchema {
		t.Fatalf("fallback payload schema = %q, want %q", body["schema"], eventSchema)
	}

	// Every map payload is stamped with the schema version — the event
	// stream contract clients pin on.
	typ, data = marshalEvent("diag", map[string]any{"step": 1})
	if typ != "diag" || string(data) != `{"schema":"v1","step":1}` {
		t.Fatalf("clean marshal = %q %q", typ, data)
	}
}
