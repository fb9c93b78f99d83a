// The per-job diagnostics ring: the replay buffer behind the SSE surface.
// Every event a job emits — scheduler status transitions, per-step
// diagnostics, the terminal document — is stamped with a monotonic
// sequence number and retained in a bounded ring, so a subscriber is a
// *cursor over the ring*, not a queue the publisher pushes into. That
// single inversion fixes the old surface's two losses at once: a slow
// client can no longer silently miss events (its cursor just falls
// behind, and catches up from the ring), and a disconnected client
// resumes exactly where it left off by sending the last id it saw
// (Last-Event-ID). The only loss left is ring eviction, and that loss is
// *visible*: since() reports how many events fell off the tail, and the
// handler turns the count into an explicit "gap" event.
package serve

import "encoding/json"

// ringEvent is one retained event: its sequence number (the SSE id), the
// event type, and the pre-marshalled JSON payload. Data is immutable once
// appended, so handlers may write it after dropping the server lock.
type ringEvent struct {
	seq  int64
	typ  string
	data []byte
}

// eventRing is a bounded ring of a job's events with monotonic sequence
// numbers starting at 1. Not internally synchronised — the serve layer
// guards every ring with the server mutex.
type eventRing struct {
	buf   []ringEvent
	start int   // index of the oldest retained event
	count int   // retained events
	next  int64 // next sequence number to assign
}

// newEventRingFrom returns a ring retaining up to capacity events (minimum
// 1: the terminal event must always be retainable) whose first event will
// carry sequence number next — 1 for a new job; a restarted daemon passes
// the end of the journaled reservation to continue a job's numbering
// instead of resetting to 1. Everything before next is treated as evicted:
// a resuming client with an older cursor gets a gap, not a reset.
func newEventRingFrom(capacity int, next int64) *eventRing {
	if capacity < 1 {
		capacity = 1
	}
	if next < 1 {
		next = 1
	}
	return &eventRing{buf: make([]ringEvent, capacity), next: next}
}

// append stamps the event with the next sequence number and retains it,
// evicting the oldest event when full. It returns the assigned sequence.
func (r *eventRing) append(typ string, data []byte) int64 {
	seq := r.next
	r.next++
	i := (r.start + r.count) % len(r.buf)
	r.buf[i] = ringEvent{seq: seq, typ: typ, data: data}
	if r.count < len(r.buf) {
		r.count++
	} else {
		r.start = (r.start + 1) % len(r.buf)
	}
	return seq
}

// head returns the newest assigned sequence number (0 before any append).
func (r *eventRing) head() int64 { return r.next - 1 }

// firstRetained returns the oldest retained sequence (0 when empty).
func (r *eventRing) firstRetained() int64 {
	if r.count == 0 {
		return 0
	}
	return r.buf[r.start].seq
}

// since returns every retained event with sequence > after, in order, plus
// the number of events that existed in (after, firstRetained) but have
// been evicted — the gap a resuming client must be told about instead of
// being shown a seamless-but-wrong sequence.
func (r *eventRing) since(after int64) (evs []ringEvent, missed int64) {
	if r.count == 0 {
		// An empty ring can still be *advanced*: a restart-continued ring
		// starts past 1, so a cursor behind r.next has missed everything in
		// between and must be told so.
		if after+1 < r.next {
			missed = r.next - 1 - after
		}
		return nil, missed
	}
	first := r.firstRetained()
	if after+1 < first {
		missed = first - after - 1
	}
	from := after + 1
	if from < first {
		from = first
	}
	if from > r.head() {
		return nil, missed
	}
	n := int(r.head() - from + 1)
	evs = make([]ringEvent, 0, n)
	// Sequences are dense: the event with seq q lives at offset q-first.
	off := int(from - first)
	for i := off; i < r.count; i++ {
		evs = append(evs, r.buf[(r.start+i)%len(r.buf)])
	}
	return evs, missed
}

// trimTo shrinks retention to the newest n events (the terminal tail a
// finished job keeps: full rings on thousands of retained terminal jobs
// would dominate the daemon's memory for history nobody replays).
func (r *eventRing) trimTo(n int) {
	if n < 1 {
		n = 1
	}
	for r.count > n {
		r.buf[r.start] = ringEvent{}
		r.start = (r.start + 1) % len(r.buf)
		r.count--
	}
}

// eventSchema is the version tag stamped into every SSE event payload.
// External consumers pin on it: a breaking change to any event's shape
// bumps the tag, an additive change does not. See README "Event stream
// contract".
const eventSchema = "v1"

// marshalEvent marshals an event payload, degrading a marshal failure to
// an "error"-typed event carrying the failure string: the stream must end
// (or continue) with a visible reason, never die silently mid-sequence.
// Map payloads (every event the daemon emits) are stamped with the schema
// version before marshalling.
func marshalEvent(typ string, body any) (string, []byte) {
	if m, ok := body.(map[string]any); ok {
		if _, exists := m["schema"]; !exists {
			m["schema"] = eventSchema
		}
	}
	data, err := json.Marshal(body)
	if err != nil {
		fallback, _ := json.Marshal(map[string]string{
			"schema": eventSchema,
			"error":  "encoding " + typ + " event: " + err.Error(),
		})
		return "error", fallback
	}
	return typ, data
}
