package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"vlasov6d/internal/catalog"
)

// TestSSENeverReadingClientReleased: a client that asks for a job's stream
// and never reads fills the socket buffers (2 KiB to receive, 4 KiB to send)
// and blocks its handler in a write. Once the job is done, the handler must
// give up within the write deadline and release its subscription and
// goroutine.
func TestSSENeverReadingClientReleased(t *testing.T) {
	checkNoGoroutineLeak(t)
	saved := sseWriteTimeout
	sseWriteTimeout = 200 * time.Millisecond
	t.Cleanup(func() { sseWriteTimeout = saved })
	srv, err := New(context.Background(), Config{Catalog: catalog.Default(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			c.(*net.TCPConn).SetWriteBuffer(4 << 10)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	code, body := postJSON(t, ts.URL+"/v1/jobs",
		`{"scenario":"landau","name":"stall","params":{"nx":16,"nv":32},"until":100}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	subs := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.jobs[id].subs)
	}

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.(*net.TCPConn).SetReadBuffer(2 << 10); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn, "GET /v1/jobs/%d/diagnostics HTTP/1.1\r\nHost: test\r\n\r\n", id); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for subs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the stream never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	pollStatus(t, ts.URL, id, "done")
	limit := sseWriteTimeout + 2*time.Second
	for end := time.Now(); subs() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Since(end) > limit {
			t.Fatalf("handler still streaming to a client that never reads, %v after the job ended", limit)
		}
	}
}

// FuzzSSEEvent: whatever strings, keys and floats (NaN and ±Inf through
// safeNum) an event body holds, marshalEvent and writeSSE frame it as one
// optional id line, one event line, one data line of JSON that carries the
// schema tag, and a blank line.
func FuzzSSEEvent(f *testing.F) {
	types := []string{"diag", "status", "gap", "done"}
	for _, seed := range []struct {
		typ      uint8
		id       int64
		key, val string
		num      float64
	}{
		{0, 1, "z", "x", 0.5},
		{1, 0, "error", "line\nbreak\r\n", math.NaN()},
		{2, -3, "", "\x00\xff", math.Inf(1)},
		{3, 1 << 62, "schema", "data: forged\n\nevent: done", math.Inf(-1)},
		{0, 7, "step", "</script> ", math.Copysign(0, -1)},
	} {
		f.Add(seed.typ, seed.id, seed.key, seed.val, seed.num)
	}
	f.Fuzz(func(t *testing.T, ti uint8, id int64, key, val string, num float64) {
		body := map[string]any{key: val, "clock": safeNum(num)}
		typ, data := marshalEvent(types[int(ti)%len(types)], body)
		var buf bytes.Buffer
		if err := writeSSE(&buf, id, typ, data); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(buf.String(), "\n")
		if id > 0 {
			if lines[0] != "id: "+strconv.FormatInt(id, 10) {
				t.Fatalf("id %d framed as %q", id, lines[0])
			}
			lines = lines[1:]
		}
		if len(lines) != 4 || lines[0] != "event: "+typ || !strings.HasPrefix(lines[1], "data: ") || lines[2] != "" || lines[3] != "" {
			t.Fatalf("event not framed as one event line, one data line and a blank line: %q", buf.String())
		}
		var got map[string]any
		if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[1], "data: ")), &got); err != nil {
			t.Fatalf("data line is not JSON: %v: %q", err, lines[1])
		}
		if _, ok := got["schema"]; !ok {
			t.Fatalf("data carries no schema: %q", lines[1])
		}
		if key == "clock" {
			return
		}
		want := safeNum(num)
		if s, isStr := want.(string); isStr && got["clock"] != s || !isStr && got["clock"] != num {
			t.Fatalf("clock %v came back as %v", num, got["clock"])
		}
	})
}
