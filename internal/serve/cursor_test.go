package serve

import (
	"net/http"
	"net/url"
	"testing"
)

// FuzzResumeCursor: any Last-Event-ID header and raw query parse without a
// panic, a cursor is reported only when it is ≥ 1, and a non-empty header
// decides the cursor whatever ?last_event_id= says.
func FuzzResumeCursor(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""}, {"7", ""}, {"", "last_event_id=7"}, {"7", "last_event_id=9"},
		{"0", "last_event_id=5"}, {"-3", "last_event_id=2&last_event_id=3"}, {"x", "last_event_id=%34"},
		{"9223372036854775807", ""}, {"9223372036854775808", "last_event_id=1"}, {" 5", ""}, {"+5", "a=1;b"},
	} {
		f.Add(seed[0], seed[1])
	}
	req := func(header, query string) *http.Request {
		r := &http.Request{Header: http.Header{}, URL: &url.URL{RawQuery: query}}
		if header != "" {
			r.Header.Set("Last-Event-ID", header)
		}
		return r
	}
	f.Fuzz(func(t *testing.T, header, query string) {
		n, ok := resumeCursor(req(header, query))
		if ok && n < 1 {
			t.Fatalf("header %q, query %q: cursor %d reported ok", header, query, n)
		}
		if header == "" {
			return
		}
		if hn, hok := resumeCursor(req(header, "")); hn != n || hok != ok {
			t.Fatalf("header %q, query %q: cursor %d, %v; the header alone gives %d, %v", header, query, n, ok, hn, hok)
		}
	})
}
