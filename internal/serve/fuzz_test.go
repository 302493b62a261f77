package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzQueryPath throws arbitrary methods, paths and bodies at the query
// server and asserts its hard contract: no panic on any input, every
// response is valid JSON, and every non-200 carries the structured
// {"error": ...} shape — the recommender's client code never has to parse
// plain-text errors.
func FuzzQueryPath(f *testing.F) {
	f.Add("GET", "/v1/user/1", "")
	f.Add("GET", "/v1/user/", "")
	f.Add("GET", "/v1/item/4294967296", "")
	f.Add("GET", "/v1/pair?u=1&i=2", "")
	f.Add("GET", "/v1/pair?u=&i=%zz", "")
	f.Add("GET", "/v1/group/-1", "")
	f.Add("GET", "/healthz", "")
	f.Add("POST", "/v1/check", `[{"kind":"user","id":1}]`)
	f.Add("POST", "/v1/check", `[{"kind":"pair","user":1}]`)
	f.Add("POST", "/v1/check", `{`)
	f.Add("POST", "/v1/check", `[{"kind":"user","id":1}] garbage`)
	f.Add("POST", "/v1/check", `[{"kind":"user","id":1}][{"kind":"item","id":10}]`)
	f.Add("DELETE", "/v1/user/1", "")
	f.Add("GET", "//v1/user/1", "")
	f.Add("GET", "/v1/user/%31", "")
	f.Add("OPTIONS", "\x00", "\xff")

	store := NewStore(nil)
	if err := store.Publish(Build(twoGroupData())); err != nil {
		f.Fatal(err)
	}
	published := NewServer(store, Options{})
	empty := NewServer(NewStore(nil), Options{})

	f.Fuzz(func(t *testing.T, method, path, body string) {
		// http.NewRequest rejects some byte sequences outright; those are
		// the client library's problem, not the server's.
		req, err := http.NewRequest(method, "http://host"+path, strings.NewReader(body))
		if err != nil {
			return
		}
		for _, srv := range []*Server{published, empty} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req.Clone(req.Context()))

			got := rec.Body.Bytes()
			if !json.Valid(got) {
				t.Fatalf("%s %q: response body is not valid JSON: %q", method, path, got)
			}
			if rec.Code != http.StatusOK {
				var e errorResponse
				if err := json.Unmarshal(got, &e); err != nil || e.Error == "" {
					t.Fatalf("%s %q: status %d without structured error: %q", method, path, rec.Code, got)
				}
			}
		}
	})
}

// FuzzCheckDecodeMatchesJSON holds the served /v1/check to referenceCheck,
// which decodes every body with encoding/json: on any body, published or
// not, both give the same status, Content-Type and bytes. The canonical
// scanner may take only bodies whose answer it cannot change.
func FuzzCheckDecodeMatchesJSON(f *testing.F) {
	for _, c := range checkCases {
		// The batch- and size-limit bodies stay with the table test: the
		// mutator stalls on inputs that large.
		if len(c.body) <= 4<<10 {
			f.Add(c.body)
		}
	}
	for _, body := range []string{`[{"kind":"user","id":1}]`, `[{"kind":"pair","user":1}]`, `{`,
		`[{"kind":"user","id":1}] garbage`, `[{"kind":"user","id":1}][{"kind":"item","id":10}]`} {
		f.Add(body)
	}
	store := NewStore(nil)
	if err := store.Publish(Build(twoGroupData())); err != nil {
		f.Fatal(err)
	}
	published, empty := NewServer(store, Options{}), NewServer(NewStore(nil), Options{})
	f.Fuzz(func(t *testing.T, body string) {
		sameAnswer(t, published, store, body)
		sameAnswer(t, empty, empty.store, body)
	})
}
