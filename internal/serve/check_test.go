package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// referenceCheck is /v1/check as it was before the canonical-shape scanner:
// encoding/json decodes every body straight off the size-limited reader,
// and every pair's groups come from Index.Pair. The served path must answer
// every body exactly as it does.
func referenceCheck(store *Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var items []CheckItem
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCheckBody))
		dec.DisallowUnknownFields()
		err := dec.Decode(&items)
		if err == nil {
			if _, err = dec.Token(); err == io.EOF {
				err = nil
			} else if !errors.As(err, new(*http.MaxBytesError)) {
				err = errors.New("trailing data after the request array")
			}
		}
		if err != nil {
			var maxErr *http.MaxBytesError
			if errors.As(err, &maxErr) {
				writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", maxErr.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return
		}
		if len(items) > DefaultMaxBatch {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d entries over the %d limit", len(items), DefaultMaxBatch))
			return
		}
		for k, it := range items {
			switch it.Kind {
			case "user", "item":
				if it.ID == nil {
					writeError(w, http.StatusBadRequest, fmt.Sprintf("entry %d: kind %q needs \"id\"", k, it.Kind))
					return
				}
			case "pair":
				if it.User == nil || it.Item == nil {
					writeError(w, http.StatusBadRequest, fmt.Sprintf("entry %d: kind \"pair\" needs \"user\" and \"item\"", k))
					return
				}
			default:
				writeError(w, http.StatusBadRequest, fmt.Sprintf("entry %d: unknown kind %q (want user, item or pair)", k, it.Kind))
				return
			}
		}
		ix := store.Current()
		if ix == nil {
			writeError(w, http.StatusServiceUnavailable, "no verdict index published yet")
			return
		}
		var answers []any
		for _, it := range items {
			if it.Kind == "pair" {
				answers = append(answers, pairResponse(ix, *it.User, *it.Item))
			} else {
				answers = append(answers, nodeResponse(ix, it.Kind, *it.ID))
			}
		}
		if answers == nil {
			answers = []any{}
		}
		writeJSON(w, answers)
	}
}

// checkCases are bodies off the canonical shape, each of which encoding/json
// decides, plus canonical edges. status is the answer the case must get, 0
// where only agreement with referenceCheck is asserted.
var checkCases = []struct {
	name   string
	body   string
	status int
}{
	{"canonical", `[{"kind":"user","id":2},{"kind":"item","id":10},{"kind":"pair","user":1,"item":10}]`, 200},
	{"case-folded key", `[{"kind":"user","ID":2}]`, 200},
	{"duplicate id", `[{"kind":"user","id":1,"id":2}]`, 200},
	{"duplicate kind", `[{"kind":"shop","kind":"user","id":2}]`, 200},
	{"null id", `[{"kind":"user","id":null}]`, 400},
	{"null body", `null`, 200},
	{"string body", `"user"`, 400},
	{"folded kind", `[{"kind":"User","id":2}]`, 400},
	{"escaped kind", `[{"kind":"us\u0065r","id":2}]`, 200},
	{"escaped key", `[{"kind":"user","\u0069d":2}]`, 200},
	{"float", `[{"kind":"user","id":1.0}]`, 400},
	{"exponent", `[{"kind":"user","id":1e2}]`, 400},
	{"negative", `[{"kind":"user","id":-1}]`, 400},
	{"leading zero", `[{"kind":"user","id":01}]`, 400},
	{"zero", `[{"kind":"user","id":0}]`, 200},
	{"max id", `[{"kind":"item","id":4294967295}]`, 200},
	{"id over MaxUint32", `[{"kind":"user","id":4294967296}]`, 400},
	{"pair over MaxUint32", `[{"kind":"pair","user":1,"item":42949672950}]`, 400},
	{"unknown field", `[{"kind":"user","id":1,"bogus":true}]`, 400},
	{"unknown kind", `[{"kind":"shop","id":1}]`, 400},
	{"empty object", `[{}]`, 400},
	{"missing id", `[{"kind":"user"},{"kind":"shop"}]`, 400},
	{"half pair", `[{"kind":"pair","user":1}]`, 400},
	{"extra ids", `[{"kind":"pair","id":7,"user":1,"item":10},{"kind":"user","id":2,"item":3}]`, 200},
	{"empty array", `[]`, 200},
	{"empty body", ``, 400},
	{"whitespace wrapped", " \t\r\n[ {\n\"kind\" : \"user\" , \"id\" :\t2 } ,{\"kind\":\"item\",\"id\":10}\n] \n\t ", 200},
	{"trailing garbage", `[{"kind":"user","id":1}] garbage`, 400},
	{"second array", `[{"kind":"user","id":1}][]`, 400},
	{"trailing comma", `[{"kind":"user","id":1},]`, 400},
	{"object comma", `[{"kind":"user","id":1,}]`, 400},
	{"unclosed", `[{"kind":"user","id":1}`, 400},
	{"over the batch limit", "[" + strings.Repeat(`{"kind":"user","id":1},`, DefaultMaxBatch) + `{"kind":"user","id":2}]`, 400},
	{"at the batch limit", "[" + strings.TrimSuffix(strings.Repeat(`{"kind":"user","id":1},`, DefaultMaxBatch), ",") + "]", 200},
	{"valid array then 2 MiB of spaces", `[{"kind":"user","id":1}]` + strings.Repeat(" ", 2<<20), 413},
	{"syntax error early in a body over 1 MiB", `[{"kind" "user"}` + strings.Repeat(" ", 2<<20), 400},
	{"syntax error late in a body over the batch limit", "[" + strings.Repeat(`{"kind":"user","id":1},`, DefaultMaxBatch+1) + `x]`, 400},
}

// answer serves one POST /v1/check with body through h.
func answer(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(body)))
	return rec
}

// sameAnswer fails unless the served path and referenceCheck give body the
// same status, Content-Type and bytes.
func sameAnswer(t *testing.T, srv *Server, store *Store, body string) *httptest.ResponseRecorder {
	t.Helper()
	got, want := answer(srv, body), answer(referenceCheck(store), body)
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
		!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("body %.80q:\n served    %d %q %.200s\n reference %d %q %.200s", body,
			got.Code, got.Header().Get("Content-Type"), got.Body, want.Code, want.Header().Get("Content-Type"), want.Body)
	}
	return got
}

func TestCheckFallbackMatchesDecoder(t *testing.T) {
	store := publishedStore(t)
	srv, empty := NewServer(store, Options{}), NewServer(NewStore(nil), Options{})
	for _, c := range checkCases {
		t.Run(c.name, func(t *testing.T) {
			if got := sameAnswer(t, srv, store, c.body); c.status != 0 && got.Code != c.status {
				t.Fatalf("status %d, want %d: %.200s", got.Code, c.status, got.Body)
			}
			sameAnswer(t, empty, empty.store, c.body)
		})
	}
}

// checkBody is an n-entry /v1/check body cycling through the user, item
// and pair kinds over blocksData's IDs.
func checkBody(n int) []byte {
	var body bytes.Buffer
	body.WriteByte('[')
	for k := range n {
		if k > 0 {
			body.WriteByte(',')
		}
		switch id := k * 997; k % 3 {
		case 0:
			fmt.Fprintf(&body, `{"kind":"user","id":%d}`, id)
		case 1:
			fmt.Fprintf(&body, `{"kind":"item","id":%d}`, id%400)
		default:
			fmt.Fprintf(&body, `{"kind":"pair","user":%d,"item":%d}`, id, id/600*16)
		}
	}
	body.WriteByte(']')
	return body.Bytes()
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so that what a request allocates is the server's.
type discardWriter struct {
	hdr    http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// checkLoop returns a function that serves one POST /v1/check with body
// through h and returns its status, reusing one request and one writer.
func checkLoop(h http.Handler, body []byte) func() int {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/check", rd)
	w := &discardWriter{hdr: http.Header{}}
	return func() int {
		rd.Reset(body)
		w.status = http.StatusOK
		h.ServeHTTP(w, req)
		return w.status
	}
}

// TestCheckAllocsPerRequest pins what a check allocates: one object per
// request (http.MaxBytesReader's), however many entries it holds.
func TestCheckAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	store := NewStore(nil)
	if err := store.Publish(Build(blocksData())); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, Options{})
	var counts []float64
	for _, n := range []int{16, 1024, DefaultMaxBatch} {
		serve := checkLoop(srv, checkBody(n))
		if code := serve(); code != http.StatusOK {
			t.Fatalf("%d entries: status %d", n, code)
		}
		allocs := testing.AllocsPerRun(100, func() { serve() })
		if allocs > 1 {
			t.Errorf("%d entries: %v allocs per check, want at most 1", n, allocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[0] != counts[2] {
		t.Errorf("allocs per check at 16, 1024 and %d entries = %v, want one count", DefaultMaxBatch, counts)
	}
}

// TestInstrumentNamesOnce: with an observer every endpoint still counts its
// requests and times them, and without one instrument allocates nothing.
func TestInstrumentNamesOnce(t *testing.T) {
	o := obs.NewObserver("test")
	srv := NewServer(publishedStore(t), Options{Obs: o})
	get(t, srv, "/healthz")
	get(t, srv, "/v1/user/1")
	get(t, srv, "/v1/item/10")
	get(t, srv, "/v1/group/1")
	get(t, srv, "/v1/pair?u=1&i=10")
	answer(srv, `[{"kind":"user","id":1}]`)
	answer(srv, `[{"kind":"user","id":1}]`)
	for name, want := range map[string]int64{"healthz": 1, "user": 1, "item": 1, "group": 1, "pair": 1, "check": 2} {
		if got := o.Counter("serve.req." + name).Value(); got != want {
			t.Errorf("serve.req.%s = %d, want %d", name, got, want)
		}
		if got := o.Histogram("serve.latency." + name).Count(); got != want {
			t.Errorf("serve.latency.%s count = %d, want %d", name, got, want)
		}
	}

	quiet := NewServer(publishedStore(t), Options{})
	w, r := &discardWriter{hdr: http.Header{}}, httptest.NewRequest(http.MethodGet, "/healthz", nil)
	noop := func(http.ResponseWriter, *http.Request) {}
	if allocs := testing.AllocsPerRun(100, func() { quiet.instrument("serve.req.check", "serve.latency.check", w, r, noop) }); allocs != 0 {
		t.Fatalf("instrument with a nil observer: %v allocs, want 0", allocs)
	}
}
