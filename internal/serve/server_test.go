package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func publishedStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(nil)
	if err := s.Publish(Build(twoGroupData())); err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

func TestNodeEndpoints(t *testing.T) {
	srv := NewServer(publishedStore(t), Options{})

	code, body := get(t, srv, "/v1/user/2")
	if code != http.StatusOK {
		t.Fatalf("user 2: %d %s", code, body)
	}
	var nr NodeResponse
	if err := json.Unmarshal([]byte(body), &nr); err != nil {
		t.Fatal(err)
	}
	if !nr.Suspicious || nr.Score != 4 || len(nr.Groups) != 2 || nr.Epoch != 1 || nr.Kind != "user" {
		t.Fatalf("user 2 response = %+v", nr)
	}

	code, body = get(t, srv, "/v1/item/99")
	if code != http.StatusOK {
		t.Fatalf("item 99: %d %s", code, body)
	}
	nr = NodeResponse{} // fresh target: omitted "groups" must not inherit
	if err := json.Unmarshal([]byte(body), &nr); err != nil {
		t.Fatal(err)
	}
	if nr.Suspicious || nr.Groups != nil || nr.Kind != "item" {
		t.Fatalf("unknown item response = %+v, want clean", nr)
	}

	// Malformed IDs are structured 400s, not panics or plain text.
	for _, path := range []string{"/v1/user/", "/v1/user/abc", "/v1/user/-1", "/v1/user/4294967296", "/v1/item/1x"} {
		code, body = get(t, srv, path)
		if code != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
			t.Fatalf("%s: %d %q, want structured 400", path, code, body)
		}
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/user/1", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST node = %d, want 405", rec.Code)
	}
}

func TestPairEndpoint(t *testing.T) {
	srv := NewServer(publishedStore(t), Options{})

	code, body := get(t, srv, "/v1/pair?u=1&i=10")
	if code != http.StatusOK {
		t.Fatalf("pair: %d %s", code, body)
	}
	var pr PairResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.InGroup || len(pr.Groups) != 1 || pr.Epoch != 1 {
		t.Fatalf("pair(1,10) = %+v", pr)
	}

	code, body = get(t, srv, "/v1/pair?u=1&i=12")
	if err := json.Unmarshal([]byte(body), &pr); err != nil || code != http.StatusOK {
		t.Fatalf("pair(1,12): %d %v", code, err)
	}
	if pr.InGroup {
		t.Fatalf("cross-group pair = %+v, want not in-group", pr)
	}

	if code, body = get(t, srv, "/v1/pair?u=1"); code != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
		t.Fatalf("missing i: %d %q", code, body)
	}
	if code, _ = get(t, srv, "/v1/pair?u=x&i=1"); code != http.StatusBadRequest {
		t.Fatalf("bad u: %d", code)
	}
}

func TestGroupEndpoint(t *testing.T) {
	srv := NewServer(publishedStore(t), Options{})

	code, body := get(t, srv, "/v1/group/1")
	if code != http.StatusOK {
		t.Fatalf("group 1: %d %s", code, body)
	}
	var gr GroupResponse
	if err := json.Unmarshal([]byte(body), &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Group != 1 || gr.Score != 9.5 || len(gr.Users) != 2 {
		t.Fatalf("group 1 = %+v", gr)
	}
	if code, _ = get(t, srv, "/v1/group/3"); code != http.StatusNotFound {
		t.Fatalf("group 3 = %d, want 404", code)
	}
	if code, _ = get(t, srv, "/v1/group/zzz"); code != http.StatusBadRequest {
		t.Fatalf("group zzz = %d, want 400", code)
	}
}

// TestEmptyStore503: before the first publication every verdict query is
// an explicit 503 — serving "clean" with no index would be a silent false
// negative.
func TestEmptyStore503(t *testing.T) {
	srv := NewServer(NewStore(nil), Options{})
	for _, path := range []string{"/v1/user/1", "/v1/item/1", "/v1/pair?u=1&i=1", "/v1/group/1"} {
		code, body := get(t, srv, path)
		if code != http.StatusServiceUnavailable || !strings.Contains(body, `"error"`) {
			t.Fatalf("%s on empty store: %d %q, want structured 503", path, code, body)
		}
	}
	// /healthz still answers 200, reporting empty.
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var h HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "empty" || h.Epoch != 0 || h.AgeMS != -1 {
		t.Fatalf("empty health = %+v", h)
	}
}

func TestHealthzServingAndDegraded(t *testing.T) {
	store := publishedStore(t)
	degraded := false
	srv := NewServer(store, Options{Degraded: func() bool { return degraded }})

	code, body := get(t, srv, "/healthz")
	var h HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil || code != http.StatusOK {
		t.Fatalf("healthz: %d %v", code, err)
	}
	if h.Status != "serving" || h.Epoch != 1 || h.Groups != 2 || h.AgeMS < 0 || h.Degraded {
		t.Fatalf("health = %+v", h)
	}

	degraded = true
	_, body = get(t, srv, "/healthz")
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || !h.Degraded {
		t.Fatalf("degraded health = %+v", h)
	}
}

func TestCheckBatch(t *testing.T) {
	srv := NewServer(publishedStore(t), Options{})
	post := func(body string) (int, string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(body))
		srv.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}

	code, body := post(`[
		{"kind":"user","id":2},
		{"kind":"item","id":99},
		{"kind":"pair","user":1,"item":10}
	]`)
	if code != http.StatusOK {
		t.Fatalf("check: %d %s", code, body)
	}
	var out []json.RawMessage
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("check returned %d answers, want 3", len(out))
	}
	var nr NodeResponse
	if err := json.Unmarshal(out[0], &nr); err != nil || !nr.Suspicious {
		t.Fatalf("batch user verdict = %+v (%v)", nr, err)
	}
	var pr PairResponse
	if err := json.Unmarshal(out[2], &pr); err != nil || !pr.InGroup {
		t.Fatalf("batch pair verdict = %+v (%v)", pr, err)
	}

	for name, bad := range map[string]string{
		"not json":      `{`,
		"unknown field": `[{"kind":"user","id":1,"bogus":true}]`,
		"unknown kind":  `[{"kind":"shop","id":1}]`,
		"missing id":    `[{"kind":"user"}]`,
		"half pair":     `[{"kind":"pair","user":1}]`,
	} {
		if code, body := post(bad); code != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
			t.Fatalf("%s: %d %q, want structured 400", name, code, body)
		}
	}

	// One array and only whitespace after it: a second value or garbage
	// would otherwise be silently dropped from the answer.
	for name, bad := range map[string]string{
		"trailing garbage": `[{"kind":"user","id":1}] garbage`,
		"second array":     `[{"kind":"user","id":1}][{"kind":"user","id":2}]`,
		"stray bracket":    `[{"kind":"user","id":1}]]`,
	} {
		code, body := post(bad)
		if code != http.StatusBadRequest || !strings.Contains(body, "bad request body: trailing data after the request array") {
			t.Fatalf("%s: %d %q, want 400 trailing data", name, code, body)
		}
	}
	if code, body := post("[{\"kind\":\"user\",\"id\":1}] \n\t "); code != http.StatusOK {
		t.Fatalf("trailing whitespace: %d %q, want 200", code, body)
	}

	// Batch over the limit is rejected before any work; one at the limit
	// is answered.
	full := strings.Repeat(`{"kind":"user","id":1},`, DefaultMaxBatch)
	if code, body := post("[" + strings.TrimSuffix(full, ",") + "]"); code != http.StatusOK {
		t.Fatalf("batch at the limit = %d %q, want 200", code, body[:min(len(body), 200)])
	}
	over := "[" + full + `{"kind":"user","id":2}]`
	if code, body := post(over); code != http.StatusBadRequest || !strings.Contains(body, "limit") {
		t.Fatalf("over-limit batch = %d %q, want 400 over the limit", code, body)
	}

	// Oversized body is a 413, not an unmarshal 400.
	huge := strings.Repeat(" ", maxCheckBody+1)
	if code, _ := post("[" + huge + "]"); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", code)
	}

	if code, _ := get(t, srv, "/v1/check"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET check = %d, want 405", code)
	}
}

func TestUnknownRoute404(t *testing.T) {
	srv := NewServer(publishedStore(t), Options{})
	for _, path := range []string{"/", "/v1", "/v1/", "/v1/users/1", "/metrics"} {
		code, body := get(t, srv, path)
		if code != http.StatusNotFound || !strings.Contains(body, `"error"`) {
			t.Fatalf("%s: %d %q, want structured 404", path, code, body)
		}
	}
}

// TestInflightShedding saturates the in-flight semaphore (in-package, so
// the test can hold the slots deterministically) and checks the contract:
// verdict queries shed with a counted, structured 429; /healthz is exempt
// and still answers; freed slots serve again.
func TestInflightShedding(t *testing.T) {
	o := obs.NewObserver("test")
	srv := NewServer(publishedStore(t), Options{Obs: o, MaxInflight: 2})
	srv.inflight <- struct{}{}
	srv.inflight <- struct{}{} // both slots held

	code, body := get(t, srv, "/v1/user/1")
	if code != http.StatusTooManyRequests || !strings.Contains(body, `"error"`) {
		t.Fatalf("saturated server = %d %q, want structured 429", code, body)
	}
	if got := o.Counter("serve.shed").Value(); got != 1 {
		t.Fatalf("serve.shed = %d, want 1", got)
	}
	// /healthz is exempt: health must answer while every slot is held.
	if code, _ = get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz under saturation = %d, want 200", code)
	}

	<-srv.inflight
	<-srv.inflight
	if code, _ = get(t, srv, "/v1/user/1"); code != http.StatusOK {
		t.Fatalf("after slots freed = %d, want 200", code)
	}
}

// TestDrainUnderLoadNoLeaks hammers a live server over real TCP while
// epochs swap underneath, then shuts it down gracefully: every in-flight
// request completes with a whole-epoch answer and no handler goroutine
// outlives the drain.
func TestDrainUnderLoadNoLeaks(t *testing.T) {
	store := publishedStore(t)
	o := obs.NewObserver("test")
	srv := NewServer(store, Options{Obs: o, MaxInflight: 64})

	before := runtime.NumGoroutine()
	ts := httptest.NewServer(srv)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	client := ts.Client()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(fmt.Sprintf("%s/v1/user/%d", ts.URL, n%8))
				if err != nil {
					return // server shutting down
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				// 200 or 429 (shed) are the only acceptable answers.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("query returned %d: %s", resp.StatusCode, body)
					return
				}
			}
		}(w)
	}

	// Swap epochs underneath the load.
	for seq := 0; seq < 50; seq++ {
		if err := store.Publish(Build(twoGroupData())); err != nil {
			t.Fatal(err)
		}
	}

	close(stop)
	wg.Wait()
	ts.Close() // graceful: waits for outstanding requests

	// All handler goroutines drain; allow the runtime a moment to retire
	// them (same discipline as the facade robustness tests).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked across drain: %d before, %d after", before, now)
	}
}

// TestVerdictBytesMatchMarshal pins the reflection-free verdict encoder to
// encoding/json: the struct tags are the spec, and every float takes
// json.Marshal's form, at the 'f'/'e' switch points, at the extremes and
// over sixty decades of random values.
func TestVerdictBytesMatchMarshal(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 1.0 / 3, 1e-7, 1e-6, 1e21, 1e20, 123456789e-15,
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.5e-300, 4}
	rng := rand.New(rand.NewSource(1))
	for range 100_000 {
		f := (rng.Float64()*9 + 1) * math.Pow(10, float64(rng.Intn(61)-30))
		if rng.Intn(2) == 0 {
			f = -f
		}
		floats = append(floats, f)
	}
	groupLists := [][]int{nil, {}, {1}, {1, 2, 24}, {math.MaxInt32, -3}}
	same := func(v interface {
		appendJSON([]byte) ([]byte, error)
	}) {
		t.Helper()
		want, werr := json.Marshal(v)
		got, gerr := v.appendJSON([]byte("prefix"))
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("%#v: appendJSON error %v, json.Marshal %v", v, gerr, werr)
		}
		if werr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("%#v:\n appendJSON %s\n json.Marshal %s", v, got[len("prefix"):], want)
		}
	}
	for i, f := range floats {
		groups := groupLists[i%len(groupLists)]
		same(NodeResponse{Kind: "user", ID: uint32(i), Suspicious: i%2 == 0, Score: f, Groups: groups, Epoch: uint64(i) << 20})
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		same(NodeResponse{Kind: "item", Score: f})
	}
	same(NodeResponse{Kind: "item", ID: math.MaxUint32, Score: 2, Epoch: math.MaxUint64})
	for i, groups := range groupLists {
		same(PairResponse{User: uint32(i), Item: math.MaxUint32, InGroup: len(groups) > 0, Groups: groups, Epoch: uint64(i)})
	}
}

// BenchmarkCheck answers /v1/check batches of users, items and pairs
// against the blocks_resweep epoch's index, reusing one request and a
// discarding writer so that what it counts is the server's.
func BenchmarkCheck(b *testing.B) {
	store := NewStore(nil)
	if err := store.Publish(Build(blocksData())); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(store, Options{})
	for _, n := range []int{16, 1024} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			serve := checkLoop(srv, checkBody(n))
			b.ReportAllocs()
			for b.Loop() {
				if code := serve(); code != http.StatusOK {
					b.Fatalf("check: %d", code)
				}
			}
		})
	}
}
