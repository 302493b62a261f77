package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultMaxBatch bounds /v1/check request arrays: large enough for a full
// recommendation page's candidate set many times over, small enough that
// one request cannot monopolize the server.
const DefaultMaxBatch = 4096

// maxCheckBody bounds the /v1/check request body (1 MiB comfortably holds
// DefaultMaxBatch entries).
const maxCheckBody = 1 << 20

// Options configures a Server.
type Options struct {
	// Obs, when non-nil, receives per-endpoint request counters
	// (serve.req.<endpoint>), latency histograms (serve.latency.<endpoint>)
	// and the serve.shed counter. Nil disables instrumentation at no cost.
	Obs *obs.Observer
	// MaxInflight bounds concurrently served requests; excess requests are
	// shed with 429 (counted under serve.shed, never silent — the PR 6
	// buffer's shed-accounting discipline applied to queries). 0 means
	// unlimited. /healthz is exempt: health must answer under overload.
	MaxInflight int
	// Degraded, when non-nil, feeds the /healthz degraded flag — wire the
	// streaming detector's durability latch (DurabilityErr != nil) here.
	Degraded func() bool
}

// Server answers verdict queries over HTTP/JSON from the store's current
// index. Every request captures one immutable *Index and answers entirely
// from it, so a response is always internally consistent — mid-swap reads
// see the old epoch whole, post-swap reads the new epoch whole, never a
// mix. Implements http.Handler.
type Server struct {
	store    *Store
	o        *obs.Observer
	inflight chan struct{}
	degraded func() bool
}

// NewServer returns a query server over store.
func NewServer(store *Store, opts Options) *Server {
	s := &Server{
		store:    store,
		o:        opts.Obs,
		degraded: opts.Degraded,
	}
	if opts.MaxInflight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInflight)
	}
	return s
}

// NodeResponse is the JSON verdict for one user or item.
type NodeResponse struct {
	Kind       string  `json:"kind"` // "user" or "item"
	ID         uint32  `json:"id"`
	Suspicious bool    `json:"suspicious"`
	Score      float64 `json:"score"`
	Groups     []int   `json:"groups,omitempty"`
	Epoch      uint64  `json:"epoch"`
}

// PairResponse is the JSON verdict for one user-item co-click.
type PairResponse struct {
	User    uint32 `json:"user"`
	Item    uint32 `json:"item"`
	InGroup bool   `json:"in_group"`
	Groups  []int  `json:"groups,omitempty"`
	Epoch   uint64 `json:"epoch"`
}

// GroupResponse is the JSON rendering of one detected group.
type GroupResponse struct {
	Group          int      `json:"group"`
	Users          []uint32 `json:"users"`
	Items          []uint32 `json:"items"`
	Score          float64  `json:"score"`
	Density        float64  `json:"density"`
	MeanEdgeClicks float64  `json:"mean_edge_clicks"`
	OutsideShare   float64  `json:"outside_share"`
	Epoch          uint64   `json:"epoch"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	// Status is "serving" once an index is published, "empty" before the
	// first publication, "degraded" when the durability latch fired.
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch"`
	Groups int    `json:"groups"`
	// AgeMS is the staleness of the served verdicts: milliseconds since
	// the current index was published (-1 while empty).
	AgeMS    int64 `json:"age_ms"`
	Partial  bool  `json:"partial,omitempty"`
	Degraded bool  `json:"degraded"`
}

// CheckItem is one entry of a /v1/check batch request.
type CheckItem struct {
	Kind string  `json:"kind"` // "user", "item" or "pair"
	ID   *uint32 `json:"id,omitempty"`
	User *uint32 `json:"user,omitempty"`
	Item *uint32 `json:"item,omitempty"`
}

// errorResponse is the structured body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

// Endpoints lists the routes ServeHTTP answers, for start-up banners and the
// unknown-route error.
const Endpoints = "/v1/user/{id}, /v1/item/{id}, /v1/pair?u=&i=, /v1/group/{id}, /v1/check, /healthz"

// ServeHTTP routes the five query endpoints plus /healthz. Routing is
// hand-rolled (not http.ServeMux patterns) so every error path — unknown
// route, bad method, malformed ID, shed — returns the same structured
// JSON error shape.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if path == "/healthz" {
		// Health is exempt from shedding: an overloaded server must still
		// tell its load balancer it is alive.
		s.instrument("serve.req.healthz", "serve.latency.healthz", w, r, s.handleHealth)
		return
	}
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.o.Counter("serve.shed").Inc()
			writeError(w, http.StatusTooManyRequests, "server at max in-flight requests")
			return
		}
	}
	switch {
	case strings.HasPrefix(path, "/v1/user/"):
		s.instrument("serve.req.user", "serve.latency.user", w, r, func(w http.ResponseWriter, r *http.Request) {
			s.handleNode(w, r, "user", strings.TrimPrefix(path, "/v1/user/"))
		})
	case strings.HasPrefix(path, "/v1/item/"):
		s.instrument("serve.req.item", "serve.latency.item", w, r, func(w http.ResponseWriter, r *http.Request) {
			s.handleNode(w, r, "item", strings.TrimPrefix(path, "/v1/item/"))
		})
	case strings.HasPrefix(path, "/v1/group/"):
		s.instrument("serve.req.group", "serve.latency.group", w, r, func(w http.ResponseWriter, r *http.Request) {
			s.handleGroup(w, r, strings.TrimPrefix(path, "/v1/group/"))
		})
	case path == "/v1/pair":
		s.instrument("serve.req.pair", "serve.latency.pair", w, r, s.handlePair)
	case path == "/v1/check":
		s.instrument("serve.req.check", "serve.latency.check", w, r, s.handleCheck)
	default:
		writeError(w, http.StatusNotFound, "unknown route (endpoints: "+Endpoints+")")
	}
}

// instrument counts the request under req and times it under latency, names
// passed whole: building them per request allocates even with no observer.
func (s *Server) instrument(req, latency string, w http.ResponseWriter, r *http.Request,
	h func(http.ResponseWriter, *http.Request)) {

	s.o.Counter(req).Inc()
	t0 := time.Now()
	h(w, r)
	s.o.Histogram(latency).Observe(time.Since(t0))
}

// index returns the current index, or writes 503 and returns nil when no
// detection outcome has been published yet (serving "everything is clean"
// before the first sweep would be a silent false negative; consumers
// choose their own fail-open/fail-closed policy on 503).
func (s *Server) index(w http.ResponseWriter) *Index {
	ix := s.store.Current()
	if ix == nil {
		writeError(w, http.StatusServiceUnavailable, "no verdict index published yet")
		return nil
	}
	return ix
}

func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "method not allowed (want GET)")
		return false
	}
	return true
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request, kind, rawID string) {
	if !requireGet(w, r) {
		return
	}
	id, err := parseID(rawID)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad %s id %q: %v", kind, rawID, err))
		return
	}
	ix := s.index(w)
	if ix == nil {
		return
	}
	writeAppended(w, nodeResponse(ix, kind, id).appendJSON)
}

func nodeResponse(ix *Index, kind string, id uint32) NodeResponse {
	var v NodeVerdict
	if kind == "user" {
		v = ix.User(id)
	} else {
		v = ix.Item(id)
	}
	return NodeResponse{
		Kind:       kind,
		ID:         id,
		Suspicious: v.Suspicious,
		Score:      v.Score,
		Groups:     v.Groups,
		Epoch:      ix.Epoch(),
	}
}

func (s *Server) handlePair(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	q := r.URL.Query()
	u, err := parseID(q.Get("u"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad query param u=%q: %v", q.Get("u"), err))
		return
	}
	i, err := parseID(q.Get("i"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad query param i=%q: %v", q.Get("i"), err))
		return
	}
	ix := s.index(w)
	if ix == nil {
		return
	}
	writeAppended(w, pairResponse(ix, u, i).appendJSON)
}

func pairResponse(ix *Index, u, i uint32) PairResponse {
	v := ix.Pair(u, i)
	return PairResponse{User: u, Item: i, InGroup: v.InGroup, Groups: v.Groups, Epoch: ix.Epoch()}
}

func (s *Server) handleGroup(w http.ResponseWriter, r *http.Request, rawID string) {
	if !requireGet(w, r) {
		return
	}
	n, err := strconv.Atoi(rawID)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad group index %q: %v", rawID, err))
		return
	}
	ix := s.index(w)
	if ix == nil {
		return
	}
	g, ok := ix.Group(n)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("group %d not found (index has %d groups)", n, ix.NumGroups()))
		return
	}
	writeJSON(w, GroupResponse{
		Group:          n,
		Users:          g.Users,
		Items:          g.Items,
		Score:          g.Score,
		Density:        g.Density,
		MeanEdgeClicks: g.MeanEdgeClicks,
		OutsideShare:   g.OutsideShare,
		Epoch:          ix.Epoch(),
	})
}

// checkEntry is a CheckItem decoded by value: a kindNames index and the IDs.
type checkEntry struct {
	kind           uint8
	id, user, item uint32
}

var (
	kindNames = [...]string{"user", "item", "pair"}       // by checkEntry.kind
	kindNeeds = [...]uint8{0b0011, 0b0011, 0b1101}        // keys each kind needs, as presence bits
	checkKeys = [...]string{"kind", "id", "user", "item"} // in presence-bit order
)

const kindPair = 2

// checkScratch is the memory a /v1/check request reuses.
type checkScratch struct {
	body    bytes.Buffer
	entries []checkEntry
	shared  []int // one pair's groups
}

var checkScratches = sync.Pool{New: func() any { return new(checkScratch) }}

// handleCheck answers a batch of verdict questions in one round trip. All
// entries are answered from ONE captured index, so a batch is internally
// consistent even if a swap lands mid-request.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method not allowed (want POST)")
		return
	}
	sc := checkScratches.Get().(*checkScratch)
	defer func() {
		if sc.body.Cap() <= maxCheckBody { // as in writeAppended
			checkScratches.Put(sc)
		}
	}()
	// A body scanCheck refuses goes to encoding/json as the same byte
	// stream: the buffered bytes, then the limit reader, whose error is
	// sticky.
	body := http.MaxBytesReader(w, r.Body, maxCheckBody)
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(body); err != nil || !scanCheck(sc) {
		if !decodeCheck(w, io.MultiReader(bytes.NewReader(sc.body.Bytes()), body), sc) {
			return
		}
	}
	ix := s.index(w)
	if ix == nil {
		return
	}
	writeAppended(w, func(b []byte) (_ []byte, err error) {
		b = append(b, '[')
		for k, e := range sc.entries {
			if k > 0 {
				b = append(b, ',')
			}
			if e.kind == kindPair {
				sc.shared = ix.appendShared(sc.shared[:0], e.user, e.item)
				b, err = PairResponse{User: e.user, Item: e.item, InGroup: len(sc.shared) > 0, Groups: sc.shared, Epoch: ix.Epoch()}.appendJSON(b)
			} else {
				b, err = nodeResponse(ix, kindNames[e.kind], e.id).appendJSON(b)
			}
			if err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	})
}

// decodeCheck is the reflecting decoder: it decodes and validates a batch
// into sc.entries, or answers the error and reports false.
func decodeCheck(w http.ResponseWriter, body io.Reader, sc *checkScratch) bool {
	sc.entries = sc.entries[:0]
	var items []CheckItem
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&items)
	if err == nil {
		// Only whitespace may follow the array, or the rest goes unanswered.
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
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	if len(items) > DefaultMaxBatch {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d entries over the %d limit", len(items), DefaultMaxBatch))
		return false
	}
	for k, it := range items {
		switch it.Kind {
		case "user", "item":
			if it.ID == nil {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("entry %d: kind %q needs \"id\"", k, it.Kind))
				return false
			}
			sc.entries = append(sc.entries, checkEntry{kind: uint8(slices.Index(kindNames[:], it.Kind)), id: *it.ID})
		case "pair":
			if it.User == nil || it.Item == nil {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("entry %d: kind \"pair\" needs \"user\" and \"item\"", k))
				return false
			}
			sc.entries = append(sc.entries, checkEntry{kind: kindPair, user: *it.User, item: *it.Item})
		default:
			writeError(w, http.StatusBadRequest, fmt.Sprintf("entry %d: unknown kind %q (want user, item or pair)", k, it.Kind))
			return false
		}
	}
	return true
}

// scanCheck decodes sc.body into sc.entries if it is canonical: whitespace
// around one array of at most DefaultMaxBatch objects holding their kind's
// keys and only CheckItem's, each once and spelled exactly, an unescaped
// kind, and IDs in plain decimal ≤ math.MaxUint32 with no leading zero.
func scanCheck(sc *checkScratch) bool {
	sc.entries = sc.entries[:0]
	s := scanner{b: sc.body.Bytes()}
	if !s.eat('[') {
		return false
	}
	for more := true; more; more = s.eat(',') {
		if len(sc.entries) == DefaultMaxBatch || !s.eat('{') {
			return false
		}
		var e checkEntry
		var has uint8 // bit k: checkKeys[k] seen
		for more := true; more; more = s.eat(',') {
			k := s.word(checkKeys[:])
			if k < 0 || has&(1<<k) != 0 || !s.eat(':') {
				return false
			}
			has |= 1 << k
			ok := true
			switch k {
			case 0:
				kind := s.word(kindNames[:])
				e.kind, ok = uint8(kind), kind >= 0
			case 1:
				e.id, ok = s.uint32()
			case 2:
				e.user, ok = s.uint32()
			case 3:
				e.item, ok = s.uint32()
			}
			if !ok {
				return false
			}
		}
		if need := kindNeeds[e.kind]; has&need != need || !s.eat('}') {
			return false
		}
		sc.entries = append(sc.entries, e)
	}
	return s.eat(']') && s.skip() == len(s.b)
}

// scanner walks a body for scanCheck.
type scanner struct {
	b []byte
	p int
}

// skip skips JSON whitespace and returns the position after it.
func (s *scanner) skip() int {
	for s.p < len(s.b) && (s.b[s.p] == ' ' || s.b[s.p] == '\t' || s.b[s.p] == '\n' || s.b[s.p] == '\r') {
		s.p++
	}
	return s.p
}

// eat consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	if s.skip() < len(s.b) && s.b[s.p] == c {
		s.p++
		return true
	}
	return false
}

// word consumes a string and returns the index of the word it spells, or -1.
func (s *scanner) word(words []string) int {
	if !s.eat('"') {
		return -1
	}
	n := bytes.IndexByte(s.b[s.p:], '"')
	if n < 0 {
		return -1
	}
	s.p += n + 1
	return slices.IndexFunc(words, func(w string) bool { return string(s.b[s.p-n-1:s.p-1]) == w })
}

// uint32 consumes a decimal of at most math.MaxUint32 without a leading
// zero.
func (s *scanner) uint32() (uint32, bool) {
	start := s.skip()
	for s.p < len(s.b) && '0' <= s.b[s.p] && s.b[s.p] <= '9' {
		s.p++
	}
	v, err := strconv.ParseUint(string(s.b[start:s.p]), 10, 32)
	return uint32(v), err == nil && (s.b[start] != '0' || s.p == start+1)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	ix := s.store.Current()
	h := HealthResponse{Status: "serving", AgeMS: -1}
	if ix == nil {
		h.Status = "empty"
	} else {
		h.Epoch = ix.Epoch()
		h.Groups = ix.NumGroups()
		h.AgeMS = time.Since(ix.At()).Milliseconds()
		h.Partial = ix.Partial()
	}
	if s.degraded != nil && s.degraded() {
		h.Degraded = true
		h.Status = "degraded"
	}
	writeJSON(w, h)
}

// parseID parses a decimal uint32 node ID.
func parseID(s string) (uint32, error) {
	if s == "" {
		return 0, errors.New("empty")
	}
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, errors.Unwrap(err) // strip the "strconv.ParseUint" prefix noise
	}
	return uint32(v), nil
}

func writeJSON(w http.ResponseWriter, v any) {
	writeAppended(w, func(b []byte) ([]byte, error) { return appendMarshal(b, v) })
}

// appendMarshal appends json.Marshal's encoding of v.
func appendMarshal(b []byte, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	return append(b, data...), err
}

// respBufs recycles response buffers, since Write copies what it is given.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeAppended answers 200 with the JSON enc appends and a newline, or 500
// with enc's error.
func writeAppended(w http.ResponseWriter, enc func([]byte) ([]byte, error)) {
	buf := respBufs.Get().(*[]byte)
	data, err := enc((*buf)[:0])
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
	} else {
		w.Header()["Content-Type"] = jsonContentType
		data = append(data, '\n')
		w.Write(data)
	}
	if cap(data) <= maxCheckBody { // a DefaultMaxBatch answer fits; what an outsized one grew is dropped
		*buf = data[:0]
		respBufs.Put(buf)
	}
}

// appendJSON appends r exactly as json.Marshal encodes it, without
// reflection; r.Kind is "user" or "item", which need no escaping. A score
// json.Marshal refuses (NaN, ±Inf) goes to it for its error.
func (r NodeResponse) appendJSON(b []byte) ([]byte, error) {
	if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
		return appendMarshal(b, r)
	}
	b = append(b, `{"kind":"`...)
	b = append(b, r.Kind...)
	b = append(b, `","id":`...)
	b = strconv.AppendUint(b, uint64(r.ID), 10)
	b = append(b, `,"suspicious":`...)
	b = strconv.AppendBool(b, r.Suspicious)
	b = append(b, `,"score":`...)
	b = appendFloat(b, r.Score)
	return appendGroupsEpoch(b, r.Groups, r.Epoch), nil
}

// appendJSON is NodeResponse.appendJSON for a pair verdict.
func (r PairResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"user":`...)
	b = strconv.AppendUint(b, uint64(r.User), 10)
	b = append(b, `,"item":`...)
	b = strconv.AppendUint(b, uint64(r.Item), 10)
	b = append(b, `,"in_group":`...)
	b = strconv.AppendBool(b, r.InGroup)
	return appendGroupsEpoch(b, r.Groups, r.Epoch), nil
}

// appendGroupsEpoch closes a verdict: "groups", which omitempty drops when
// empty, then "epoch".
func appendGroupsEpoch(b []byte, groups []int, epoch uint64) []byte {
	if len(groups) > 0 {
		b = append(b, `,"groups":[`...)
		for k, g := range groups {
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(g), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	return append(b, '}')
}

// appendFloat appends a finite f as encoding/json does: the shortest 'f'
// form for zero and 1e-6 <= |f| < 1e21, else 'e' with a one-digit negative
// exponent written without its leading zero.
func appendFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1] // e-09 becomes e-9
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// jsonContentType is every response's Content-Type, assigned under the
// canonical key: Header().Set would allocate a one-element slice per
// response. Its capacity is 1, so an Add elsewhere copies it rather than
// writing into the shared array.
var jsonContentType = []string{"application/json; charset=utf-8"}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	data, _ := json.Marshal(errorResponse{Error: msg})
	w.Write(append(data, '\n'))
}
