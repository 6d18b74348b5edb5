package main

// Tracing from outside the program. The traced run records spans
// around the calls the benchmark makes into each layer's public
// functions, and wraps the interfaces the program accepts (cache.Store,
// mc.UnitRunner, http.Handler, http.RoundTripper) to count and time the
// traffic through them. Nothing inside the program is changed.

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cc"
)

// span is one recorded interval, in nanoseconds since the run began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced ops share the traced code path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ids   atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has begun; end closes it.
type openSpan struct {
	tr    *tracer
	s     span
	start time.Time
}

// begin opens a span under parent (0 for an op's root span).
func (t *tracer) begin(op, parent int64, name string) *openSpan {
	now := time.Now()
	if t == nil {
		return &openSpan{start: now}
	}
	return &openSpan{tr: t, start: now, s: span{
		ID: t.ids.Add(1), Parent: parent, Op: op, Name: name,
		Start: now.Sub(t.t0).Nanoseconds(),
	}}
}

// id is the span's identifier, for children to name as parent.
func (o *openSpan) id() int64 { return o.s.ID }

// elapsed is the time since the span began, in milliseconds.
func (o *openSpan) elapsed() float64 { return ms(time.Since(o.start)) }

// end closes the span and returns its length in milliseconds.
func (o *openSpan) end() float64 {
	now := time.Now()
	if o.tr != nil {
		o.s.End = now.Sub(o.tr.t0).Nanoseconds()
		o.tr.mu.Lock()
		o.tr.spans = append(o.tr.spans, o.s)
		o.tr.mu.Unlock()
	}
	return ms(now.Sub(o.start))
}

// record adds a span measured elsewhere (a server handler) under an
// op's root span.
func (t *tracer) record(op, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: t.ids.Add(1), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// storeTraffic is what crossed a traced store during one op.
type storeTraffic struct {
	gets, hits, puts   int64
	getNs, putNs       int64
	getBytes, putBytes int64
	fetched            [][]byte
	decodeNs           int64
}

// tracedStore wraps a cache.Store, timing and counting every call
// while on is set. It forwards the batch and probe upgrades through
// the cache package's helpers, so the program takes the same path it
// takes on the bare store.
type tracedStore struct {
	inner cache.Store
	on    atomic.Bool
	mu    sync.Mutex
	t     storeTraffic
}

func (s *tracedStore) noteGet(n, hits int, data [][]byte, d time.Duration) {
	if !s.on.Load() {
		return
	}
	s.mu.Lock()
	s.t.gets += int64(n)
	s.t.hits += int64(hits)
	s.t.getNs += d.Nanoseconds()
	for _, b := range data {
		s.t.getBytes += int64(len(b))
		s.t.fetched = append(s.t.fetched, b)
	}
	s.mu.Unlock()
}

func (s *tracedStore) notePut(n int, bytes int64, d time.Duration) {
	if !s.on.Load() {
		return
	}
	s.mu.Lock()
	s.t.puts += int64(n)
	s.t.putBytes += bytes
	s.t.putNs += d.Nanoseconds()
	s.mu.Unlock()
}

func (s *tracedStore) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := s.inner.Get(key)
	if ok {
		s.noteGet(1, 1, [][]byte{data}, time.Since(t0))
	} else {
		s.noteGet(1, 0, nil, time.Since(t0))
	}
	return data, ok
}

func (s *tracedStore) Put(key string, data []byte) error {
	t0 := time.Now()
	err := s.inner.Put(key, data)
	s.notePut(1, int64(len(data)), time.Since(t0))
	return err
}

func (s *tracedStore) GetBatch(keys []string) map[string][]byte {
	t0 := time.Now()
	out := cache.GetBatch(s.inner, keys)
	d := time.Since(t0)
	data := make([][]byte, 0, len(out))
	for _, b := range out {
		data = append(data, b)
	}
	s.noteGet(len(keys), len(out), data, d)
	return out
}

func (s *tracedStore) PutBatch(entries map[string][]byte) error {
	t0 := time.Now()
	err := cache.PutBatch(s.inner, entries)
	var n int64
	for _, b := range entries {
		n += int64(len(b))
	}
	s.notePut(len(entries), n, time.Since(t0))
	return err
}

func (s *tracedStore) Has(key string) bool { return cache.Has(s.inner, key) }

// take returns and clears the traffic recorded so far. The blobs that
// were read are then decoded again here, outside the op, with the
// program's own decoders (unit entries, then pass-1 ASTs), to measure
// the decode share of a store read.
func (s *tracedStore) take() storeTraffic {
	s.mu.Lock()
	t := s.t
	s.t = storeTraffic{}
	s.mu.Unlock()
	t0 := time.Now()
	for _, b := range t.fetched {
		if _, err := cache.DecodeUnit(b); err != nil {
			// Not a unit entry: decode it as a pass-1 AST. Only the time
			// matters; the manifest fails both decoders.
			_, _ = cc.ReadFile(b)
		}
	}
	t.decodeNs = time.Since(t0).Nanoseconds()
	t.fetched = nil
	return t
}

// addTo folds one op's store traffic into its per-layer row.
func (t storeTraffic) addTo(row map[string]float64) {
	row["cache.gets"] += float64(t.gets)
	row["cache.get_ms"] += float64(t.getNs) / 1e6
	row["cache.get_mb"] += float64(t.getBytes) / (1 << 20)
	row["cache.puts"] += float64(t.puts)
	row["cache.put_ms"] += float64(t.putNs) / 1e6
	row["cache.put_mb"] += float64(t.putBytes) / (1 << 20)
	row["cache.decode_ms"] += float64(t.decodeNs) / 1e6
	if t.gets > 0 {
		row["cache.hit_ratio"] = float64(t.hits) / float64(t.gets)
	}
}

// countingTransport wraps an http.RoundTripper, counting requests and
// the bytes sent and received.
type countingTransport struct {
	inner    http.RoundTripper
	requests atomic.Int64
	bytes    atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	if req.ContentLength > 0 {
		c.bytes.Add(req.ContentLength)
	}
	resp, err := c.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// tracedHandler wraps the daemon's http.Handler, timing each request
// by route while on is set.
type tracedHandler struct {
	inner http.Handler
	on    atomic.Bool

	mu           sync.Mutex
	analyzeStart time.Time // the last analyze request
	analyzeEnd   time.Time
	reportsMs    []float64
	metricsMs    []float64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	t1 := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	switch r.URL.Path {
	case "/v1/analyze":
		h.analyzeStart, h.analyzeEnd = t0, t1
	case "/v1/reports":
		h.reportsMs = append(h.reportsMs, ms(t1.Sub(t0)))
	case "/v1/metrics":
		h.metricsMs = append(h.metricsMs, ms(t1.Sub(t0)))
	}
}
