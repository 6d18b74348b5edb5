package main

// fleet_cold: cold CI analyses sharded over a fleet. A coordinator and
// two workers (one analysis job each) share an HTTP CAS, all in this
// process. Each op analyses the next tree of a seeded pool against an
// empty CAS; the pool is larger than the workers' tree caches, so no op
// finds a tree already built. Every op is gated against a local plain
// run of its tree.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/fleet"
	"repro/internal/workload"
	"repro/mc"
)

const (
	fleetWorkers = 2
	// fleetPool is the number of distinct trees ops cycle through:
	// more than a worker's tree cache holds (4), and odd, so a traced
	// run, which traces every other op, traces every tree alike.
	fleetPool = 5
)

// casClient is a worker's HTTP CAS client. It counts the round trips
// and keys of the batch fetches the workers make, which
// HTTPStore.Fetches and CoalescedGets (single Gets only) leave out.
type casClient struct {
	*cache.HTTPStore
	batches, keys atomic.Int64
}

func (c *casClient) GetBatch(keys []string) map[string][]byte {
	if len(keys) > 0 {
		c.batches.Add(1)
		c.keys.Add(int64(len(keys)))
	}
	return c.HTTPStore.GetBatch(keys)
}

// casSwitch serves the CAS of the current op, so each op starts
// against an empty store while servers and connections stay up.
type casSwitch struct {
	cur atomic.Pointer[cache.CASServer]
}

func (c *casSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.cur.Load().ServeHTTP(w, r)
}

type fleetCold struct {
	cfg     *runConfig
	trees   []map[string]string
	refs    []string
	refMs   []float64
	cas     *casSwitch
	servers []*http.Server
	served  sync.WaitGroup
	co      *fleet.Coordinator
	stores  []*casClient
	coTrans *countingTransport // coordinator to workers; nil untraced

	cur    int
	digest string
}

// serve starts an HTTP server for h on a loopback port.
func (w *fleetCold) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	w.servers = append(w.servers, hs)
	w.served.Add(1)
	go func() {
		defer w.served.Done()
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// client is the coordinator's HTTP client, whose transport counts
// traffic on a traced run.
func (w *fleetCold) client(timeout time.Duration) (*http.Client, *countingTransport) {
	base := http.DefaultTransport.(*http.Transport).Clone()
	if !w.cfg.Trace {
		return &http.Client{Timeout: timeout, Transport: base}, nil
	}
	ct := &countingTransport{inner: base}
	return &http.Client{Timeout: timeout, Transport: ct}, ct
}

func setupFleetCold(cfg *runConfig, _ int) (instance, error) {
	files, funcs := cfg.size(4)
	w := &fleetCold{cfg: cfg, cas: &casSwitch{}}
	// One more tree than the pool: the warm-up's.
	for k := 0; k <= fleetPool; k++ {
		tree, _ := workload.MixedTree(files, funcs, cfg.Seed*1000+int64(k))
		w.trees = append(w.trees, tree)
	}
	w.cas.cur.Store(cache.NewCASServer(cache.NewMemStore()))
	casURL, err := w.serve(w.cas)
	if err != nil {
		return nil, err
	}
	var urls []string
	for k := 0; k < fleetWorkers; k++ {
		c := &http.Client{Timeout: 30 * time.Second, Transport: http.DefaultTransport.(*http.Transport).Clone()}
		st := &casClient{HTTPStore: cache.NewHTTPStore(casURL, c)}
		w.stores = append(w.stores, st)
		url, err := w.serve(fleet.NewWorker(st, 1).Handler())
		if err != nil {
			w.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	c, ct := w.client(5 * time.Minute)
	w.coTrans = ct
	w.co = fleet.NewCoordinator(fleet.Config{Workers: urls, Client: c})
	if s := w.analyze(w.trees[fleetPool], 0, nil, nil); s.fault != "" {
		w.close()
		return nil, fmt.Errorf("warm-up: %s", s.fault)
	}
	return w, nil
}

func (w *fleetCold) inputs() string { return inputsHash(w.trees...) }

func (w *fleetCold) prepare() error {
	for _, tree := range w.trees[:fleetPool] {
		ref, wall, err := reference(tree, false)
		if err != nil {
			return err
		}
		w.refs = append(w.refs, ref)
		w.refMs = append(w.refMs, ms(wall))
	}
	return nil
}

func (w *fleetCold) op(i, opID int64, tr *tracer, row map[string]float64) opSample {
	w.cur = int(i % fleetPool)
	return w.analyze(w.trees[w.cur], opID, tr, row)
}

// fleetCounters is a snapshot of every fleet-side counter.
type fleetCounters struct {
	co fleet.Stats
	// fetches are the workers' fetch round trips to the CAS; coalesced
	// are gets that shared a round trip with another get (singleflight
	// followers and the keys of a batch beyond its first).
	fetches, coalesced int64
	// requests and bytes are the coordinator's traffic to the workers.
	requests, bytes int64
}

func (w *fleetCold) counters() fleetCounters {
	c := fleetCounters{co: w.co.Stats()}
	for _, st := range w.stores {
		batches := st.batches.Load()
		c.fetches += st.Fetches() + batches
		c.coalesced += st.CoalescedGets() + st.keys.Load() - batches
	}
	if w.coTrans != nil {
		c.requests = w.coTrans.requests.Load()
		c.bytes = w.coTrans.bytes.Load()
	}
	return c
}

// analyze runs one cold fleet analysis of tree against a fresh CAS.
func (w *fleetCold) analyze(tree map[string]string, opID int64, tr *tracer, row map[string]float64) opSample {
	s := opSample{lines: treeLines(tree)}
	mem := cache.NewMemStore()
	w.cas.cur.Store(cache.NewCASServer(mem))
	var store cache.Store = mem
	var traced *tracedStore
	runner := w.co.RunnerFor("bench")
	before := w.counters()
	root := tr.begin(opID, 0, "op")
	var dispatchMs float64
	if row != nil {
		traced = &tracedStore{inner: mem}
		traced.on.Store(true)
		store = traced
		inner := runner
		runner = func(ctx context.Context, run *mc.UnitRun) error {
			sp := tr.begin(opID, root.id(), "fleet.dispatch")
			err := inner(ctx, run)
			dispatchMs += sp.end()
			return err
		}
	}
	a := mc.NewAnalyzer()
	if err := a.Configure(mc.RunConfig{Jobs: jobs, CacheStore: store, UnitRunner: runner}); err != nil {
		s.fault = err.Error()
		return s
	}
	for name, src := range tree {
		a.AddSource(name, src)
	}
	sp := tr.begin(opID, root.id(), "metal.compile")
	err := loadCheckers(a)
	compileMs := sp.end()
	if err != nil {
		s.fault = err.Error()
		return s
	}
	sp = tr.begin(opID, root.id(), "mc.run")
	res, err := a.RunContext(context.Background())
	sp.end()
	if err != nil {
		s.fault = err.Error()
		return s
	}
	sp = tr.begin(opID, root.id(), "rank")
	ranked := res.Ranked()
	rankMs := sp.end()
	s.ms = root.end()
	s.verdictMs = s.ms
	s.fault = opFault(res)
	if s.fault == "" && res.Incr.UnitsRemote == 0 {
		s.fault = "the fleet filled no units"
	}
	w.digest = digestReports(ranked)
	s.readMs = s.ms + render(ranked)
	if row != nil {
		after := w.counters()
		row["metal.compile_ms"] = compileMs
		row["rank.ms"] = rankMs
		incrRow(row, res.Incr)
		row["cc.files"] = float64(len(tree))
		row["prog.funcs"] = float64(len(res.Program.All))
		row["fleet.dispatch_ms"] = dispatchMs
		row["fleet.dispatches"] = float64(after.co.Dispatched - before.co.Dispatched)
		row["fleet.requeues"] = float64(after.co.Requeues - before.co.Requeues)
		row["fleet.http_requests"] = float64(after.requests - before.requests)
		row["fleet.http_mb"] = float64(after.bytes-before.bytes) / (1 << 20)
		row["cache.http_fetches"] = float64(after.fetches - before.fetches)
		row["cache.http_coalesced"] = float64(after.coalesced - before.coalesced)
		traced.on.Store(false)
		traced.take().addTo(row)
	}
	return s
}

func (w *fleetCold) check(row map[string]float64) error {
	if row != nil {
		row["fleet.local_ref_ms"] = w.refMs[w.cur]
		row["mc.cold_ref_ms"] = w.refMs[w.cur]
	}
	if !w.cfg.matches(w.digest, w.refs[w.cur]) {
		return fmt.Errorf("fleet digest %.12s, local reference %.12s", w.digest, w.refs[w.cur])
	}
	return nil
}

func (w *fleetCold) finish(map[string]float64) error { return nil }

func (w *fleetCold) close() {
	if w.co != nil {
		w.co.Close()
	}
	for _, hs := range w.servers {
		hs.Close()
	}
	w.served.Wait()
}
